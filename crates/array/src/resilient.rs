//! The array: RAID-6 over a [`DiskBackend`], the layer that turns the
//! coding theory into a survivable storage device.
//!
//! Stripes share one [`CodeLayout`]; a [`RotationScheme`] decides which
//! slot holds each stripe's logical columns. Reads and writes are
//! addressed in *logical data elements* (`layout.data_len()` per stripe,
//! `block_size` bytes each). Beyond the textbook failure mode — a disk is
//! present or absent — the array faces the ones real RAID-6 deployments
//! document (SD codes' disk+sector model, "Beyond RAID 6"'s silent
//! corruption): sectors die individually, writes tear, bits rot, devices
//! stall and then vanish. The machinery, bottom to top:
//!
//! * every block read passes through a [`RetryPolicy`] — bounded retries
//!   with exponential backoff *accounting* (virtual microseconds, never
//!   slept);
//! * every block carries a CRC32; a mismatch converts silent corruption
//!   into a detectable erasure, served through parity and then repaired
//!   in place (read-repair);
//! * a sector-level read failure degrades only the *elements* that need
//!   it: a [`plan_recovery`] subplan reconstructs the lost cells from the
//!   survivors, without failing the whole disk;
//! * a slot whose error count crosses the threshold auto-transitions to
//!   `Failed`, and a configured hot spare is attached automatically;
//! * rebuild onto the spare runs incrementally ([`rebuild_step`]), a
//!   whole stripe at a time: one pass over the survivors reconstructs
//!   every lost block of the stripe — of both slots, when two rebuild
//!   side by side — through one cached recovery program. Reads are served
//!   correctly mid-rebuild: stripes below a slot's watermark from its
//!   spare, the rest through parity.
//!
//! A write touches only what the code's update equations require: the
//! written data cells and the parities in their update closure. A small
//! write on a healthy stripe folds `old ⊕ new` into the old parities; a
//! large or degraded one re-encodes from the untouched data
//! (reconstructing through failures first), so the array accepts writes
//! while degraded and mid-rebuild. See [`ResilientArray::write`].
//!
//! This is the only array in the crate. Tests, examples and doctests that
//! need one in memory build it with [`ResilientArray::new`] over a
//! [`MemBackend`].
//!
//! [`rebuild_step`]: ResilientArray::rebuild_step
//! [`plan_recovery`]: dcode_core::decoder::plan_recovery

use crate::device::{ArrayError, ElementIo};
use crate::journal::{
    IntentRecord, JournalSpec, JournalState, RecordEntry, RecordMode, ReplayOutcome, ReplaySummary,
    SlotHeader,
};
use crate::rotation::RotationScheme;
use crate::scrub::{scrub_stripe, ScrubReport};
use dcode_codec::xor::xor_into;
use dcode_codec::{CacheStats, ScheduleCache, Stripe, XorProgram};
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{crc32, DiskBackend, DiskError, MemBackend};
use std::collections::{BTreeMap, BTreeSet};

/// Bounded-retry policy for transient backend errors.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub max_retries: usize,
    /// Backoff charged before retry `k` is `backoff_base_us << k` virtual
    /// microseconds — accounted in [`ResilientStats::backoff_us`], never
    /// slept.
    pub backoff_base_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_us: 500,
        }
    }
}

impl RetryPolicy {
    /// Virtual backoff charged before retry `attempt`, saturating at
    /// `u64::MAX` instead of shifting past the bit width: a user-supplied
    /// `max_retries ≥ 64` used to panic in debug builds (and silently wrap
    /// the charge to zero in release) at `backoff_base_us << attempt`.
    fn backoff_us(&self, attempt: usize) -> u64 {
        u32::try_from(attempt)
            .ok()
            .and_then(|a| 1u64.checked_shl(a))
            .map_or(u64::MAX, |mult| self.backoff_base_us.saturating_mul(mult))
    }
}

/// Health of one array slot (a logical position of the code, mapped to a
/// physical backend disk).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SlotState {
    /// Serving reads and writes normally.
    Healthy,
    /// Past the error threshold or reported dead; served through parity.
    Failed,
    /// Mapped to a hot spare; stripes below the rebuild watermark are
    /// valid, the rest are served through parity.
    Rebuilding,
}

/// Counters for everything the resilient layer did.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ResilientStats {
    /// Logical elements read.
    pub element_reads: u64,
    /// Logical elements written.
    pub element_writes: u64,
    /// Backend retries issued for transient errors.
    pub retries: u64,
    /// Virtual backoff charged across all retries, microseconds.
    pub backoff_us: u64,
    /// Reads (or write-path fetches) that needed parity reconstruction.
    pub degraded_reads: u64,
    /// Blocks whose CRC32 did not match — silent corruption converted
    /// into an erasure.
    pub checksum_catches: u64,
    /// Reconstructed blocks written back in place after a checksum catch
    /// or sector failure on an otherwise healthy slot.
    pub read_repairs: u64,
    /// Slots auto-transitioned to `Failed` (error threshold or device
    /// reported dead).
    pub auto_fails: u64,
    /// Hot spares attached.
    pub spares_attached: u64,
    /// Rebuilds run to completion.
    pub rebuilds_completed: u64,
    /// Blocks reconstructed onto spares.
    pub rebuilt_blocks: u64,
    /// Blocks the rebuild asked the medium for (survivors, each once per
    /// pass) — over `rebuilt_blocks`, the reads per rebuilt block.
    pub rebuild_read_blocks: u64,
    /// Survivor passes the rebuild ran: one per stripe, whether it
    /// reconstructed one slot's blocks or two.
    pub rebuild_stripes: u64,
    /// Of those, passes that reconstructed two slots from one read of the
    /// survivors.
    pub joint_rebuild_stripes: u64,
    /// Blocks the array ran CRC32 over: every block it reads (to verify
    /// it, or at mount to seed the table), the new data cells of a write,
    /// and the cells a scrub locates and rewrites. Parity, rebuilt and
    /// read-repaired blocks are not hashed: replaying the program that
    /// produced them over CRCs already known gives theirs.
    pub hashed_blocks: u64,
    /// Write segments served by the delta branch (old data and old parity
    /// read, `old ⊕ new` folded in).
    pub delta_segments: u64,
    /// Write segments served by the reconstruct branch (untouched data
    /// read, parity re-encoded); a full-stripe write is one of these with
    /// nothing to read.
    pub reconstruct_segments: u64,
    /// Stripes [`write_unshared`](ResilientArray::write_unshared) covered
    /// whole and wrote under its one resync record instead of an intent
    /// record a stripe.
    pub unshared_stripes: u64,
    /// Cells the write path asked the medium for before it could write:
    /// old data and parity on the delta branch, untouched data on the
    /// reconstruct branch.
    pub write_fetch_blocks: u64,
    /// Intent records committed to the journal.
    pub journal_records: u64,
    /// Intent records retired after their writes landed.
    pub journal_retires: u64,
    /// Stripe mutations that proceeded unjournaled because no disk would
    /// accept the record (availability over protection; counted loudly).
    pub journal_skips: u64,
    /// Committed records re-applied by mount-time replay.
    pub journal_replays: u64,
    /// Torn/uncommitted records discarded by mount-time replay.
    pub journal_discards: u64,
}

/// Deliberately planted write-path ordering bugs. The crash sweep runs
/// with a mutation enabled to prove it *fails* — the harness's own
/// mutation test, mirroring `dcode race`'s checked mutations.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum JournalMutation {
    /// Retire the intent record after the data writes but *before* the
    /// parity writes — re-opening the write hole the journal closes. A
    /// crash between the retire and the parity writes leaves a
    /// parity-inconsistent stripe with no record to replay.
    RetireBeforeParity,
    /// One layer up, in [`ObjectStore::upsert`](crate::ObjectStore::upsert):
    /// persist the index naming the new extent, *then* write the extent.
    /// A crash between the two leaves a durable index entry over bytes
    /// that were never written. The array itself ignores this one.
    IndexBeforeData,
    /// In [`write_unshared`](ResilientArray::write_unshared): write the
    /// stripes it covers whole without committing the resync intent. A
    /// crash mid-write leaves a stripe whose parity disagrees with its
    /// data and no record to re-encode it. Such a tear lasts only on a
    /// medium that keeps every write as it lands: a cache that destages a
    /// disk only when it is flushed drops all of it, because nothing is
    /// flushed between the first of those stripe writes and the last.
    UnsharedWithoutIntent,
    /// In [`ObjectStore::upsert`](crate::ObjectStore::upsert): overwrite a
    /// value of any size in place when its length is unchanged, not only a
    /// value of one element. A crash between the element writes of a
    /// multi-element value leaves it neither old nor new, under an index
    /// that still names it. Like the whole-stripe tear, it lasts only on a
    /// medium that keeps every write as it lands. The array ignores it.
    InPlaceAcrossElements,
}

impl JournalMutation {
    /// Every planted bug, in the order `dcode crash-sim --mutate` runs them.
    pub const ALL: [JournalMutation; 4] = [
        JournalMutation::RetireBeforeParity,
        JournalMutation::IndexBeforeData,
        JournalMutation::UnsharedWithoutIntent,
        JournalMutation::InPlaceAcrossElements,
    ];

    /// Stable name (reports).
    pub fn name(self) -> &'static str {
        match self {
            JournalMutation::RetireBeforeParity => "retire-before-parity",
            JournalMutation::IndexBeforeData => "index-before-data",
            JournalMutation::UnsharedWithoutIntent => "unshared-without-intent",
            JournalMutation::InPlaceAcrossElements => "in-place-across-elements",
        }
    }
}

/// Disk topology for remounting an array that went down degraded or
/// mid-rebuild (see
/// [`attach_journaled_as`](ResilientArray::attach_journaled_as)). The
/// identity topology — every slot on its own disk, the rest spares — is
/// what [`attach_journaled`](ResilientArray::attach_journaled) uses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttachTopology {
    /// Physical backend disk serving each slot.
    pub slot_to_disk: Vec<usize>,
    /// Slots whose content is lost (served through parity until rebuilt).
    pub failed_slots: Vec<usize>,
    /// Unmapped physical disks available as hot spares, in attach order.
    pub spares: Vec<usize>,
}

/// One slot being rebuilt onto its spare: stripes `[0, next_stripe)` are
/// reconstructed on the new disk and served from it, the rest through
/// parity. The watermark moves a whole stripe at a time, so no stripe is
/// ever half rebuilt.
struct Rebuild {
    slot: usize,
    next_stripe: usize,
}

/// One stripe's share of a write: exactly the cells it stores and
/// journals.
struct Segment {
    stripe: usize,
    /// The written data cells, in logical order.
    data: Vec<Cell>,
    /// Their update closure: every parity the write changes.
    parity: Vec<Cell>,
    /// The new CRCs of `data` (hashed) and of `parity` (derived).
    data_crcs: Vec<u32>,
    parity_crcs: Vec<u32>,
    /// Delta branch only: the old contents of `data` and `parity`.
    old: Option<Stripe>,
}

/// An open commit round of a write call (see
/// [`persist`](ResilientArray::persist)). Each entry: a unit's segments,
/// its record's slot and seq, and whether that record is a segment's
/// intent record.
type Round<'a> = Vec<(
    &'a [(&'a Segment, &'a Stripe)],
    Option<(Option<usize>, u64)>,
    bool,
)>;

/// A RAID-6 array served from a [`DiskBackend`], with retries, checksums,
/// sector-level degraded reads, auto-failure, and hot-spare rebuild.
pub struct ResilientArray<B> {
    layout: CodeLayout,
    rotation: RotationScheme,
    block_size: usize,
    n_stripes: usize,
    backend: B,
    /// Slot → physical backend disk (remapped when a spare is attached).
    slot_to_disk: Vec<usize>,
    /// Physical disks not yet mapped to any slot, in attach order.
    spares: Vec<usize>,
    state: Vec<SlotState>,
    /// Cumulative hard-error count per slot (reset on spare attach).
    errors: Vec<usize>,
    /// Expected CRC32 of every block's *logical* content, `[slot][block]`.
    /// Updated on every write, even to failed slots (the expected content
    /// is what a rebuild must reproduce). A real deployment would persist
    /// these in the metadata region; the simulation keeps them in memory.
    crc: Vec<Vec<u32>>,
    /// CRC32 of an all-zero block: the constant an XOR of an even number
    /// of blocks adds to the XOR of their CRCs.
    zero_crc: u32,
    policy: RetryPolicy,
    fail_threshold: usize,
    /// Rebuilds in progress, at most two: a third lost column is beyond
    /// RAID-6.
    rebuilds: Vec<Rebuild>,
    /// Cells asked of the medium so far — what
    /// [`ResilientStats::rebuild_read_blocks`] is a difference of.
    cell_reads: u64,
    /// Write-ahead parity intent journal geometry, when this array was
    /// formatted with one. `None` keeps the legacy unjournaled write path.
    journal: Option<JournalSpec>,
    /// Next intent-record sequence number. It is read from the medium at
    /// mount, so it wraps instead of overflowing: replay orders only the
    /// records of one commit round by it, and those cover disjoint stripes.
    jseq: u64,
    /// What mount-time replay did, when this array came up via
    /// [`attach_journaled`](ResilientArray::attach_journaled).
    last_replay: Option<ReplaySummary>,
    /// Planted ordering bug for harness self-tests.
    mutation: Option<JournalMutation>,
    stats: ResilientStats,
    /// Memoized compiled XOR schedules: the full-stripe encode program and
    /// per-(erasure, missing-set) recovery subprograms. In steady state —
    /// the same disk dead across ten thousand reads, or a long rebuild —
    /// every encode and degraded read replays a cached program and
    /// compiles nothing.
    schedules: ScheduleCache,
}

/// The array over a [`MemBackend`]. The name is kept for one caller that
/// could not be changed along with it (a unit test in
/// `benchmark/src/wrap.rs`); write `ResilientArray<MemBackend>` elsewhere.
pub type Array = ResilientArray<MemBackend>;

impl ResilientArray<MemBackend> {
    /// A zero-filled in-memory array, for tests, examples and doctests:
    /// an unjournaled [`format`](ResilientArray::format) over a fresh
    /// [`MemBackend`] with the default [`RetryPolicy`], a failure
    /// threshold of four errors, and two hot spares, so that a double
    /// failure can rebuild.
    pub fn new(
        layout: CodeLayout,
        block_size: usize,
        n_stripes: usize,
        rotation: RotationScheme,
    ) -> Self {
        let backend = MemBackend::new(layout.disks() + 2, n_stripes * layout.rows(), block_size);
        Self::format(
            layout,
            block_size,
            n_stripes,
            rotation,
            backend,
            RetryPolicy::default(),
            4,
        )
    }
}

impl<B: DiskBackend> ResilientArray<B> {
    /// Build a fresh array over a zero-filled backend. The backend must
    /// hold at least `layout.disks()` devices of `n_stripes × rows`
    /// blocks; extra devices become hot spares. All-zero stripes are
    /// parity-consistent, so no initial encode pass is needed — but the
    /// backend really must be zeroed (as [`MemBackend::new`] and
    /// [`FileBackend::create`] guarantee).
    ///
    /// [`MemBackend::new`]: dcode_faults::MemBackend::new
    /// [`FileBackend::create`]: dcode_faults::FileBackend::create
    pub fn format(
        layout: CodeLayout,
        block_size: usize,
        n_stripes: usize,
        rotation: RotationScheme,
        backend: B,
        policy: RetryPolicy,
        fail_threshold: usize,
    ) -> Self {
        Self::build(
            layout,
            block_size,
            n_stripes,
            rotation,
            backend,
            policy,
            fail_threshold,
            None,
        )
    }

    /// [`format`](ResilientArray::format) with a write-ahead parity intent
    /// journal: the backend must carry
    /// [`journal_blocks_per_disk`](crate::journal::journal_blocks_per_disk)
    /// extra blocks per disk, and every stripe mutation is protected by an
    /// intent record (journal → flush → apply → flush → retire), closing
    /// the RAID-6 write hole across crashes.
    pub fn format_journaled(
        layout: CodeLayout,
        block_size: usize,
        n_stripes: usize,
        rotation: RotationScheme,
        backend: B,
        policy: RetryPolicy,
        fail_threshold: usize,
    ) -> Self {
        let spec = JournalSpec::for_geometry(&layout, block_size, n_stripes);
        let mut a = Self::build(
            layout,
            block_size,
            n_stripes,
            rotation,
            backend,
            policy,
            fail_threshold,
            Some(spec),
        );
        a.journal_write_state(ReplaySummary::default());
        a
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        layout: CodeLayout,
        block_size: usize,
        n_stripes: usize,
        rotation: RotationScheme,
        backend: B,
        policy: RetryPolicy,
        fail_threshold: usize,
        journal: Option<JournalSpec>,
    ) -> Self {
        assert!(n_stripes > 0 && block_size > 0 && fail_threshold > 0);
        assert_eq!(backend.block_size(), block_size, "backend block size");
        let per_disk =
            n_stripes * layout.rows() + journal.as_ref().map_or(0, JournalSpec::blocks_per_disk);
        assert_eq!(backend.blocks(), per_disk, "backend blocks per disk");
        assert!(backend.disks() >= layout.disks(), "not enough disks");
        let slots = layout.disks();
        let zero_crc = crc32(&vec![0u8; block_size]);
        ResilientArray {
            slot_to_disk: (0..slots).collect(),
            spares: (slots..backend.disks()).collect(),
            state: vec![SlotState::Healthy; slots],
            errors: vec![0; slots],
            crc: vec![vec![zero_crc; n_stripes * layout.rows()]; slots],
            zero_crc,
            layout,
            rotation,
            block_size,
            n_stripes,
            backend,
            policy,
            fail_threshold,
            rebuilds: Vec::new(),
            cell_reads: 0,
            journal,
            jseq: 0,
            last_replay: None,
            mutation: None,
            stats: ResilientStats::default(),
            schedules: ScheduleCache::new(),
        }
    }

    /// Open a journaled array over a backend that **already holds data**
    /// (a server restart, an array directory from an earlier run): replay
    /// the journal *before* anything else (scan every record slot,
    /// discard torn records by CRC, re-apply committed ones
    /// idempotently, retire them), then seed the CRC table by reading
    /// every block back from the now-consistent medium — the content on
    /// disk is declared the expected content. Any block that cannot be
    /// read through the retry policy fails the attach. The replay summary
    /// is kept on the array ([`last_replay`](ResilientArray::last_replay))
    /// and persisted in the journal state block.
    pub fn attach_journaled(
        layout: CodeLayout,
        block_size: usize,
        n_stripes: usize,
        rotation: RotationScheme,
        backend: B,
        policy: RetryPolicy,
        fail_threshold: usize,
    ) -> Result<Self, DiskError> {
        let disks = layout.disks();
        let total = backend.disks();
        Self::attach_journaled_as(
            layout,
            block_size,
            n_stripes,
            rotation,
            backend,
            policy,
            fail_threshold,
            AttachTopology {
                slot_to_disk: (0..disks).collect(),
                failed_slots: Vec::new(),
                spares: (disks..total).collect(),
            },
        )
    }

    /// [`attach_journaled`](ResilientArray::attach_journaled) with an
    /// explicit disk topology — how a crash harness (or an operator)
    /// remounts an array that went down degraded or mid-rebuild: slots
    /// may live on former spares, some slots may be known-failed (their
    /// content is served through parity and their CRCs materialize at
    /// rebuild), and the spare list is explicit. Replay still runs first;
    /// redo records skip writes to failed slots.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_journaled_as(
        layout: CodeLayout,
        block_size: usize,
        n_stripes: usize,
        rotation: RotationScheme,
        backend: B,
        policy: RetryPolicy,
        fail_threshold: usize,
        topology: AttachTopology,
    ) -> Result<Self, DiskError> {
        let spec = JournalSpec::for_geometry(&layout, block_size, n_stripes);
        assert_eq!(topology.slot_to_disk.len(), layout.disks(), "slot map");
        let mut a = Self::build(
            layout,
            block_size,
            n_stripes,
            rotation,
            backend,
            policy,
            fail_threshold,
            Some(spec),
        );
        a.slot_to_disk = topology.slot_to_disk;
        a.spares = topology.spares;
        for &slot in &topology.failed_slots {
            a.state[slot] = SlotState::Failed;
        }
        let summary = a.journal_replay()?;
        for slot in 0..a.layout.disks() {
            if a.state[slot] == SlotState::Failed {
                continue;
            }
            for block in 0..a.total_blocks() {
                let buf = a.read_raw(slot, block)?;
                a.crc[slot][block] = a.hash(&buf);
            }
        }
        a.stats = ResilientStats::default();
        a.stats.journal_replays = u64::from(summary.replayed);
        a.stats.journal_discards = u64::from(summary.discarded);
        a.last_replay = Some(summary);
        a.journal_write_state(summary);
        Ok(a)
    }

    /// The code this array runs.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.n_stripes
    }

    /// Bytes per element block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Logical data capacity in elements.
    pub fn capacity_elements(&self) -> usize {
        self.n_stripes * self.layout.data_len()
    }

    /// Logical data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_elements() * self.block_size
    }

    /// Per-slot health.
    pub fn slot_states(&self) -> &[SlotState] {
        &self.state
    }

    /// Slots currently failed (not counting rebuilding slots).
    pub fn failed_slots(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&s| self.state[s] == SlotState::Failed)
            .collect()
    }

    /// Physical backend disk currently serving `slot`.
    pub fn slot_disk(&self, slot: usize) -> usize {
        self.slot_to_disk[slot]
    }

    /// Hot spares not yet attached.
    pub fn spares_remaining(&self) -> usize {
        self.spares.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> &ResilientStats {
        &self.stats
    }

    /// Hit/miss counters of the embedded schedule cache — the steady-state
    /// proof that degraded reads and encodes stop compiling after warm-up.
    pub fn schedule_stats(&self) -> CacheStats {
        self.schedules.stats()
    }

    /// Every rebuilding slot as `(slot, stripes_done, stripes_total)`;
    /// empty when no rebuild is active.
    pub fn rebuild_progress(&self) -> Vec<(usize, usize, usize)> {
        let progress = |r: &Rebuild| (r.slot, r.next_stripe, self.n_stripes);
        self.rebuilds.iter().map(progress).collect()
    }

    /// Direct access to the backend (chaos harnesses reach through to the
    /// fault injector; tests corrupt the medium beneath the checksums).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consume the array and return its backend — how a crash harness
    /// recovers the medium after a [`CrashPanic`] unwound the op, to
    /// power-cycle and remount it.
    ///
    /// [`CrashPanic`]: dcode_faults::CrashPanic
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// The journal geometry, when this array is journaled.
    pub fn journal(&self) -> Option<&JournalSpec> {
        self.journal.as_ref()
    }

    /// What mount-time replay did, when this array came up via a
    /// journaled attach.
    pub fn last_replay(&self) -> Option<ReplaySummary> {
        self.last_replay
    }

    /// Plant (or clear) a deliberate write-path ordering bug. Harness
    /// self-test only: the crash sweep runs once with
    /// [`JournalMutation::RetireBeforeParity`] and once with
    /// [`JournalMutation::UnsharedWithoutIntent`], and asserts that it
    /// *catches* the resulting parity inconsistency.
    pub fn set_journal_mutation(&mut self, mutation: Option<JournalMutation>) {
        self.mutation = mutation;
    }

    fn rows(&self) -> usize {
        self.layout.rows()
    }

    fn total_blocks(&self) -> usize {
        self.n_stripes * self.rows()
    }

    fn block_of(&self, stripe: usize, row: usize) -> usize {
        stripe * self.rows() + row
    }

    fn slot_of(&self, stripe: usize, col: usize) -> usize {
        self.rotation.to_physical(stripe, col, self.layout.disks())
    }

    fn col_of(&self, stripe: usize, slot: usize) -> usize {
        self.rotation.to_logical(stripe, slot, self.layout.disks())
    }

    fn locate(&self, element: usize) -> Result<(usize, usize), ArrayError> {
        let capacity = self.capacity_elements();
        if element >= capacity {
            return Err(ArrayError::OutOfRange { element, capacity });
        }
        Ok((
            element / self.layout.data_len(),
            element % self.layout.data_len(),
        ))
    }

    /// [`locate`](ResilientArray::locate) the first and the last of
    /// `count ≥ 1` elements from `start`. A range whose end overflows is
    /// out of range too, never a panic.
    fn locate_range(&self, start: usize, count: usize) -> Result<(), ArrayError> {
        self.locate(start)?;
        self.locate(start.saturating_add(count - 1)).map(drop)
    }

    fn too_many(&self) -> ArrayError {
        ArrayError::TooManyFailures {
            failed: self.failed_slots(),
        }
    }

    /// Leading stripes of `slot` whose blocks are valid on its current
    /// disk: all of a healthy slot, none of a failed one, those below the
    /// watermark of a rebuilding one.
    fn rebuilt_stripes(&self, slot: usize) -> usize {
        match self.state[slot] {
            SlotState::Healthy => self.n_stripes,
            SlotState::Failed => 0,
            SlotState::Rebuilding => {
                let rebuild = self.rebuilds.iter().find(|r| r.slot == slot);
                rebuild.map_or(0, |r| r.next_stripe)
            }
        }
    }

    /// Whether `slot` reads and writes `stripe` directly — the one test
    /// block reads, stores and erasure planning share.
    fn slot_serves_stripe(&self, slot: usize, stripe: usize) -> bool {
        stripe < self.rebuilt_stripes(slot)
    }

    fn mark_failed(&mut self, slot: usize, auto: bool) {
        if self.state[slot] == SlotState::Failed {
            return;
        }
        self.state[slot] = SlotState::Failed;
        if auto {
            self.stats.auto_fails += 1;
        }
        self.rebuilds.retain(|r| r.slot != slot);
        self.try_attach_spare();
    }

    /// Count a hard error against `slot`; past the threshold the slot
    /// auto-transitions to `Failed` and a spare is attached if available.
    fn record_error(&mut self, slot: usize) {
        if self.state[slot] == SlotState::Failed {
            return;
        }
        self.errors[slot] += 1;
        if self.errors[slot] >= self.fail_threshold {
            self.mark_failed(slot, true);
        }
    }

    fn note_hard_error(&mut self, slot: usize, e: &DiskError) {
        if matches!(e, DiskError::Failed { .. }) {
            self.mark_failed(slot, true);
        } else {
            self.record_error(slot);
        }
    }

    /// Mark a slot failed by hand (testing, operator action). Attaches a
    /// spare automatically if one is left and fewer than two slots are
    /// rebuilding.
    pub fn fail_disk(&mut self, slot: usize) -> Result<(), ArrayError> {
        assert!(slot < self.layout.disks());
        if self.state[slot] == SlotState::Failed {
            return Err(ArrayError::BadDiskState { disk: slot });
        }
        self.mark_failed(slot, false);
        Ok(())
    }

    /// Attach spares to failed slots, lowest slot first, while a spare is
    /// left and fewer than two slots are rebuilding; each starts its
    /// rebuild at stripe 0. So a second failure gets its spare at failure
    /// time and rebuilds alongside the first. Returns the first slot a
    /// rebuild started on. Called automatically on every failure
    /// transition; a remount with failed slots
    /// ([`attach_journaled_as`](ResilientArray::attach_journaled_as))
    /// calls it by hand.
    pub fn try_attach_spare(&mut self) -> Option<usize> {
        let mut first = None;
        while self.rebuilds.len() < 2 && !self.spares.is_empty() {
            let Some(slot) = self.state.iter().position(|&s| s == SlotState::Failed) else {
                break;
            };
            self.slot_to_disk[slot] = self.spares.remove(0);
            self.state[slot] = SlotState::Rebuilding;
            self.errors[slot] = 0;
            self.rebuilds.push(Rebuild {
                slot,
                next_stripe: 0,
            });
            self.stats.spares_attached += 1;
            first = first.or(Some(slot));
        }
        first
    }

    /// Raw block read of `slot`'s current disk, through the retry policy.
    fn read_raw(&mut self, slot: usize, block: usize) -> Result<Vec<u8>, DiskError> {
        self.raw_disk_read(self.slot_to_disk[slot], block)
    }

    /// CRC32 of `bytes`, a whole number of blocks, counted in
    /// [`ResilientStats::hashed_blocks`].
    fn hash(&mut self, bytes: &[u8]) -> u32 {
        self.stats.hashed_blocks += (bytes.len() / self.block_size) as u64;
        crc32(bytes)
    }

    /// Raw block write to `slot`'s current disk, through the retry policy.
    fn write_raw(&mut self, slot: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        self.raw_disk_write(self.slot_to_disk[slot], block, data)
    }

    /// Read one cell with full checking. `None` means the cell must be
    /// served through parity (slot down, sector dead, retries exhausted,
    /// or checksum mismatch); the error bookkeeping has already happened.
    fn read_cell(&mut self, stripe: usize, cell: Cell) -> Option<Vec<u8>> {
        let slot = self.slot_of(stripe, cell.col);
        let block = self.block_of(stripe, cell.row);
        if !self.slot_serves_stripe(slot, stripe) {
            return None;
        }
        self.cell_reads += 1;
        match self.read_raw(slot, block) {
            Ok(buf) => {
                if self.hash(&buf) == self.crc[slot][block] {
                    Some(buf)
                } else {
                    self.stats.checksum_catches += 1;
                    self.record_error(slot);
                    None
                }
            }
            Err(e) => {
                self.note_hard_error(slot, &e);
                None
            }
        }
    }

    /// Fetch `wanted` cells of one stripe into a scratch stripe, serving
    /// unreadable cells through parity reconstruction and rewriting them
    /// in place where their slot is healthy (read-repair). The scratch
    /// holds valid bytes for every wanted cell plus whatever survivors
    /// the recovery read along the way; the map gives each reconstructed
    /// wanted cell its derived CRC.
    fn fetch_cells(
        &mut self,
        stripe: usize,
        wanted: &BTreeSet<Cell>,
        count_degraded: bool,
    ) -> Result<(Stripe, BTreeMap<Cell, u32>), ArrayError> {
        let (scratch, missing) = self.fetch_unrepaired(stripe, wanted, count_degraded)?;
        self.read_repair(stripe, &missing, &scratch);
        Ok((scratch, missing))
    }

    /// [`fetch_cells`](ResilientArray::fetch_cells) without the
    /// read-repair: the scratch stripe, and the wanted cells that had to
    /// be reconstructed, each with the CRC32 of its reconstructed bytes.
    /// Writes nothing.
    ///
    /// Those CRCs are derived, not hashed: the recovery program is
    /// replayed over one CRC per block ([`XorProgram::run_crcs`]), seeded
    /// with the table entry of every block read (which
    /// [`read_cell`](ResilientArray::read_cell) has just verified) and
    /// with `crc(0ⁿ)` for every other block of the zeroed scratch. No
    /// table entry of a slot that does not serve the stripe is read: after
    /// [`attach_journaled_as`](ResilientArray::attach_journaled_as) those
    /// are placeholders until the rebuild.
    ///
    /// [`XorProgram::run_crcs`]: dcode_codec::XorProgram::run_crcs
    fn fetch_unrepaired(
        &mut self,
        stripe: usize,
        wanted: &BTreeSet<Cell>,
        count_degraded: bool,
    ) -> Result<(Stripe, BTreeMap<Cell, u32>), ArrayError> {
        let mut scratch = Stripe::zeroed(&self.layout, self.block_size);
        let mut missing: BTreeSet<Cell> = BTreeSet::new();
        for &cell in wanted {
            match self.read_cell(stripe, cell) {
                Some(buf) => scratch.block_mut(cell).copy_from_slice(&buf),
                None => {
                    missing.insert(cell);
                }
            }
        }
        if missing.is_empty() {
            return Ok((scratch, BTreeMap::new()));
        }
        if count_degraded {
            self.stats.degraded_reads += 1;
        }

        // Column-granular erasure set: every slot that cannot serve this
        // whole stripe, plus the columns of the cells that just failed.
        let mut erased_cols: BTreeSet<usize> = (0..self.layout.disks())
            .filter(|&s| !self.slot_serves_stripe(s, stripe))
            .map(|s| self.col_of(stripe, s))
            .collect();
        for c in &missing {
            erased_cols.insert(c.col);
        }
        let mut loaded: BTreeSet<Cell> = wanted.difference(&missing).copied().collect();

        // Re-plan whenever reading a survivor surfaces a new failure. The
        // compiled subprogram (and its surviving-read list) comes from the
        // schedule cache keyed on (erased columns, missing cells, and under
        // one erased column the survivors already read): a stable failure
        // pattern — the steady state of a dead disk or a long rebuild —
        // plans and compiles only on its first read. Under one erased
        // column the plan is the minimum-read choice of equations given
        // what this fetch already holds; under two, the peeling plan.
        'replan: loop {
            // Every wanted cell in an erased column is asked for, not just
            // the failed ones: this read returns them from the scratch
            // stripe, and a subprogram is proved to restore only the cells
            // it is asked for (`verify_subprogram`). Replay may write any
            // other cell of an erased column; nothing proves what it leaves.
            let observable: BTreeSet<Cell> = wanted
                .iter()
                .copied()
                .filter(|c| erased_cols.contains(&c.col))
                .collect();
            let compiled = self
                .schedules
                .recovery_subprogram(
                    &self.layout,
                    erased_cols.iter().copied(),
                    &observable,
                    &loaded,
                )
                .map_err(|_| self.too_many())?;
            for &cell in compiled.reads.iter() {
                if loaded.contains(&cell) {
                    continue;
                }
                match self.read_cell(stripe, cell) {
                    Some(buf) => {
                        scratch.block_mut(cell).copy_from_slice(&buf);
                        loaded.insert(cell);
                    }
                    None => {
                        erased_cols.insert(cell.col);
                        continue 'replan;
                    }
                }
            }
            compiled.program.run(&mut scratch);
            let grid = self.layout.grid();
            let mut crcs = vec![self.zero_crc; grid.len()];
            for &cell in &loaded {
                let slot = self.slot_of(stripe, cell.col);
                crcs[grid.index(cell)] = self.crc[slot][self.block_of(stripe, cell.row)];
            }
            compiled.program.run_crcs(&mut crcs, self.zero_crc);
            let derived: BTreeMap<Cell, u32> =
                missing.iter().map(|&c| (c, crcs[grid.index(c)])).collect();
            debug_assert!(
                derived
                    .iter()
                    .all(|(&c, &crc)| crc == crc32(scratch.block(c))),
                "a derived CRC of reconstructed stripe {stripe} differs from the hashed one"
            );
            return Ok((scratch, derived));
        }
    }

    /// Read-repair: a cell that failed on an otherwise healthy slot
    /// (checksum catch, bad sector) is rewritten in place with its
    /// reconstructed content — drives remap on write — and its derived
    /// CRC from `missing`.
    fn read_repair(&mut self, stripe: usize, missing: &BTreeMap<Cell, u32>, scratch: &Stripe) {
        let repairable: Vec<(Cell, u32)> = missing
            .iter()
            .map(|(&c, &crc)| (c, crc))
            .filter(|(c, _)| self.state[self.slot_of(stripe, c.col)] == SlotState::Healthy)
            .collect();
        for (cell, crc) in repairable {
            let slot = self.slot_of(stripe, cell.col);
            let block = self.block_of(stripe, cell.row);
            match self.write_raw(slot, block, scratch.block(cell)) {
                Ok(()) => {
                    self.crc[slot][block] = crc;
                    self.stats.read_repairs += 1;
                }
                Err(e) => self.note_hard_error(slot, &e),
            }
        }
    }

    /// Read `count` logical elements starting at `start`, through retries,
    /// checksum catches, sector failures, dead disks, and in-progress
    /// rebuilds.
    pub fn read(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.locate_range(start, count)?;
        let mut out = Vec::with_capacity(count * self.block_size);
        let mut element = start;
        let mut remaining = count;
        while remaining > 0 {
            let (t, within) = self.locate(element).expect("range checked");
            let room = self.layout.data_len() - within;
            let chunk = room.min(remaining);
            let wanted: BTreeSet<Cell> = (within..within + chunk)
                .map(|i| self.layout.logical_to_cell(i))
                .collect();
            let (scratch, _) = self.fetch_cells(t, &wanted, true)?;
            for i in within..within + chunk {
                out.extend_from_slice(scratch.block(self.layout.logical_to_cell(i)));
            }
            self.stats.element_reads += chunk as u64;
            element += chunk;
            remaining -= chunk;
        }
        Ok(out)
    }

    /// Write `bytes` (a multiple of the block size) starting at logical
    /// element `start`. The range splits into per-stripe segments; each
    /// stores its `k` written data cells and the `A` parities of their
    /// [update closure](CodeLayout::update_closure) and nothing else. How
    /// the new parity is obtained follows from the layout alone, with
    /// `D` data cells per stripe:
    ///
    /// * **delta**, on a healthy stripe when `k + A < D − k`: fetch the
    ///   `k` old data cells and `A` old parities, encode a stripe that is
    ///   zero except `old ⊕ new` in the written cells — encoding is
    ///   linear over GF(2), so its parity cells come out as the parity
    ///   *change*, cascades (RDP, HDP) included — and fold that change
    ///   into the old parities;
    /// * **reconstruct** otherwise: fetch the `D − k` untouched data
    ///   cells (through parity if degraded; nothing for a full stripe),
    ///   patch in the new ones and re-encode. A degraded stripe or an
    ///   active rebuild always takes this branch, so writes work while
    ///   degraded and mid-rebuild.
    ///
    /// Every fetch is CRC-verified and read-repaired, so a stale old
    /// parity is caught before a delta is folded into it. One stripe or
    /// many, either branch, the segments encode through one
    /// [`dcode_codec::run_batch`] call on the global worker pool: the
    /// array's cached encode program replayed tile-major per stripe
    /// (inline for a single stripe), which is what lets a server batch
    /// many queued puts into one pooled encode.
    pub fn write(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        self.write_range(start, bytes, false)
    }

    /// [`write`](ResilientArray::write), or with `unshared`
    /// [`write_unshared`](ResilientArray::write_unshared).
    fn write_range(
        &mut self,
        start: usize,
        bytes: &[u8],
        unshared: bool,
    ) -> Result<(), ArrayError> {
        let bs = self.block_size;
        assert!(
            bytes.len() % bs == 0,
            "write length must be a multiple of the block size"
        );
        let count = bytes.len() / bs;
        if count == 0 {
            return Ok(());
        }
        self.locate_range(start, count)?;

        // Fetch and patch every touched stripe, then encode the whole
        // batch in one pooled call, then persist. Segments are disjoint
        // stripes, so the phases commute with the sequential order.
        let program = self.schedules.encode_program(&self.layout);
        let mut segments = Vec::new();
        let mut scratches = Vec::new();
        let mut offset = 0;
        while offset < count {
            let (t, within) = self.locate(start + offset).expect("range checked");
            let chunk = (self.layout.data_len() - within).min(count - offset);
            let new = &bytes[offset * bs..(offset + chunk) * bs];
            let (segment, scratch) = self.fetch_segment(&program, t, within, new)?;
            segments.push(segment);
            scratches.push(scratch);
            offset += chunk;
        }
        dcode_codec::run_batch(
            &program,
            &mut scratches,
            minipool::global(),
            minipool::effective_parallelism(segments.len()),
        );
        for (segment, scratch) in segments.iter().zip(&mut scratches) {
            if let Some(old) = &segment.old {
                // Every stored cell of a delta stripe holds its change.
                for &cell in segment.data.iter().chain(&segment.parity) {
                    xor_into(scratch.block_mut(cell), old.block(cell));
                }
            }
        }
        // The stripes covered whole go under one resync record, after the
        // others' records.
        let resync = unshared && self.journal.is_some() && self.all_healthy();
        let d = self.layout.data_len();
        let (whole, parts): (Vec<_>, Vec<_>) = segments
            .iter()
            .zip(&scratches)
            .partition(|(segment, _)| resync && segment.data.len() == d);
        let mut units: Vec<_> = parts.chunks(1).map(|part| (false, part)).collect();
        self.stats.unshared_stripes += whole.len() as u64;
        if !whole.is_empty() {
            units.push((true, &whole));
        }
        self.persist(&units);
        Ok(())
    }

    /// [`write`](ResilientArray::write) over elements that hold nothing
    /// live: the [`ElementIo::write_unshared`] contract. A stripe the range
    /// covers whole is written as `write` writes it — nothing read, every
    /// parity from the batch encode — but on a healthy journaled array
    /// without a by-value intent record: one [`RecordMode::Resync`] record
    /// names every such stripe of the call, is committed before the first
    /// of them is written, and is retired once every disk written is
    /// flushed. A crash in between leaves each of them with any mix of old
    /// and new cells; replay re-encodes their parity from the data on
    /// disk, so every stripe is consistent again whatever landed. A stripe
    /// the range covers in part holds other elements, and takes its own
    /// intent record as in `write`; so does every stripe while a slot is
    /// failed or rebuilding.
    pub fn write_unshared(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        self.write_range(start, bytes, true)
    }

    fn all_healthy(&self) -> bool {
        self.state.iter().all(|&s| s == SlotState::Healthy)
    }

    /// Plan one stripe's segment of a write — `new` lands at logical
    /// position `within` — and fetch what its branch needs. Returns the
    /// stripe to encode: the written cells hold `old ⊕ new` and the rest
    /// is zero on the delta branch; the untouched data as fetched and the
    /// written cells as given on the reconstruct branch.
    ///
    /// Only the new data cells are hashed. The parity CRCs come from
    /// replaying `program` over one CRC per block
    /// ([`XorProgram::run_crcs`]), seeded to mirror the stripe it will
    /// encode. On the reconstruct branch each data cell takes the hash of
    /// its new bytes or, untouched, the CRC the fetch verified or derived;
    /// the replay gives every new parity's CRC. On the delta branch each
    /// written cell takes `crc(old ⊕ new) = crc(old) ⊕ crc(new) ⊕ crc(0ⁿ)`
    /// and every other block `crc(0ⁿ)`; the replay gives each parity's
    /// change `Δ`, and `crc(P ⊕ Δ) = crc(P) ⊕ crc(Δ) ⊕ crc(0ⁿ)`. No table
    /// entry of a slot that does not serve the stripe is read.
    ///
    /// [`XorProgram::run_crcs`]: dcode_codec::XorProgram::run_crcs
    fn fetch_segment(
        &mut self,
        program: &XorProgram,
        stripe: usize,
        within: usize,
        new: &[u8],
    ) -> Result<(Segment, Stripe), ArrayError> {
        let bs = self.block_size;
        let cells = self.layout.data_cells();
        let end = within + new.len() / bs;
        let data = cells[within..end].to_vec();
        let parity: Vec<Cell> = self.layout.update_closure(&data).into_iter().collect();
        let untouched = cells[..within].iter().chain(&cells[end..]);
        let delta = self.all_healthy() && data.len() + parity.len() < cells.len() - data.len();
        let wanted: BTreeSet<Cell> = if delta {
            data.iter().chain(&parity).copied().collect()
        } else {
            untouched.copied().collect()
        };
        let (fetched, derived) = self.fetch_cells(stripe, &wanted, true)?;
        self.stats.write_fetch_blocks += wanted.len() as u64;

        let data_crcs: Vec<u32> = new.chunks_exact(bs).map(|b| self.hash(b)).collect();
        let (grid, zero) = (self.layout.grid(), self.zero_crc);
        let fetched_crc = |c: Cell| match derived.get(&c) {
            Some(&crc) => crc,
            None => self.crc[self.slot_of(stripe, c.col)][self.block_of(stripe, c.row)],
        };
        // The CRC of a block of `c` XORed with `c`'s old content on the
        // delta branch (`crc(a ⊕ b) = crc(a) ⊕ crc(b) ⊕ crc(0ⁿ)`): new
        // data to what the delta stripe holds, a parity change to the
        // new parity.
        let xor_old = |c: Cell, crc: u32| {
            if delta {
                fetched_crc(c) ^ crc ^ zero
            } else {
                crc
            }
        };
        let mut crcs = vec![zero; grid.len()];
        if !delta {
            for &c in &wanted {
                crcs[grid.index(c)] = fetched_crc(c);
            }
        }
        for (&c, &crc) in data.iter().zip(&data_crcs) {
            crcs[grid.index(c)] = xor_old(c, crc);
        }
        program.run_crcs(&mut crcs, zero);
        let parity_crcs = parity
            .iter()
            .map(|&p| xor_old(p, crcs[grid.index(p)]))
            .collect();

        let (mut scratch, old) = if delta {
            self.stats.delta_segments += 1;
            (Stripe::zeroed(&self.layout, bs), Some(fetched))
        } else {
            self.stats.reconstruct_segments += 1;
            (fetched, None)
        };
        for (&cell, block) in data.iter().zip(new.chunks_exact(bs)) {
            let dst = scratch.block_mut(cell);
            dst.copy_from_slice(block);
            if let Some(old) = &old {
                xor_into(dst, old.block(cell));
            }
        }
        let segment = Segment {
            stripe,
            data,
            parity,
            data_crcs,
            parity_crcs,
            old,
        };
        Ok((segment, scratch))
    }

    /// Persist a write call's encoded segments — their written data cells
    /// and affected parities, under the CRCs
    /// [`fetch_segment`](ResilientArray::fetch_segment) gave them — in
    /// *commit rounds*. A unit is one record's worth: a segment under its
    /// intent record, or (`true`) the stripes a
    /// [`write_unshared`](ResilientArray::write_unshared) covers whole —
    /// consecutive, ascending — under one [`RecordMode::Resync`] record. On
    /// a journaled array a round holds up to one record per journal disk,
    /// each in its own disk's slot, and runs in four phases:
    ///
    /// 1. commit every record (payload → header → journal-disk flush),
    /// 2. store every segment's data cells, then its parity cells,
    /// 3. flush each disk written, once for the whole round,
    /// 4. retire every record (tombstone → journal-disk flush).
    ///
    /// The records of a round cover disjoint stripes; each is committed
    /// before any cell of its stripes is stored and retired only after
    /// every disk written is flushed. A record that finds no free slot —
    /// every other disk refused it or holds a record of this round —
    /// closes the round and opens the next. Only a record alone in its
    /// round goes unjournaled (counted in
    /// [`ResilientStats::journal_skips`]), and it closes its round at once.
    /// The write is only acknowledged — [`write`](ResilientArray::write)
    /// only returns — after its last round is retired, so an acknowledged
    /// write is durable and a crashed one is replayable.
    fn persist(&mut self, units: &[(bool, &[(&Segment, &Stripe)])]) {
        let journaled = self.journal.is_some();
        let planted = self.mutation == Some(JournalMutation::UnsharedWithoutIntent);
        let mut round: Round = Vec::new();
        for (resync, unit) in units {
            let record = match resync {
                _ if !journaled => None,
                // Planted bug for the harness self-test: no intent at all.
                true if planted => None,
                true => {
                    let (first, stripes) = (unit[0].0.stripe, unit.len());
                    debug_assert_eq!(unit[stripes - 1].0.stripe, first + stripes - 1);
                    self.jseq = self.jseq.wrapping_add(1);
                    Some(IntentRecord {
                        seq: self.jseq.wrapping_sub(1),
                        stripe: first,
                        mode: RecordMode::Resync { stripes },
                        entries: Vec::new(),
                    })
                }
                false => Some(self.build_record(unit[0].0, unit[0].1)),
            };
            let jdisk = loop {
                let Some(record) = &record else { break None };
                let held: Vec<usize> = round.iter().filter_map(|r| r.1?.0).collect();
                if let Some(disk) = self.journal_append(record, &held) {
                    break Some(disk);
                }
                if round.is_empty() {
                    self.stats.journal_skips += 1;
                    break None;
                }
                self.close_round(&mut round);
            };
            let committed = record.map(|record| (jdisk, record.seq));
            round.push((unit, committed, !resync));
            if committed.is_some_and(|(jdisk, _)| jdisk.is_none()) {
                self.close_round(&mut round);
            }
        }
        self.close_round(&mut round);
    }

    /// Phases 2–4 of a commit round (see
    /// [`persist`](ResilientArray::persist)), which leaves it empty.
    fn close_round(&mut self, round: &mut Round) {
        // Planted bug for the harness self-test: retiring an intent record
        // between its segment's data and parity writes re-opens the write
        // hole.
        let mutated = self.mutation == Some(JournalMutation::RetireBeforeParity);
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for &(unit, committed, intent) in round.iter() {
            let retire_early = committed.filter(|_| mutated && intent);
            for &(segment, scratch) in unit {
                self.store_segment(segment, scratch, &mut touched, retire_early);
            }
        }
        if self.journal.is_some() {
            for disk in touched {
                let _ = self.backend.flush(disk);
            }
        }
        for (_, committed, intent) in round.drain(..) {
            if let Some((jdisk, seq)) = committed.filter(|_| !(mutated && intent)) {
                self.journal_retire(jdisk, seq);
            }
        }
    }

    /// Store one encoded segment's data cells, then its parity cells,
    /// under the CRCs [`fetch_segment`](ResilientArray::fetch_segment)
    /// gave them, noting in `touched` the disks written. `retire_early`
    /// is the planted retire-before-parity bug's record, retired between
    /// the two.
    fn store_segment(
        &mut self,
        segment: &Segment,
        scratch: &Stripe,
        touched: &mut BTreeSet<usize>,
        retire_early: Option<(Option<usize>, u64)>,
    ) {
        let (stripe, data_crcs, parity_crcs) =
            (segment.stripe, &segment.data_crcs, &segment.parity_crcs);
        debug_assert!(
            segment
                .parity
                .iter()
                .zip(parity_crcs)
                .all(|(&c, &crc)| crc == crc32(scratch.block(c))),
            "a derived parity CRC of stripe {stripe} differs from the hashed one"
        );
        self.store_cells(stripe, &segment.data, data_crcs, scratch, touched);
        if let Some((jdisk, seq)) = retire_early {
            self.journal_retire(jdisk, seq);
        }
        self.store_cells(stripe, &segment.parity, parity_crcs, scratch, touched);
        self.stats.element_writes += segment.data.len() as u64;
    }

    /// [`store_cell`](ResilientArray::store_cell) each of `cells` from
    /// `scratch`, noting in `touched` the disks actually written.
    fn store_cells(
        &mut self,
        stripe: usize,
        cells: &[Cell],
        crcs: &[u32],
        scratch: &Stripe,
        touched: &mut BTreeSet<usize>,
    ) {
        for (&cell, &crc) in cells.iter().zip(crcs) {
            if self.store_cell(stripe, cell, scratch.block(cell), crc) {
                touched.insert(self.slot_to_disk[self.slot_of(stripe, cell.col)]);
            }
        }
    }

    /// Build the intent record protecting one segment. Healthy stripes
    /// get a [`RecordMode::ParityIntent`] record (data CRCs + parity
    /// contents); a degraded stripe or an active rebuild forces
    /// [`RecordMode::Redo`] (full contents), because a partially applied
    /// degraded write changes the failed slot's parity-implied content —
    /// only re-forcing the whole intent restores consistency.
    fn build_record(&mut self, segment: &Segment, scratch: &Stripe) -> IntentRecord {
        let healthy = self.all_healthy();
        let entry = |(&cell, &crc): (&Cell, &u32), by_value: bool| RecordEntry {
            cell,
            crc,
            payload: by_value.then(|| scratch.snapshot(cell)),
        };
        let data = segment.data.iter().zip(&segment.data_crcs);
        let parity = segment.parity.iter().zip(&segment.parity_crcs);
        let entries = data
            .map(|e| entry(e, !healthy))
            .chain(parity.map(|e| entry(e, true)))
            .collect();
        let seq = self.jseq;
        self.jseq = seq.wrapping_add(1);
        IntentRecord {
            seq,
            stripe: segment.stripe,
            mode: if healthy {
                RecordMode::ParityIntent
            } else {
                RecordMode::Redo
            },
            entries,
        }
    }

    /// Commit `record` to a journal slot: payload blocks, then the
    /// header, then flush — the record is only committed once the flush
    /// completes, so a crash anywhere earlier leaves a torn (discarded)
    /// record and an untouched stripe. The slot rotates with the
    /// sequence number and probes past disks that refuse the write and
    /// the `held` ones, whose slots hold a live record of this round;
    /// `None` if no other disk accepts it.
    fn journal_append(&mut self, record: &IntentRecord, held: &[usize]) -> Option<usize> {
        let spec = self.journal.clone()?;
        let disk = (0..spec.disks)
            .map(|probe| (record.seq as usize + probe) % spec.disks)
            .filter(|disk| !held.contains(disk))
            .find(|&disk| self.try_journal_write(disk, &spec, record).is_ok())?;
        self.stats.journal_records += 1;
        Some(disk)
    }

    fn try_journal_write(
        &mut self,
        disk: usize,
        spec: &JournalSpec,
        record: &IntentRecord,
    ) -> Result<(), DiskError> {
        for (k, e) in record.payload_entries().enumerate() {
            let content = e.payload.as_deref().expect("payload entry");
            self.raw_disk_write(disk, spec.payload_start() + k, content)?;
        }
        let header = record.encode_header(spec);
        let bs = self.block_size;
        for (k, chunk) in header.chunks(bs).enumerate() {
            self.raw_disk_write(disk, spec.header_start() + k, chunk)?;
        }
        self.backend.flush(disk)
    }

    /// Retire a committed record: tombstone its header, flush. A crash
    /// before the tombstone is durable merely replays the record again —
    /// harmless, because replay is idempotent.
    fn journal_retire(&mut self, jdisk: Option<usize>, seq: u64) {
        let Some(disk) = jdisk else { return };
        let Some(spec) = self.journal.clone() else {
            return;
        };
        let tomb = IntentRecord::encode_tombstone(seq, self.block_size);
        if self
            .raw_disk_write(disk, spec.header_start(), &tomb)
            .is_ok()
            && self.backend.flush(disk).is_ok()
        {
            self.stats.journal_retires += 1;
        }
    }

    /// Physical-disk block write through the retry policy, under every
    /// slot write and all journal I/O (the journal region is outside the
    /// slot/rotation mapping and addresses disks directly).
    fn raw_disk_write(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        self.with_retries(|backend| backend.write_block(disk, block, data))
    }

    /// Physical-disk block read through the retry policy, under every
    /// slot read and the journal scan.
    fn raw_disk_read(&mut self, disk: usize, block: usize) -> Result<Vec<u8>, DiskError> {
        let mut buf = vec![0u8; self.block_size];
        self.with_retries(|backend| backend.read_block(disk, block, &mut buf))?;
        Ok(buf)
    }

    /// The array's one retry loop: run `io` until it succeeds, fails
    /// for good, or exhausts [`RetryPolicy::max_retries`], charging each
    /// retry and its backoff to the stats.
    fn with_retries(
        &mut self,
        mut io: impl FnMut(&mut B) -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        let mut attempt = 0usize;
        loop {
            match io(&mut self.backend) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_retryable() && attempt < self.policy.max_retries => {
                    self.stats.retries += 1;
                    self.stats.backoff_us = self
                        .stats
                        .backoff_us
                        .saturating_add(self.policy.backoff_us(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Write one cell's content where possible and record `crc`, its
    /// expected CRC, everywhere. A failed slot keeps only the CRC (the content is
    /// implied by parity and materializes at rebuild); a hard write error
    /// is recorded but not surfaced — parity still protects the data, and
    /// the stale on-medium block is caught by checksum at next read.
    /// Returns whether the medium was actually written (so the journaled
    /// path knows which disks to flush).
    fn store_cell(&mut self, stripe: usize, cell: Cell, data: &[u8], crc: u32) -> bool {
        let slot = self.slot_of(stripe, cell.col);
        let block = self.block_of(stripe, cell.row);
        self.crc[slot][block] = crc;
        if !self.slot_serves_stripe(slot, stripe) {
            return false;
        }
        match self.write_raw(slot, block, data) {
            Ok(()) => true,
            Err(e) => {
                self.note_hard_error(slot, &e);
                false
            }
        }
    }

    /// Scan every record slot, discard torn records, and re-apply
    /// committed ones in sequence order — the mount-time half of the
    /// write-hole protocol. Runs before the CRC table is seeded, so all
    /// I/O here is raw.
    fn journal_replay(&mut self) -> Result<ReplaySummary, DiskError> {
        let Some(spec) = self.journal.clone() else {
            return Ok(ReplaySummary::default());
        };
        let bs = self.block_size;
        let mut summary = ReplaySummary::default();
        let mut live: Vec<(usize, IntentRecord)> = Vec::new();
        for disk in 0..spec.disks {
            summary.scanned += 1;
            let mut header = vec![0u8; spec.header_blocks * bs];
            let mut readable = true;
            for hb in 0..spec.header_blocks {
                match self.raw_disk_read(disk, spec.header_start() + hb) {
                    Ok(buf) => header[hb * bs..(hb + 1) * bs].copy_from_slice(&buf),
                    Err(_) => {
                        readable = false;
                        break;
                    }
                }
            }
            if !readable {
                summary.discarded += 1;
                continue;
            }
            match IntentRecord::decode_header(&header, &spec) {
                SlotHeader::Empty => {}
                SlotHeader::Tombstone(seq) => self.jseq = self.jseq.max(seq.wrapping_add(1)),
                SlotHeader::Torn => {
                    summary.discarded += 1;
                    self.discard_slot(disk, &spec);
                }
                SlotHeader::Record(mut rec) => {
                    self.jseq = self.jseq.max(rec.seq.wrapping_add(1));
                    if self.load_record_payload(disk, &spec, &mut rec)
                        && self.record_in_bounds(&rec)
                    {
                        live.push((disk, rec));
                    } else {
                        summary.discarded += 1;
                        self.discard_slot(disk, &spec);
                    }
                }
            }
        }
        // Apply in commit order. A write call commits a round of up to
        // one record a slot before it stores any stripe, so a crash
        // mid-call can leave several live, over disjoint stripes.
        live.sort_by_key(|(_, r)| r.seq);
        let mut degraded = false;
        for (disk, rec) in live {
            degraded |= self.apply_record(&rec);
            self.journal_retire(Some(disk), rec.seq);
            summary.replayed += 1;
        }
        summary.outcome = if degraded {
            ReplayOutcome::Degraded
        } else if summary.replayed > 0 {
            ReplayOutcome::Replayed
        } else {
            ReplayOutcome::Clean
        };
        Ok(summary)
    }

    /// Tombstone a slot holding a torn or invalid record so the next
    /// mount does not re-scan it.
    fn discard_slot(&mut self, disk: usize, spec: &JournalSpec) {
        let tomb = IntentRecord::encode_tombstone(0, self.block_size);
        if self
            .raw_disk_write(disk, spec.header_start(), &tomb)
            .is_ok()
        {
            let _ = self.backend.flush(disk);
        }
    }

    /// Read a decoded record's payload blocks into its placeholder
    /// entries, each verified against the CRC its own entry carries (which
    /// the header CRC has already vouched for). `false` if any block is
    /// unreadable or differs.
    fn load_record_payload(
        &mut self,
        disk: usize,
        spec: &JournalSpec,
        rec: &mut IntentRecord,
    ) -> bool {
        let by_value = rec.entries.iter_mut().filter(|e| e.payload.is_some());
        for (block, e) in (spec.payload_start()..).zip(by_value) {
            match self.raw_disk_read(disk, block) {
                Ok(buf) if self.hash(&buf) == e.crc => e.payload = Some(buf),
                _ => return false,
            }
        }
        true
    }

    /// Structural validation of a decoded record against this array's
    /// geometry — a record from a mismatched mount must be discarded, not
    /// panicked on.
    fn record_in_bounds(&self, rec: &IntentRecord) -> bool {
        let run = match rec.mode {
            RecordMode::Resync { stripes } => stripes,
            RecordMode::ParityIntent | RecordMode::Redo => 1,
        };
        rec.stripe
            .checked_add(run)
            .is_some_and(|end| end <= self.n_stripes)
            && rec.entries.iter().all(|e| {
                let payload_ok = match &e.payload {
                    Some(p) => p.len() == self.block_size,
                    None => true,
                };
                e.cell.row < self.rows() && e.cell.col < self.layout.disks() && payload_ok
            })
    }

    /// Re-apply one committed record. Idempotent: records carry content
    /// (or content CRCs), never deltas. Returns whether the replay had to
    /// degrade (unverifiable data cells, unwritable disks).
    fn apply_record(&mut self, rec: &IntentRecord) -> bool {
        let mut degraded = false;
        let to_write: Vec<(Cell, Vec<u8>)> = match rec.mode {
            // Resync: re-encode each named stripe from the data on disk.
            RecordMode::Resync { stripes } => {
                for stripe in rec.stripe..rec.stripe + stripes {
                    degraded |= self.resync_stripe(stripe);
                }
                return degraded;
            }
            // Redo: force every journaled block. Failed slots are skipped
            // (their content is implied by the parity being forced here).
            RecordMode::Redo => rec
                .entries
                .iter()
                .filter_map(|e| e.payload.clone().map(|p| (e.cell, p)))
                .collect(),
            // ParityIntent: decide between the journaled parity and a
            // recompute by checking the on-disk data cells.
            RecordMode::ParityIntent => {
                let mut all_match = true;
                let mut unreadable = false;
                for e in rec.entries.iter().filter(|e| e.payload.is_none()) {
                    let slot = self.slot_of(rec.stripe, e.cell.col);
                    let block = self.block_of(rec.stripe, e.cell.row);
                    if self.state[slot] != SlotState::Healthy {
                        unreadable = true;
                        continue;
                    }
                    match self.read_raw(slot, block) {
                        Ok(buf) => {
                            if self.hash(&buf) != e.crc {
                                all_match = false;
                            }
                        }
                        Err(_) => unreadable = true,
                    }
                }
                let journaled: Vec<(Cell, Vec<u8>)> = rec
                    .entries
                    .iter()
                    .filter_map(|e| e.payload.clone().map(|p| (e.cell, p)))
                    .collect();
                if all_match || unreadable {
                    // All data landed before the crash (write the parity
                    // the record intended), or we cannot tell (write it
                    // anyway and report the mount degraded).
                    degraded |= unreadable;
                    journaled
                } else {
                    // The crash interrupted the data writes. The stripe
                    // holds a mix of old and new data — both fine, the
                    // write was never acknowledged — so make the parity
                    // match whatever is actually there.
                    let parity: Vec<Cell> = journaled.iter().map(|&(c, _)| c).collect();
                    match self.recompute_parity(rec.stripe, &parity) {
                        Some(fresh) => fresh,
                        None => {
                            degraded = true;
                            journaled
                        }
                    }
                }
            }
        };
        degraded | self.write_replayed(rec.stripe, to_write)
    }

    /// Write replayed cells of `stripe` where their slot is not failed,
    /// then flush the disks written. Returns whether a write failed.
    fn write_replayed(&mut self, stripe: usize, cells: Vec<(Cell, Vec<u8>)>) -> bool {
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        let mut failed = false;
        for (cell, content) in cells {
            let slot = self.slot_of(stripe, cell.col);
            if self.state[slot] == SlotState::Failed {
                continue;
            }
            let block = self.block_of(stripe, cell.row);
            // No CRC is stored: the attach reseeds the table from the
            // medium once replay is done.
            if self.write_raw(slot, block, &content).is_ok() {
                touched.insert(self.slot_to_disk[slot]);
            } else {
                failed = true;
            }
        }
        for disk in touched {
            let _ = self.backend.flush(disk);
        }
        failed
    }

    /// Replay a resync record over `stripe`: re-encode every parity from
    /// the data on disk and write it. A data cell that does not read — its
    /// slot failed, or the read errors — is first rebuilt through parity
    /// from the rest of the stripe. Nothing in the stripe was live when
    /// the record was committed, so any value the rebuild gives a torn
    /// stripe's lost cell will do; what matters is that every parity then
    /// matches one set of data, so a later write into the stripe folds
    /// into a consistent parity. Returns whether the replay had to
    /// degrade: a cell rebuilt, a stripe beyond the code's tolerance (left
    /// as it is), or a parity write that failed.
    fn resync_stripe(&mut self, stripe: usize) -> bool {
        let parity: Vec<Cell> = self.layout.parity_cells().collect();
        let data: Vec<Cell> = self.layout.data_cells().to_vec();
        let mut scratch = Stripe::zeroed(&self.layout, self.block_size);
        let mut lost: BTreeSet<usize> = BTreeSet::new();
        self.read_raw_into(stripe, &data, &mut scratch, &mut lost);
        let rebuilt = !lost.is_empty();
        if rebuilt {
            self.read_raw_into(stripe, &parity, &mut scratch, &mut lost);
            let lost: Vec<usize> = lost.into_iter().collect();
            if dcode_codec::recover_columns(&self.layout, &mut scratch, &lost).is_err() {
                return true;
            }
        }
        self.schedules
            .encode_program(&self.layout)
            .run(&mut scratch);
        let fresh = parity.iter().map(|&c| (c, scratch.snapshot(c))).collect();
        self.write_replayed(stripe, fresh) | rebuilt
    }

    /// Recompute the cells `parity` of `stripe` from the data actually on
    /// disk. `None` if any data cell cannot be read directly.
    fn recompute_parity(&mut self, stripe: usize, parity: &[Cell]) -> Option<Vec<(Cell, Vec<u8>)>> {
        let mut scratch = Stripe::zeroed(&self.layout, self.block_size);
        let mut lost: BTreeSet<usize> = BTreeSet::new();
        let data: Vec<Cell> = self.layout.data_cells().to_vec();
        self.read_raw_into(stripe, &data, &mut scratch, &mut lost);
        if !lost.is_empty() {
            return None;
        }
        self.schedules
            .encode_program(&self.layout)
            .run(&mut scratch);
        Some(parity.iter().map(|&c| (c, scratch.snapshot(c))).collect())
    }

    /// Read `cells` of `stripe` from the medium into `scratch`, unchecked
    /// (replay runs before the CRC table is seeded), and add to `lost`
    /// the column of each that does not read: its slot is not healthy, or
    /// the read fails.
    fn read_raw_into(
        &mut self,
        stripe: usize,
        cells: &[Cell],
        scratch: &mut Stripe,
        lost: &mut BTreeSet<usize>,
    ) {
        for &cell in cells {
            let slot = self.slot_of(stripe, cell.col);
            let read = match self.state[slot] {
                SlotState::Healthy => self.read_raw(slot, self.block_of(stripe, cell.row)).ok(),
                _ => None,
            };
            match read {
                Some(buf) => scratch.block_mut(cell).copy_from_slice(&buf),
                None => {
                    lost.insert(cell.col);
                }
            }
        }
    }

    /// Persist the journal's mount state (mount counter + last replay
    /// summary) to disk 0's state block. Best-effort: the state block is
    /// reporting, not correctness.
    fn journal_write_state(&mut self, summary: ReplaySummary) {
        let Some(spec) = self.journal.clone() else {
            return;
        };
        let block = spec.state_block();
        let mounts = self
            .raw_disk_read(0, block)
            .ok()
            .and_then(|buf| JournalState::decode(&buf))
            .map_or(0, |s| s.mounts);
        let state = JournalState {
            mounts: mounts + 1,
            last: summary,
        };
        let buf = state.encode(self.block_size);
        if self.raw_disk_write(0, block, &buf).is_ok() {
            let _ = self.backend.flush(0);
        }
    }

    /// Advance the rebuild by whole stripes until at least `max_blocks`
    /// blocks have been written to spares — at least one stripe per call.
    /// Each pass takes the slot(s) with the lowest watermark: slots
    /// standing at the same stripe are reconstructed together from one
    /// read of the survivors, and a slot that started later (a failure
    /// mid-rebuild) catches up first and is joined from there on.
    /// Returns `true` when no rebuild remains active (completed, aborted,
    /// or none was running). Interleave with reads/writes: a slot serves
    /// stripe `s` iff `s` is below its watermark, so every read is correct
    /// mid-rebuild.
    pub fn rebuild_step(&mut self, max_blocks: usize) -> Result<bool, ArrayError> {
        let mut written = 0;
        while let Some(stripe) = self.rebuilds.iter().map(|r| r.next_stripe).min() {
            let before = self.stats.rebuilt_blocks;
            let advanced = self.rebuild_stripe(stripe)?;
            written += (self.stats.rebuilt_blocks - before) as usize;
            // A spare that refused a write retries its stripe next call.
            if !advanced || written >= max_blocks {
                break;
            }
        }
        Ok(self.rebuilds.is_empty())
    }

    /// One survivor pass: reconstruct `stripe` for every rebuild standing
    /// at it and move their watermarks past it. Only the survivors read
    /// are hashed (to verify them); each rebuilt block's CRC is derived
    /// from theirs by [`fetch_unrepaired`](ResilientArray::fetch_unrepaired),
    /// so an executor that produced wrong bytes is a checksum catch on
    /// the next read rather than a fresh hash that blesses them. Returns
    /// whether every one of them advanced.
    fn rebuild_stripe(&mut self, stripe: usize) -> Result<bool, ArrayError> {
        let at_stripe = |r: &&Rebuild| r.next_stripe == stripe;
        let slots: Vec<usize> = self
            .rebuilds
            .iter()
            .filter(at_stripe)
            .map(|r| r.slot)
            .collect();
        let grid = self.layout.grid();
        let lost = slots
            .iter()
            .flat_map(|&s| grid.column(self.col_of(stripe, s)));
        let wanted: BTreeSet<Cell> = lost.collect();
        let reads_before = self.cell_reads;
        // Every wanted cell lies on a rebuilding slot, which read-repair
        // never writes, so the unrepaired fetch is the whole fetch.
        let (scratch, derived) = self.fetch_unrepaired(stripe, &wanted, false)?;
        self.stats.rebuild_read_blocks += self.cell_reads - reads_before;
        self.stats.rebuild_stripes += 1;
        self.stats.joint_rebuild_stripes += u64::from(slots.len() > 1);

        let mut all_advanced = true;
        for slot in slots {
            let col = self.col_of(stripe, slot);
            let stored = grid.column(col).try_for_each(|cell| {
                let block = self.block_of(stripe, cell.row);
                self.write_raw(slot, block, scratch.block(cell))?;
                self.crc[slot][block] = derived[&cell];
                self.stats.rebuilt_blocks += 1;
                Ok(())
            });
            if let Err(e) = stored {
                // The spare itself is misbehaving. A hard failure aborts
                // this rebuild (and may chain onto the next spare); a
                // transient exhaustion leaves the watermark where it is.
                self.note_hard_error(slot, &e);
                all_advanced = false;
                continue;
            }
            let i = self.rebuilds.iter().position(|r| r.slot == slot);
            let i = i.expect("a slot that stored its stripe is still rebuilding");
            self.rebuilds[i].next_stripe += 1;
            if self.rebuilds[i].next_stripe == self.n_stripes {
                self.rebuilds.remove(i);
                self.state[slot] = SlotState::Healthy;
                self.errors[slot] = 0;
                self.stats.rebuilds_completed += 1;
            }
        }
        Ok(all_advanced)
    }

    /// One full read-verify pass over every cell of every stripe — data
    /// *and* parity. Checksum mismatches and bad sectors surface as
    /// degraded reads and are repaired in place by the read-repair path.
    /// Every stripe read fully *direct* additionally gets its parity
    /// recomputed from the data and compared block for block — the check
    /// for what the CRC layer cannot see after an attach reseeded the CRCs
    /// from the medium: a block that rotted while the array was down, or a
    /// write hole. A stripe that disagrees goes to [`scrub_stripe`]: the
    /// one cell, or the unique pair in two columns, whose equations are
    /// exactly the failing ones is recomputed from the rest and stored
    /// back (data or parity) and its disk flushed. A syndrome that pins
    /// nothing down is *ambiguous*: the stripe is counted and nothing is
    /// written — rewriting parity over unlocated damage would make the
    /// damage permanent. The summary reports what the pass found, as
    /// deltas of the array's counters. This is what a scrubbing server
    /// runs against each shard.
    pub fn scrub_pass(&mut self) -> Result<ScrubSummary, ArrayError> {
        self.scrub(true)
    }

    /// [`scrub_pass`](ResilientArray::scrub_pass) without the repairs:
    /// the same reads and diagnosis, but no located cell is stored and no
    /// reconstructed cell read-repaired — the pass issues no write at all.
    pub fn scrub_dry_run(&mut self) -> Result<ScrubSummary, ArrayError> {
        self.scrub(false)
    }

    fn scrub(&mut self, repair: bool) -> Result<ScrubSummary, ArrayError> {
        let before = self.stats.clone();
        let all_cells: BTreeSet<Cell> = self
            .layout
            .data_cells()
            .iter()
            .copied()
            .chain(self.layout.parity_cells())
            .collect();
        let parity_cells: Vec<Cell> = self.layout.parity_cells().collect();
        let mut summary = ScrubSummary {
            stripes: self.n_stripes,
            ..ScrubSummary::default()
        };
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for stripe in 0..self.n_stripes {
            let degraded_before = self.stats.degraded_reads;
            let (mut scratch, _) = if repair {
                self.fetch_cells(stripe, &all_cells, true)?
            } else {
                self.fetch_unrepaired(stripe, &all_cells, true)?
            };
            // Parity is only *verifiable* when every cell came straight
            // off the medium: a degraded fetch reconstructs the missing
            // cells *from* the parity, so recomputing it back would be
            // circular and trivially clean.
            let direct = self.stats.degraded_reads == degraded_before
                && (0..self.layout.disks()).all(|s| self.slot_serves_stripe(s, stripe));
            if !direct {
                continue;
            }
            summary.parity_checked += 1;
            let was: Vec<(Cell, Vec<u8>)> = parity_cells
                .iter()
                .map(|&c| (c, scratch.snapshot(c)))
                .collect();
            self.schedules
                .encode_program(&self.layout)
                .run(&mut scratch);
            let differs = |(cell, old): &&(Cell, Vec<u8>)| scratch.block(*cell) != &old[..];
            let mismatches = was.iter().filter(differs).count() as u64;
            if mismatches == 0 {
                continue;
            }
            summary.parity_mismatches += mismatches;
            // Back to what the medium holds, for the localizer.
            for (cell, old) in &was {
                scratch.block_mut(*cell).copy_from_slice(old);
            }
            let located = match scrub_stripe(&self.layout, &mut scratch) {
                ScrubReport::Repaired { cell } => vec![cell],
                ScrubReport::RepairedPair { cells } => cells.to_vec(),
                ScrubReport::Ambiguous | ScrubReport::Clean => {
                    summary.ambiguous_stripes += 1;
                    continue;
                }
            };
            summary.located_cells += located.len() as u64;
            if !repair {
                continue;
            }
            for cell in located {
                let fixed = scratch.block(cell);
                let crc = self.hash(fixed);
                if self.store_cell(stripe, cell, fixed, crc) {
                    touched.insert(self.slot_to_disk[self.slot_of(stripe, cell.col)]);
                    summary.parity_repairs += u64::from(self.layout.kind(cell).is_parity());
                }
            }
        }
        for disk in touched {
            let _ = self.backend.flush(disk);
        }
        summary.checksum_catches = self.stats.checksum_catches - before.checksum_catches;
        summary.degraded_reads = self.stats.degraded_reads - before.degraded_reads;
        summary.read_repairs = self.stats.read_repairs - before.read_repairs;
        Ok(summary)
    }
}

/// What one [`ResilientArray::scrub_pass`] found and fixed.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct ScrubSummary {
    /// Stripes read end to end.
    pub stripes: usize,
    /// Silent corruptions caught by CRC during the pass.
    pub checksum_catches: u64,
    /// Stripes (fetches) that needed parity reconstruction.
    pub degraded_reads: u64,
    /// Blocks rewritten in place with reconstructed content.
    pub read_repairs: u64,
    /// Stripes whose parity was recomputed from data and compared (only
    /// stripes read fully direct are verifiable).
    pub parity_checked: u64,
    /// Parity blocks inconsistent with their stripe's data — rot the CRCs
    /// could not see, or a write hole.
    pub parity_mismatches: u64,
    /// Mismatched parity blocks rewritten with recomputed content: the
    /// located cells that were parity.
    pub parity_repairs: u64,
    /// Cells the syndrome of an inconsistent stripe located — one, or a
    /// unique pair in two columns — and a repairing pass stored back.
    pub located_cells: u64,
    /// Inconsistent stripes whose syndrome located nothing; no pass
    /// writes to them.
    pub ambiguous_stripes: u64,
}

impl<B: DiskBackend> ElementIo for ResilientArray<B> {
    fn capacity_elements(&self) -> usize {
        ResilientArray::capacity_elements(self)
    }

    fn element_size(&self) -> usize {
        self.block_size
    }

    fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
        self.read(start, count)
    }

    fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        self.write(start, bytes)
    }

    fn write_unshared(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        ResilientArray::write_unshared(self, start, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;
    use dcode_faults::{
        catch_crash, CountingBackend, FaultInjector, FaultPlan, MemBackend, SharedInjector,
    };

    fn mem_array(p: usize, stripes: usize, spares: usize) -> ResilientArray<MemBackend> {
        let layout = dcode(p).unwrap();
        let backend = MemBackend::new(layout.disks() + spares, stripes * layout.rows(), 16);
        ResilientArray::format(
            layout,
            16,
            stripes,
            RotationScheme::PerStripe,
            backend,
            RetryPolicy::default(),
            4,
        )
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn roundtrip_and_unaligned_reads() {
        let mut a = mem_array(5, 4, 0);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        let mid = a.read(11, 9).unwrap();
        assert_eq!(mid, &data[11 * 16..20 * 16]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut a = mem_array(5, 4, 0);
        let cap = a.capacity_elements();
        assert!(matches!(a.read(cap, 1), Err(ArrayError::OutOfRange { .. })));
        assert!(a.read(cap - 1, 1).is_ok());
        assert!(matches!(
            a.read(cap - 1, 2),
            Err(ArrayError::OutOfRange { .. })
        ));
        assert!(matches!(
            a.write(cap - 1, &[0u8; 32]),
            Err(ArrayError::OutOfRange { .. })
        ));
    }

    /// A range whose end overflows `usize` is out of range, in debug
    /// builds (where the addition would panic) and in release builds
    /// (where the wrapped end would pass the check and sizing the output
    /// buffer would panic).
    #[test]
    fn an_overflowing_range_is_out_of_range() {
        let mut a = mem_array(5, 4, 0);
        let cap = a.capacity_elements();
        for start in [2, cap - 1] {
            assert!(matches!(
                a.read_elements(start, usize::MAX),
                Err(ArrayError::OutOfRange { .. })
            ));
        }
        assert_eq!(a.read(cap - 1, 1).unwrap().len(), 16);
    }

    #[test]
    fn failing_a_failed_slot_is_rejected() {
        let mut a = mem_array(5, 4, 0);
        a.fail_disk(0).unwrap();
        assert!(matches!(
            a.fail_disk(0),
            Err(ArrayError::BadDiskState { disk: 0 })
        ));
        // No spare to rebuild onto: a step has nothing to do and says so.
        assert!(a.rebuild_step(8).unwrap());
        assert_eq!(a.failed_slots(), [0]);
    }

    #[test]
    fn in_memory_constructor_carries_spares_for_a_double_failure() {
        let mut a = ResilientArray::new(dcode(5).unwrap(), 16, 4, RotationScheme::PerStripe);
        assert_eq!(a.spares_remaining(), 2);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        a.fail_disk(0).unwrap();
        a.fail_disk(3).unwrap();
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        while !a.rebuild_step(8).unwrap() {}
        assert!(a.slot_states().iter().all(|&s| s == SlotState::Healthy));
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        let scrub = a.scrub_pass().unwrap();
        assert_eq!((scrub.parity_checked, scrub.parity_mismatches), (4, 0));
    }

    #[test]
    fn checksum_catch_converts_rot_into_degraded_read_and_repairs() {
        let mut a = mem_array(5, 3, 0);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        // Rot a byte on the medium beneath the checksums.
        let disk = a.slot_disk(1);
        a.backend_mut().disk_bytes_mut(disk)[5] ^= 0x40;
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        assert_eq!(a.stats().checksum_catches, 1);
        assert_eq!(a.stats().degraded_reads, 1);
        assert_eq!(a.stats().read_repairs, 1);
        // The repair rewrote the block: a second pass is clean.
        let catches = a.stats().checksum_catches;
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        assert_eq!(a.stats().checksum_catches, catches);
    }

    #[test]
    fn pair_rot_in_partially_corrupt_columns_returns_clean_data() {
        // Two rotten blocks on different disks force a two-column erasure
        // whose columns still hold correctly-read, wanted survivors. The
        // read returns those survivors from the scratch stripe the
        // recovery subprogram ran over, so nothing the program writes may
        // leave foreign bytes in them — the shape that once leaked a
        // foreign tenant's bytes into an RDP read.
        let layout = dcode_baselines::registry::build(dcode_baselines::CodeId::Rdp, 13).unwrap();
        let backend = MemBackend::new(layout.disks(), layout.rows(), 16);
        let mut a = ResilientArray::format(
            layout,
            16,
            1,
            RotationScheme::None,
            backend,
            RetryPolicy::default(),
            4,
        );
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        // Rot the deepest data block of the first two columns that carry
        // at least two data cells each (so each erased column keeps wanted
        // survivors, and the recovery chain runs through the other erased
        // column's cells). RotationScheme::None maps column -> disk,
        // row -> block.
        let grid = a.layout().grid();
        let mut hit = Vec::new();
        for col in 0..grid.cols {
            let data_cells: Vec<Cell> = (0..grid.rows)
                .map(|row| Cell::new(row, col))
                .filter(|&c| a.layout().logical_of(c).is_some())
                .collect();
            if data_cells.len() >= 2 {
                hit.push(*data_cells.last().unwrap());
            }
            if hit.len() == 2 {
                break;
            }
        }
        assert_eq!(hit.len(), 2, "need two partially-corruptible columns");
        for cell in hit {
            a.backend_mut().disk_bytes_mut(cell.col)[cell.row * 16 + 3] ^= 0x01;
        }
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        assert_eq!(a.stats().checksum_catches, 2);
    }

    #[test]
    fn retries_exhaust_then_degrade() {
        let layout = dcode(5).unwrap();
        let mut plan = FaultPlan::quiet(11);
        plan.p_transient_read = 1.0; // every read fails, forever
        let backend =
            FaultInjector::new(MemBackend::new(layout.disks(), 2 * layout.rows(), 16), plan);
        let mut a = ResilientArray::format(
            layout,
            16,
            2,
            RotationScheme::None,
            backend,
            RetryPolicy {
                max_retries: 2,
                backoff_base_us: 100,
            },
            1000, // never auto-fail in this test
        );
        // With every disk refusing reads, recovery is impossible.
        assert!(a.read(0, 1).is_err());
        assert!(a.stats().retries >= 2);
        assert!(a.stats().backoff_us >= 300); // 100 + 200
    }

    #[test]
    fn pathological_retry_policy_saturates_instead_of_panicking() {
        // Regression: backoff accounting used `base << attempt`, which
        // panics in debug (wraps in release) once attempt reaches 64. A
        // user is free to configure max_retries ≥ 64; the charge must
        // saturate, not overflow.
        let layout = dcode(5).unwrap();
        let mut plan = FaultPlan::quiet(7);
        plan.p_transient_read = 1.0; // every read fails, forever
        let backend = FaultInjector::new(MemBackend::new(layout.disks(), layout.rows(), 16), plan);
        let mut a = ResilientArray::format(
            layout,
            16,
            1,
            RotationScheme::None,
            backend,
            RetryPolicy {
                max_retries: 80,
                backoff_base_us: u64::MAX / 2,
            },
            usize::MAX, // never auto-fail: drive every retry attempt
        );
        // Reads exhaust all 80 retries on every disk without panicking,
        // and the accumulated charge saturates rather than wrapping.
        assert!(a.read(0, 1).is_err());
        assert!(a.stats().retries >= 80);
        assert_eq!(a.stats().backoff_us, u64::MAX);

        // The per-attempt charge itself caps at u64::MAX past the width.
        let policy = RetryPolicy {
            max_retries: 100,
            backoff_base_us: 3,
        };
        assert_eq!(policy.backoff_us(0), 3);
        assert_eq!(policy.backoff_us(1), 6);
        assert_eq!(policy.backoff_us(63), u64::MAX); // 3 × 2^63 saturates
        assert_eq!(policy.backoff_us(64), u64::MAX);
        assert_eq!(policy.backoff_us(usize::MAX), u64::MAX);
    }

    #[test]
    fn threshold_auto_fails_and_attaches_spare() {
        let mut a = mem_array(5, 3, 1);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        // Corrupt many blocks of slot 2's disk: each read is a checksum
        // catch; past the threshold (4) the slot fails and the spare
        // attaches.
        let disk = a.slot_disk(2);
        let rows = a.layout().rows();
        for b in 0..3 * rows {
            a.backend_mut().disk_bytes_mut(disk)[b * 16] ^= 0xFF;
        }
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        assert_eq!(a.stats().auto_fails, 1);
        assert_eq!(a.stats().spares_attached, 1);
        assert_eq!(a.slot_states()[2], SlotState::Rebuilding);
        assert_eq!(a.slot_disk(2), 5); // remapped to the spare
                                       // Drive the rebuild home; everything is healthy and correct.
        while !a.rebuild_step(8).unwrap() {}
        assert_eq!(a.slot_states()[2], SlotState::Healthy);
        assert_eq!(a.stats().rebuilds_completed, 1);
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
    }

    #[test]
    fn reads_and_writes_served_mid_rebuild() {
        let mut a = mem_array(7, 6, 1);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        a.fail_disk(3).unwrap();
        assert_eq!(a.slot_states()[3], SlotState::Rebuilding);
        // Step the rebuild partway: the watermark sits inside the array.
        a.rebuild_step(a.layout().rows() * 2).unwrap();
        assert_eq!(a.rebuild_progress(), [(3, 2, 6)]);
        // Reads are correct both below and above the watermark.
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        // A write mid-rebuild lands correctly too.
        let patch = vec![0xABu8; 3 * 16];
        a.write(10, &patch).unwrap();
        while !a.rebuild_step(16).unwrap() {}
        let mut expect = data;
        expect[10 * 16..13 * 16].copy_from_slice(&patch);
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), expect);
    }

    #[test]
    fn steady_state_degraded_reads_stop_compiling() {
        let mut a = mem_array(7, 4, 0);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        a.fail_disk(2).unwrap();
        // Warm-up pass: every distinct (erasure, missing-set) pair this
        // workload can produce gets compiled and cached exactly once.
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        let warm = a.schedule_stats();
        assert!(warm.misses > 0, "warm-up should have compiled something");
        // Steady state: identical degraded reads are pure cache hits.
        for _ in 0..3 {
            assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        }
        let steady = a.schedule_stats();
        assert_eq!(
            steady.misses, warm.misses,
            "degraded reads kept compiling after warm-up"
        );
        assert!(steady.hits > warm.hits);
    }

    #[test]
    fn multi_stripe_writes_batch_through_the_pooled_encoder() {
        // A write spanning many stripes must land byte-identical to the
        // sequential path (the pooled batch encode is behaviorally
        // invisible), including while degraded.
        let mut a = mem_array(7, 8, 0);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap(); // spans all 8 stripes in one call
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        a.fail_disk(2).unwrap();
        let patch = payload(a.capacity_bytes() - 3 * 16);
        a.write(3, &patch).unwrap(); // unaligned, degraded, multi-stripe
        let mut expect = data;
        expect[3 * 16..].copy_from_slice(&patch);
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), expect);
    }

    #[test]
    fn scrub_pass_finds_and_repairs_rot_on_data_and_parity() {
        let mut a = mem_array(5, 4, 0);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        // Clean medium: a pass finds nothing.
        let clean = a.scrub_pass().unwrap();
        assert_eq!(clean.stripes, 4);
        assert_eq!(clean.checksum_catches, 0);
        assert_eq!(clean.read_repairs, 0);
        // Rot two blocks — one early (data region) and one in the last
        // row (parity rows live there for these codes).
        let disk = a.slot_disk(3);
        let rows = a.layout().rows();
        let bytes = a.backend_mut().disk_bytes_mut(disk);
        bytes[0] ^= 0x01;
        let last_block_off = (4 * rows - 1) * 16;
        bytes[last_block_off] ^= 0x80;
        let dirty = a.scrub_pass().unwrap();
        assert_eq!(dirty.checksum_catches, 2, "{dirty:?}");
        assert_eq!(dirty.read_repairs, 2, "{dirty:?}");
        // The repairs stuck: a third pass is clean and data is intact.
        let again = a.scrub_pass().unwrap();
        assert_eq!(again.checksum_catches, 0, "{again:?}");
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
    }

    #[test]
    fn degraded_writes_survive_double_failure() {
        let mut a = mem_array(7, 4, 0);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        a.fail_disk(1).unwrap();
        a.fail_disk(4).unwrap();
        let patch = vec![0x5Au8; 5 * 16];
        a.write(7, &patch).unwrap();
        let mut expect = data;
        expect[7 * 16..12 * 16].copy_from_slice(&patch);
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), expect);
        // A third failure is beyond RAID-6.
        a.fail_disk(0).unwrap();
        assert!(matches!(
            a.read(0, 1),
            Err(ArrayError::TooManyFailures { .. })
        ));
    }

    fn journaled_mem_array(p: usize, stripes: usize) -> ResilientArray<MemBackend> {
        let layout = dcode(p).unwrap();
        let extra = crate::journal::journal_blocks_per_disk(&layout, 32);
        let backend = MemBackend::new(layout.disks(), stripes * layout.rows() + extra, 32);
        ResilientArray::format_journaled(
            layout,
            32,
            stripes,
            RotationScheme::PerStripe,
            backend,
            RetryPolicy::default(),
            4,
        )
    }

    #[test]
    fn journaled_writes_roundtrip_and_count_records() {
        let mut a = journaled_mem_array(5, 3);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        // One record per touched stripe, all retired before write() acked.
        assert_eq!(a.stats().journal_records, 3);
        assert_eq!(a.stats().journal_retires, 3);
        assert_eq!(a.stats().journal_skips, 0);
        // The parity-verify scrub is clean on a consistent array.
        let scrub = a.scrub_pass().unwrap();
        assert_eq!(scrub.parity_checked, 3);
        assert_eq!(scrub.parity_mismatches, 0);
    }

    #[test]
    fn journaled_attach_replays_clean_shutdown_as_clean() {
        let layout = dcode(5).unwrap();
        let mut a = journaled_mem_array(5, 3);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        let backend = a.into_backend();
        let mut b = ResilientArray::attach_journaled(
            layout.clone(),
            32,
            3,
            RotationScheme::PerStripe,
            backend,
            RetryPolicy::default(),
            4,
        )
        .unwrap();
        let replay = b.last_replay().expect("journaled attach records replay");
        assert_eq!(replay.outcome, ReplayOutcome::Clean);
        assert_eq!(replay.replayed, 0);
        assert_eq!(replay.scanned as usize, layout.disks());
        assert_eq!(b.read(0, b.capacity_elements()).unwrap(), data);
        assert_eq!(b.stats().checksum_catches, 0, "seeded CRCs must match");
        assert_eq!(b.scrub_pass().unwrap().checksum_catches, 0);
        // The state block counted both mounts (format + attach).
        let spec = b.journal().unwrap().clone();
        let scan = crate::journal::scan_journal(b.backend_mut(), &spec);
        assert_eq!(scan.state.expect("state block").mounts, 2);
        assert!(scan.live.is_empty());
    }

    /// The medium of a three-stripe journaled array holding `payload`,
    /// with a committed `Redo` record planted in disk 1's record slot. The
    /// record rewrites stripe 0 with new, parity-consistent content,
    /// returned as the stripe's data elements in logical order.
    fn planted_redo() -> (MemBackend, JournalSpec, IntentRecord, Vec<u8>) {
        let mut a = journaled_mem_array(5, 3);
        a.write(0, &payload(a.capacity_bytes())).unwrap();
        let (layout, spec) = (a.layout().clone(), a.journal().unwrap().clone());
        let fresh: Vec<u8> = (0..layout.data_len() * 32)
            .map(|i| (i * 7 % 253) as u8)
            .collect();
        let mut stripe = Stripe::zeroed(&layout, 32);
        for (&cell, block) in layout.data_cells().iter().zip(fresh.chunks(32)) {
            stripe.block_mut(cell).copy_from_slice(block);
        }
        ScheduleCache::new()
            .encode_program(&layout)
            .run(&mut stripe);
        let cells = layout
            .data_cells()
            .iter()
            .copied()
            .chain(layout.parity_cells());
        let entries = cells
            .map(|cell| RecordEntry {
                cell,
                crc: crc32(stripe.block(cell)),
                payload: Some(stripe.snapshot(cell)),
            })
            .collect();
        let rec = IntentRecord {
            seq: 99,
            stripe: 0,
            mode: RecordMode::Redo,
            entries,
        };
        let mut medium = a.into_backend();
        for (k, e) in rec.payload_entries().enumerate() {
            let block = e.payload.as_deref().unwrap();
            medium
                .write_block(1, spec.payload_start() + k, block)
                .unwrap();
        }
        plant_header(&mut medium, &spec, &rec.encode_header(&spec));
        (medium, spec, rec, fresh)
    }

    fn plant_header(medium: &mut MemBackend, spec: &JournalSpec, header: &[u8]) {
        for (k, chunk) in header.chunks(spec.block_size).enumerate() {
            medium
                .write_block(1, spec.header_start() + k, chunk)
                .unwrap();
        }
    }

    fn attach_planted(medium: MemBackend) -> ResilientArray<MemBackend> {
        let layout = dcode(5).unwrap();
        let policy = RetryPolicy::default();
        let rotation = RotationScheme::PerStripe;
        ResilientArray::attach_journaled(layout, 32, 3, rotation, medium, policy, 4).unwrap()
    }

    /// `write_unshared` and `write` side by side over the same data:
    /// the same bytes, fetches and hashes, and the same number of records
    /// — but the stripe the range covers whole goes under a resync record
    /// instead of an intent record holding its parity.
    #[test]
    fn an_unshared_write_covers_its_whole_stripes_with_one_resync_record() {
        let twin = || {
            let mut a = journaled_mem_array(5, 3);
            let data = payload(a.capacity_bytes());
            a.write(0, &data).unwrap();
            (a.stats().clone(), a, data)
        };
        // Elements 10..35: the back of stripe 0, stripe 1 whole, the front
        // of stripe 2 (15 data elements a stripe).
        let new = vec![0xC3; 25 * 32];
        let (before, mut plain, data) = twin();
        plain.write(10, &new).unwrap();
        let (_, mut unshared, _) = twin();
        unshared.write_unshared(10, &new).unwrap();
        let (p, u) = (plain.stats().clone(), unshared.stats().clone());
        assert_eq!(p.write_fetch_blocks, u.write_fetch_blocks);
        assert_eq!(p.hashed_blocks, u.hashed_blocks);
        assert_eq!(p.journal_records - before.journal_records, 3);
        assert_eq!(u.journal_records, p.journal_records);
        assert_eq!(u.journal_retires, u.journal_records);
        assert_eq!((p.unshared_stripes, u.unshared_stripes), (0, 1));
        let mut want = data;
        want[10 * 32..35 * 32].copy_from_slice(&new);
        for a in [&mut plain, &mut unshared] {
            assert_eq!(a.read(0, a.capacity_elements()).unwrap(), want);
            let scrub = a.scrub_dry_run().unwrap();
            assert_eq!((scrub.checksum_catches, scrub.parity_mismatches), (0, 0));
        }
        // Degraded, every stripe takes its own intent record.
        unshared.fail_disk(1).unwrap();
        unshared.write_unshared(15, &[0x5A; 15 * 32]).unwrap();
        want[15 * 32..30 * 32].fill(0x5A);
        assert_eq!(unshared.read(0, 45).unwrap(), want);
        assert_eq!(unshared.stats().unshared_stripes, 1);
    }

    /// D-Code p = 5 has five record slots, one a disk. From the last
    /// element of stripe 0 to the first of stripe 5 a write is six
    /// segments: the back of stripe 0, stripes 1–4 whole, the front of
    /// stripe 5. Returns the start and the bytes.
    fn wide_write() -> (usize, Vec<u8>) {
        (14, (0..62 * 32).map(|i| (i * 13 % 241) as u8).collect())
    }

    /// A fresh seven-stripe journaled D-Code p = 5 array over `backend`,
    /// holding `payload`.
    fn seven_stripes<B: DiskBackend>(backend: B) -> ResilientArray<B> {
        let layout = dcode(5).unwrap();
        let mut a = ResilientArray::format_journaled(
            layout,
            32,
            7,
            RotationScheme::PerStripe,
            backend,
            RetryPolicy::default(),
            1_000_000,
        );
        a.write(0, &payload(a.capacity_bytes())).unwrap();
        a
    }

    fn seven_stripe_blocks() -> usize {
        let layout = dcode(5).unwrap();
        7 * layout.rows() + crate::journal::journal_blocks_per_disk(&layout, 32)
    }

    #[test]
    fn a_write_of_more_segments_than_slots_takes_two_rounds() {
        let backend = CountingBackend::new(MemBackend::new(5, seven_stripe_blocks(), 32));
        let mut a = seven_stripes(backend);
        a.backend_mut().reset();
        let before = a.stats().clone();
        let (start, new) = wide_write();
        a.write(start, &new).unwrap();
        let flushes: u64 = a.backend_mut().counts().flushes.iter().sum();
        // A round of five records: five commits, the five disks written,
        // five retires. Then a round of one: its commit, the disks of the
        // one-element segment's cell and two parities, its retire.
        assert_eq!(flushes, (5 + 5 + 5) + (1 + 3 + 1));
        let stats = a.stats();
        assert_eq!(stats.journal_records - before.journal_records, 6);
        assert_eq!(stats.journal_retires - before.journal_retires, 6);
        assert_eq!(stats.journal_skips, 0);
        let mut want = payload(a.capacity_bytes());
        want[start * 32..start * 32 + new.len()].copy_from_slice(&new);
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), want);
    }

    /// The wide write with disk 2 dead, in the backend and to the array:
    /// the record that would go to its slot probes on, so a round holds
    /// four records. Crashed at every write over a write-through medium,
    /// each live record sits in its own slot and every one replays.
    #[test]
    fn a_round_probes_past_a_refusing_journal_disk_and_replays_whole() {
        let fresh = || {
            let medium = MemBackend::new(5, seven_stripe_blocks(), 32);
            let handle = SharedInjector::new(FaultInjector::new(medium, FaultPlan::quiet(1)));
            let mut a = seven_stripes(handle.clone());
            handle.lock().fail_disk(2);
            a.fail_disk(2).unwrap();
            (a, handle)
        };
        let (start, new) = wide_write();
        let (mut a, handle) = fresh();
        let (records, before) = (a.stats().journal_records, handle.lock().writes_done());
        a.write(start, &new).unwrap();
        let writes = handle.lock().writes_done() - before;
        assert_eq!(a.stats().journal_records - records, 6);
        assert_eq!(a.stats().journal_skips, 0);
        let old = payload(a.capacity_bytes());
        let spec = a.journal().unwrap().clone();
        let mut most_live = 0;
        for n in 0..writes {
            let (mut a, handle) = fresh();
            handle.lock().arm_crash(n);
            assert!(catch_crash(|| a.write(start, &new)).is_none());
            handle.lock().power_cycle();
            let live = crate::journal::scan_journal(&mut handle.clone(), &spec).live;
            most_live = most_live.max(live.len());
            let topology = AttachTopology {
                slot_to_disk: (0..5).collect(),
                failed_slots: vec![2],
                spares: Vec::new(),
            };
            let mut b = ResilientArray::attach_journaled_as(
                dcode(5).unwrap(),
                32,
                7,
                RotationScheme::PerStripe,
                handle,
                RetryPolicy::default(),
                1_000_000,
                topology,
            )
            .unwrap();
            assert_eq!(b.last_replay().unwrap().replayed as usize, live.len());
            let got = b.read(0, b.capacity_elements()).unwrap();
            for (e, here) in got.chunks(32).enumerate() {
                let was = &old[e * 32..(e + 1) * 32];
                let is_new = (start..start + 62).contains(&e)
                    && here == &new[(e - start) * 32..(e - start + 1) * 32];
                assert!(here == was || is_new, "crash {n}: element {e}");
            }
            assert_eq!(b.scrub_pass().unwrap().parity_mismatches, 0, "crash {n}");
        }
        // A crash after the first round's commits finds all four live.
        assert_eq!(most_live, 4);
    }

    /// Plant a committed resync record for stripes 1 and 2 in disk 1's
    /// record slot.
    fn plant_resync(medium: &mut MemBackend, spec: &JournalSpec) {
        let rec = IntentRecord {
            seq: 99,
            stripe: 1,
            mode: RecordMode::Resync { stripes: 2 },
            entries: Vec::new(),
        };
        plant_header(medium, spec, &rec.encode_header(spec));
    }

    /// The data region of every disk of `medium`.
    fn data_region(medium: &mut MemBackend, spec: &JournalSpec) -> Vec<Vec<u8>> {
        let bytes = spec.data_blocks * spec.block_size;
        let disks = medium.disks();
        (0..disks)
            .map(|d| medium.disk_bytes_mut(d)[..bytes].to_vec())
            .collect()
    }

    /// A resync record left live past its write — its retire lost, the
    /// stripes since filled with live data — re-encodes parity that
    /// already matches the data: replay changes no byte.
    #[test]
    fn a_stale_resync_record_over_live_stripes_changes_no_byte() {
        let mut a = journaled_mem_array(5, 3);
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        let spec = a.journal().unwrap().clone();
        let mut medium = a.into_backend();
        plant_resync(&mut medium, &spec);
        let before = data_region(&mut medium, &spec);
        let mut b = attach_planted(medium);
        let replay = b.last_replay().unwrap();
        assert_eq!(
            (replay.replayed, replay.outcome),
            (1, ReplayOutcome::Replayed)
        );
        assert_eq!(data_region(b.backend_mut(), &spec), before);
        assert_eq!(b.read(0, b.capacity_elements()).unwrap(), data);
    }

    /// A crash inside an unshared write leaves a stripe whose data and
    /// parity disagree; the resync record makes them agree again.
    #[test]
    fn a_resync_record_reencodes_a_torn_stripe() {
        let torn = || {
            let mut a = journaled_mem_array(5, 3);
            a.write(0, &payload(a.capacity_bytes())).unwrap();
            let (layout, spec) = (a.layout().clone(), a.journal().unwrap().clone());
            let mut medium = a.into_backend();
            // Element 33, a data cell of stripe 2, landed; its parities
            // did not.
            let cell = layout.data_cells()[3];
            let slot = RotationScheme::PerStripe.to_physical(2, cell.col, layout.disks());
            let at = (2 * layout.rows() + cell.row) * 32;
            medium.disk_bytes_mut(slot)[at..at + 32].fill(0xEE);
            (medium, spec)
        };
        let (medium, _) = torn();
        let mut unjournaled = attach_planted(medium);
        assert!(unjournaled.scrub_dry_run().unwrap().parity_mismatches > 0);

        let (mut medium, spec) = torn();
        plant_resync(&mut medium, &spec);
        let mut b = attach_planted(medium);
        assert_eq!(b.last_replay().unwrap().replayed, 1);
        let mut want = payload(b.capacity_bytes());
        want[33 * 32..34 * 32].fill(0xEE);
        assert_eq!(b.read(0, b.capacity_elements()).unwrap(), want);
        let scrub = b.scrub_dry_run().unwrap();
        assert_eq!((scrub.checksum_catches, scrub.parity_mismatches), (0, 0));
    }

    /// A torn stripe under a resync record, remounted with one of its
    /// data slots failed: replay rebuilds the failed slot's cells through
    /// parity and re-encodes every parity from them, so the stripe is
    /// consistent — whatever the lost cells now read as — where without
    /// the rebuild it would stay torn.
    #[test]
    fn a_resync_replay_rebuilds_a_failed_slot_before_reencoding() {
        let layout = dcode(5).unwrap();
        let rotation = RotationScheme::PerStripe;
        let torn = |planted: bool| {
            let mut a = journaled_mem_array(5, 3);
            a.write(0, &payload(a.capacity_bytes())).unwrap();
            let spec = a.journal().unwrap().clone();
            let mut medium = a.into_backend();
            let cell = layout.data_cells()[3];
            let slot = rotation.to_physical(2, cell.col, layout.disks());
            let at = (2 * layout.rows() + cell.row) * 32;
            medium.disk_bytes_mut(slot)[at..at + 32].fill(0xEE);
            if planted {
                plant_resync(&mut medium, &spec);
            }
            // A data column of stripe 2 other than the torn cell's is lost.
            let other = layout.data_cells().iter().find(|c| c.col != cell.col);
            let lost = rotation.to_physical(2, other.unwrap().col, layout.disks());
            let topology = AttachTopology {
                slot_to_disk: (0..layout.disks()).collect(),
                failed_slots: vec![lost],
                spares: Vec::new(),
            };
            let policy = RetryPolicy::default();
            let mut medium = ResilientArray::attach_journaled_as(
                layout.clone(),
                32,
                3,
                rotation,
                medium,
                policy,
                4,
                topology,
            )
            .unwrap()
            .into_backend();
            // Stripe 2 as the medium holds it, the lost slot rebuilt
            // through parity: do its parities match its data?
            let mut stripe = Stripe::zeroed(&layout, 32);
            let cells = layout.data_cells().iter().copied();
            for c in cells.chain(layout.parity_cells()) {
                let slot = rotation.to_physical(2, c.col, layout.disks());
                let at = (2 * layout.rows() + c.row) * 32;
                let bytes = &medium.disk_bytes_mut(slot)[at..at + 32];
                stripe.block_mut(c).copy_from_slice(bytes);
            }
            let col = rotation.to_logical(2, lost, layout.disks());
            dcode_codec::recover_columns(&layout, &mut stripe, &[col]).unwrap();
            dcode_codec::verify_parities(&layout, &stripe)
        };
        assert!(!torn(false), "an unreplayed tear stays torn");
        assert!(torn(true), "the resync replay leaves the stripe consistent");
    }

    /// Replay checks every payload block against its own entry's CRC: a
    /// record whose header is intact over one rotted payload block is
    /// discarded, and the stripe keeps what it held.
    #[test]
    fn a_rotted_journal_payload_block_discards_its_record() {
        let (mut medium, spec, _, _) = planted_redo();
        medium.disk_bytes_mut(1)[(spec.payload_start() + 3) * 32 + 5] ^= 0x10;
        let mut b = attach_planted(medium);
        let replay = b.last_replay().unwrap();
        assert_eq!((replay.replayed, replay.discarded), (0, 1), "{replay:?}");
        let data = payload(b.capacity_bytes());
        assert_eq!(b.read(0, b.capacity_elements()).unwrap(), data);
        let scrub = b.scrub_pass().unwrap();
        assert_eq!((scrub.checksum_catches, scrub.parity_mismatches), (0, 0));
    }

    /// Earlier versions wrote a CRC over the whole payload into header
    /// bytes 23..27. Such a record, left live by a crash, still replays.
    #[test]
    fn an_old_record_with_a_whole_payload_checksum_still_replays() {
        use crate::journal::{ENTRY_BYTES, HEADER_FIXED};
        let (mut medium, spec, rec, fresh) = planted_redo();
        let mut header = rec.encode_header(&spec);
        let whole: Vec<u8> = rec
            .payload_entries()
            .flat_map(|e| e.payload.clone().unwrap())
            .collect();
        header[23..27].copy_from_slice(&crc32(&whole).to_le_bytes());
        let end = HEADER_FIXED + ENTRY_BYTES * rec.entries.len();
        let crc = crc32(&header[..end]);
        header[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        plant_header(&mut medium, &spec, &header);
        let mut b = attach_planted(medium);
        let replay = b.last_replay().unwrap();
        assert_eq!((replay.replayed, replay.discarded), (1, 0), "{replay:?}");
        let mut want = payload(b.capacity_bytes());
        want[..fresh.len()].copy_from_slice(&fresh);
        assert_eq!(b.read(0, b.capacity_elements()).unwrap(), want);
        let scrub = b.scrub_pass().unwrap();
        assert_eq!((scrub.checksum_catches, scrub.parity_mismatches), (0, 0));
    }

    #[test]
    fn sector_failure_degrades_only_that_element() {
        let layout = dcode(5).unwrap();
        let plan = FaultPlan::quiet(3);
        let backend =
            FaultInjector::new(MemBackend::new(layout.disks(), 3 * layout.rows(), 16), plan);
        let mut a = ResilientArray::format(
            layout,
            16,
            3,
            RotationScheme::None,
            backend,
            RetryPolicy::default(),
            100, // high threshold: the slot must NOT fail
        );
        let data = payload(a.capacity_bytes());
        a.write(0, &data).unwrap();
        // Kill one sector on disk 0.
        a.backend_mut().mint_bad_sector(0, 0);
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        assert_eq!(a.stats().degraded_reads, 1);
        assert_eq!(a.slot_states()[0], SlotState::Healthy);
        // Read-repair rewrote the sector (remap-on-write): clean now.
        let degraded = a.stats().degraded_reads;
        assert_eq!(a.read(0, a.capacity_elements()).unwrap(), data);
        assert_eq!(a.stats().degraded_reads, degraded);
    }
}
