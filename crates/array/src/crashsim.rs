//! Exhaustive crash-point harness: every write-path operation, crashed at
//! **every** backend-write index, remounted, and verified.
//!
//! The journal ([`crate::journal`]) claims that a crash at any instant
//! leaves the array recoverable: mount-time replay produces a state where
//! no acknowledged write is lost and no stripe's parity disagrees with
//! its data. This module *checks that claim by enumeration* instead of
//! sampling: for each operation in [`CrashOp::ALL`] it first dry-runs the
//! op to count its backend writes, then re-runs it once per write index
//! `n`, arming [`FaultInjector::arm_crash`]`(n)` so the power goes out
//! exactly before the `n`-th write lands. The medium is power-cycled
//! (dropping writes still in the volatile cache, when enabled), remounted
//! through the journaled attach, and verified:
//!
//! * every element the op did not touch still holds its pre-op content
//!   (an acknowledged write survived the crash);
//! * every element the op touched holds either its old or its new content
//!   (the un-acknowledged write is allowed to be partially visible, but
//!   only with whole-element granularity and consistent parity);
//! * a [`scrub_pass`](crate::ResilientArray::scrub_pass) reports zero
//!   parity mismatches (no write hole).
//!
//! The `store-*` ops lift the same enumeration one layer, to the layer
//! that acknowledges a client: they drive an [`ObjectStore`] over the
//! journaled array and crash before every backend write of a put, an
//! overwrite, a delete, a put whose record fills its index page to the
//! last byte, a put and an overwrite of values that cover a stripe
//! whole (written under one resync record), and two overwrites that keep
//! the value's length: of one element, written in place, and of two,
//! copy-on-write. After the
//! remount the index must open (every page parses, no two extents
//! overlap), every object the op did not name reads its acknowledged
//! bytes, the op's own key reads its last acknowledged state or the
//! in-flight one and nothing else, and the scrub is clean.
//!
//! Each scenario is rebuilt from scratch deterministically per crash
//! index, so any failure is replayable from `(op, crash index, seed)` —
//! which is exactly what a [`CrashFailure`] records.
//!
//! The harness also tests *itself*: run with a planted
//! [`JournalMutation`] the sweep must **find** failures ([`passed`]
//! inverts), proving the oracle can see the hole it claims to close.
//!
//! [`FaultInjector::arm_crash`]: dcode_faults::FaultInjector::arm_crash
//! [`passed`]: CrashSweepReport::passed

use crate::journal::journal_blocks_per_disk;
use crate::objstore::{ObjectStore, StoreError};
use crate::resilient::{
    AttachTopology, JournalMutation, ResilientArray, ResilientStats, RetryPolicy,
};
use crate::rotation::RotationScheme;
use dcode_core::layout::CodeLayout;
use dcode_faults::{catch_crash, FaultInjector, FaultPlan, MemBackend, SharedInjector};
use std::collections::BTreeMap;

/// The write-path operations the sweep crashes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CrashOp {
    /// A full-stripe write to a healthy array.
    FullWrite,
    /// A partial write crossing a stripe boundary: two journal records,
    /// committed in one round before either stripe is stored.
    PartialWrite,
    /// A write of one segment more than the array has record slots, from
    /// the last element of stripe 0 to the first of the last stripe, on an
    /// array of `disks + 1` stripes: a round of `disks` records, then a
    /// round of one.
    WideWrite,
    /// A one-element write: the shortest sequence the delta branch
    /// produces (one data cell, its parities, a two-block record).
    SmallWrite,
    /// Eight elements at element 0 — the shape of the object store's
    /// index rewrite, the write a put issues twice.
    MetaWrite,
    /// A partial write while one slot is failed (redo-mode records).
    DegradedWrite,
    /// Rebuild onto a hot spare, crashed mid-copy and restarted on a
    /// fresh spare after the remount.
    RebuildStep,
    /// Two failed slots rebuilding side by side onto two spares — one
    /// survivor pass, two columns written per stripe — crashed at every
    /// write and restarted on two fresh spares.
    DualRebuild,
    /// A double crash: the mount-time *replay* of a crashed write is
    /// itself crashed at every write index, then remounted again.
    ReplayCrash,
    /// `ObjectStore::put` of a key the store does not hold.
    StorePut,
    /// `ObjectStore::upsert` of an existing key with a longer value: the
    /// key's index page — the middle one of three that hold records —
    /// comes to name a new extent.
    StoreUpsert,
    /// `ObjectStore::delete` of an existing key: its page is left empty
    /// between two that are not.
    StoreDelete,
    /// `ObjectStore::put` of a key whose record opens a page no seed key
    /// is in and ends on that page's last byte.
    StorePutNewPage,
    /// `ObjectStore::put` of a value that runs from the seed keys to the
    /// end of stripe 1: the back of stripe 0, journaled beside the seed
    /// keys, and stripe 1 whole, under one resync record.
    StorePutLarge,
    /// `ObjectStore::upsert` of a key that fills stripe 0 to its end with
    /// a value of one stripe's data: copy-on-write into stripe 1, written
    /// whole under one resync record and nothing else.
    StoreUpsertLarge,
    /// `ObjectStore::upsert` of a fourth seed key, held by this op's store
    /// only, whose one-element value is replaced by one of the same
    /// length: one journaled element write in place, and no page write.
    StoreOverwriteSmall,
    /// `ObjectStore::upsert` of `k`'s two elements with as many new bytes:
    /// same length, but more than one element, so copy-on-write.
    StoreOverwriteSameSize,
}

impl CrashOp {
    /// Every op the sweep covers.
    pub const ALL: [CrashOp; 17] = [
        CrashOp::FullWrite,
        CrashOp::PartialWrite,
        CrashOp::WideWrite,
        CrashOp::SmallWrite,
        CrashOp::MetaWrite,
        CrashOp::DegradedWrite,
        CrashOp::RebuildStep,
        CrashOp::DualRebuild,
        CrashOp::ReplayCrash,
        CrashOp::StorePut,
        CrashOp::StoreUpsert,
        CrashOp::StoreDelete,
        CrashOp::StorePutNewPage,
        CrashOp::StorePutLarge,
        CrashOp::StoreUpsertLarge,
        CrashOp::StoreOverwriteSmall,
        CrashOp::StoreOverwriteSameSize,
    ];

    /// Stable name (reports, JSON).
    pub fn name(self) -> &'static str {
        match self {
            CrashOp::FullWrite => "full-write",
            CrashOp::PartialWrite => "partial-write",
            CrashOp::WideWrite => "wide-write",
            CrashOp::SmallWrite => "small-write",
            CrashOp::MetaWrite => "meta-write",
            CrashOp::DegradedWrite => "degraded-write",
            CrashOp::RebuildStep => "rebuild-step",
            CrashOp::DualRebuild => "dual-rebuild",
            CrashOp::ReplayCrash => "replay-crash",
            CrashOp::StorePut => "store-put",
            CrashOp::StoreUpsert => "store-upsert",
            CrashOp::StoreDelete => "store-delete",
            CrashOp::StorePutNewPage => "store-put-new-page",
            CrashOp::StorePutLarge => "store-put-large",
            CrashOp::StoreUpsertLarge => "store-upsert-large",
            CrashOp::StoreOverwriteSmall => "store-overwrite-small",
            CrashOp::StoreOverwriteSameSize => "store-overwrite-same-size",
        }
    }

    /// The slots the op fails and rebuilds; none for the write ops. Each
    /// gets one spare to rebuild onto and one more for the restart after
    /// the crash.
    fn rebuilt_slots(self) -> &'static [usize] {
        match self {
            CrashOp::RebuildStep => &[2],
            CrashOp::DualRebuild => &[1, 2],
            _ => &[],
        }
    }
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct CrashSimConfig {
    /// The code under test.
    pub layout: CodeLayout,
    /// Stripes in the test array (small: the sweep is quadratic-ish).
    pub stripes: usize,
    /// Bytes per block (≥ 32 for the journal).
    pub block_size: usize,
    /// Seed for payload contents and the fault plan.
    pub seed: u64,
    /// Model a volatile write-back cache (un-flushed writes are lost at
    /// the crash) — the setting that catches ack-before-durable bugs.
    pub volatile_cache: bool,
    /// Planted write-path bug; the sweep must then *find* failures.
    pub mutation: Option<JournalMutation>,
}

impl CrashSimConfig {
    /// Defaults for `layout` at `seed`: 3 stripes, 32-byte blocks,
    /// volatile cache on, no mutation.
    pub fn new(layout: CodeLayout, seed: u64) -> Self {
        CrashSimConfig {
            layout,
            stripes: 3,
            block_size: 32,
            seed,
            volatile_cache: true,
            mutation: None,
        }
    }

    /// [`new`](Self::new) with `mutation` planted, over the cache model
    /// that can show it: the volatile cache, except for
    /// [`JournalMutation::UnsharedWithoutIntent`] and
    /// [`JournalMutation::InPlaceAcrossElements`], whose tears only a
    /// write-through medium keeps (see there).
    pub fn planted(layout: CodeLayout, seed: u64, mutation: JournalMutation) -> Self {
        let torn = [
            JournalMutation::UnsharedWithoutIntent,
            JournalMutation::InPlaceAcrossElements,
        ];
        CrashSimConfig {
            volatile_cache: !torn.contains(&mutation),
            mutation: Some(mutation),
            ..Self::new(layout, seed)
        }
    }
}

/// One crash point that broke an invariant — replayable from
/// `(op, crash_at, seed)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrashFailure {
    /// The operation being crashed.
    pub op: &'static str,
    /// The backend-write index the crash fired on.
    pub crash_at: u64,
    /// The sweep seed.
    pub seed: u64,
    /// What the verifier saw.
    pub detail: String,
}

/// Per-op sweep counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpSweep {
    /// Operation name.
    pub op: &'static str,
    /// Crash points enumerated (== backend writes the op performs).
    pub crash_points: u64,
    /// Remounts whose replay re-applied at least one record.
    pub replays: u64,
    /// Crash points that broke an invariant.
    pub failures: u64,
}

/// The whole sweep's outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrashSweepReport {
    /// Sweep seed.
    pub seed: u64,
    /// Whether the volatile write cache was modeled.
    pub volatile_cache: bool,
    /// Whether a mutation was planted (inverts [`passed`](Self::passed)).
    pub mutated: bool,
    /// Total crash points enumerated across all ops.
    pub crash_points: u64,
    /// Total remounts whose replay re-applied records.
    pub replays: u64,
    /// Per-op breakdown.
    pub per_op: Vec<OpSweep>,
    /// Every invariant violation found.
    pub failures: Vec<CrashFailure>,
}

impl CrashSweepReport {
    /// A clean run finds nothing; a mutated run must find something —
    /// otherwise the harness could not see the hole it claims to close.
    pub fn passed(&self) -> bool {
        if self.mutated {
            !self.failures.is_empty()
        } else {
            self.failures.is_empty()
        }
    }

    /// JSON object (the CI artifact format).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"seed\":{},\"volatile_cache\":{},\"mutated\":{},\"crash_points\":{},\"replays\":{},\"passed\":{}",
            self.seed,
            self.volatile_cache,
            self.mutated,
            self.crash_points,
            self.replays,
            self.passed()
        ));
        s.push_str(",\"per_op\":[");
        for (i, op) in self.per_op.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"op\":\"{}\",\"crash_points\":{},\"replays\":{},\"failures\":{}}}",
                op.op, op.crash_points, op.replays, op.failures
            ));
        }
        s.push_str("],\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"op\":\"{}\",\"crash_at\":{},\"seed\":{},\"detail\":\"{}\"}}",
                f.op,
                f.crash_at,
                f.seed,
                f.detail.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
        s.push_str("]}");
        s
    }
}

type TestArray = ResilientArray<SharedInjector<MemBackend>>;

/// Deterministic payload bytes (splitmix64 stream).
fn prand_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// One deterministically rebuilt scenario instance.
struct Instance {
    array: TestArray,
    handle: SharedInjector<MemBackend>,
    /// Full logical content before the op (all of it acknowledged).
    initial: Vec<u8>,
    /// The objects a store scenario acknowledged before its op (empty for
    /// the array ops).
    acked: BTreeMap<String, Vec<u8>>,
}

/// Build a fresh journaled array over a shared injector, filled with the
/// seed's initial payload, fully durable.
fn prepare(cfg: &CrashSimConfig, spares: usize) -> Instance {
    let layout = cfg.layout.clone();
    let rows = layout.rows();
    let mut plan = FaultPlan::quiet(cfg.seed);
    plan.volatile_cache = cfg.volatile_cache;
    let blocks = cfg.stripes * rows + journal_blocks_per_disk(&layout, cfg.block_size);
    let injector = FaultInjector::new(
        MemBackend::new(layout.disks() + spares, blocks, cfg.block_size),
        plan,
    );
    let handle = SharedInjector::new(injector);
    let mut array = ResilientArray::format_journaled(
        layout,
        cfg.block_size,
        cfg.stripes,
        RotationScheme::PerStripe,
        handle.clone(),
        RetryPolicy::default(),
        1_000_000, // never auto-fail: failures here are explicit
    );
    array.set_journal_mutation(cfg.mutation);
    let initial = prand_bytes(cfg.seed ^ 0x1234_5678, array.capacity_bytes());
    array.write(0, &initial).unwrap();
    Instance {
        array,
        handle,
        initial,
        acked: BTreeMap::new(),
    }
}

/// Elements the store ops reserve for the index.
const STORE_META: usize = 4;

/// The objects every store scenario holds before its op: two elements
/// each, at elements 4, 6 and 8. At the sweep's 32-byte blocks an index
/// page holds one record of a one-letter name (8 bytes of header, 21 of
/// record), so the three keys sit in pages 0, 1 and 2 and every op's
/// page has neighbours it must leave alone; page 3 is empty. All of them
/// lie in stripe 0 (every swept code has more than ten data elements a
/// stripe), so stripes 1 and 2 are free for the large values.
/// `tests/store_crash.rs` sweeps pages of several records each.
const STORE_SEED_KEYS: [&str; 3] = ["a", "k", "z"];

/// The fourth seed key of the small-overwrite scenario, in page 3 and at
/// element 10, and its value's length: one element, not filled.
const SMALL_KEY: &str = "s";
fn small_len(cfg: &CrashSimConfig) -> usize {
    cfg.block_size - 5
}

/// For an op that goes through an [`ObjectStore`]: the key it names and
/// the value it carries (`None`: a delete). `None` for the array ops.
fn store_target(cfg: &CrashSimConfig, op: CrashOp) -> Option<(&'static str, Option<Vec<u8>>)> {
    let bs = cfg.block_size;
    match op {
        CrashOp::StorePut => Some(("n", Some(prand_bytes(cfg.seed ^ 0x0B01, 2 * bs + 1)))),
        CrashOp::StoreUpsert => Some(("k", Some(prand_bytes(cfg.seed ^ 0x0B02, 2 * bs + 5)))),
        CrashOp::StoreDelete => Some(("k", None)),
        // Four bytes of name: header and record are a page, to the byte.
        CrashOp::StorePutNewPage => Some(("page", Some(prand_bytes(cfg.seed ^ 0x0B03, bs)))),
        CrashOp::StorePutLarge => {
            let len = (2 * cfg.layout.data_len() - SEED_END) * bs - 3;
            Some(("L", Some(prand_bytes(cfg.seed ^ 0x0B04, len))))
        }
        CrashOp::StoreUpsertLarge => {
            let len = cfg.layout.data_len() * bs - 7;
            Some(("L", Some(prand_bytes(cfg.seed ^ 0x0B05, len))))
        }
        CrashOp::StoreOverwriteSmall => Some((
            SMALL_KEY,
            Some(prand_bytes(cfg.seed ^ 0x0B07, small_len(cfg))),
        )),
        CrashOp::StoreOverwriteSameSize => {
            Some(("k", Some(prand_bytes(cfg.seed ^ 0x0B09, bs + 8))))
        }
        _ => None,
    }
}

/// The first element after the seed keys.
const SEED_END: usize = STORE_META + 2 * STORE_SEED_KEYS.len();

/// What the upsert-large scenario's key holds before its op: the rest of
/// stripe 0 to the byte, so its new value goes first-fit to stripe 1.
fn large_seed_value(cfg: &CrashSimConfig) -> Vec<u8> {
    let len = (cfg.layout.data_len() - SEED_END) * cfg.block_size;
    prand_bytes(cfg.seed ^ 0x0B06, len)
}

/// Format a store on the prepared array and acknowledge the scenario's
/// objects: the seed keys, and for the upsert-large and overwrite-small
/// ops their keys too.
fn seed_store(cfg: &CrashSimConfig, op: CrashOp, inst: &mut Instance) {
    let mut store = ObjectStore::format(&mut inst.array, STORE_META).expect("format store");
    let seeds = STORE_SEED_KEYS.iter().enumerate().map(|(i, &name)| {
        let value = prand_bytes(cfg.seed ^ (0x0B10 + i as u64), cfg.block_size + 8);
        (name, value)
    });
    let large = (op == CrashOp::StoreUpsertLarge).then(|| ("L", large_seed_value(cfg)));
    let small = (op == CrashOp::StoreOverwriteSmall)
        .then(|| (SMALL_KEY, prand_bytes(cfg.seed ^ 0x0B08, small_len(cfg))));
    for (name, value) in seeds.chain(large).chain(small) {
        store.put(name, &value).expect("seed object fits");
        inst.acked.insert(name.to_string(), value);
    }
}

/// The write each op performs, as `(start_element, new_bytes)`; `None`
/// for ops that mutate no logical data (rebuild).
fn op_write(cfg: &CrashSimConfig, op: CrashOp) -> Option<(usize, Vec<u8>)> {
    let k = cfg.layout.data_len();
    let bs = cfg.block_size;
    match op {
        CrashOp::FullWrite => Some((k, prand_bytes(cfg.seed ^ 0xF0F0, k * bs))),
        // Crosses the stripe 0 → 1 boundary: two segments, two records.
        CrashOp::PartialWrite | CrashOp::ReplayCrash => {
            Some((k - 1, prand_bytes(cfg.seed ^ 0x0F0F, 3 * bs)))
        }
        CrashOp::WideWrite => {
            let whole = cfg.layout.disks() - 1;
            Some((k - 1, prand_bytes(cfg.seed ^ 0x71DE, (whole * k + 2) * bs)))
        }
        CrashOp::SmallWrite => {
            // The element of stripe 1 that shares a disk with the write's
            // own intent record (`prepare` committed one record per
            // stripe, and record `seq` lands on disk `seq % disks`): the
            // retire's flush destages that disk, so a retire planted
            // before the parity writes leaves new data under old parity
            // even though the volatile cache drops every other write.
            let disks = cfg.layout.disks();
            let col = RotationScheme::PerStripe.to_logical(1, cfg.stripes % disks, disks);
            let cells = cfg.layout.data_cells();
            let within = cells.iter().position(|c| c.col == col).unwrap_or(0);
            Some((k + within, prand_bytes(cfg.seed ^ 0x5A11, bs)))
        }
        CrashOp::MetaWrite => Some((0, prand_bytes(cfg.seed ^ 0x1DE7, 8.min(k) * bs))),
        CrashOp::DegradedWrite => Some((2, prand_bytes(cfg.seed ^ 0xD00D, 3 * bs))),
        // A rebuild writes no logical data; the store ops are judged by
        // object ([`store_target`]), not by element.
        CrashOp::RebuildStep
        | CrashOp::DualRebuild
        | CrashOp::StorePut
        | CrashOp::StoreUpsert
        | CrashOp::StoreDelete
        | CrashOp::StorePutNewPage
        | CrashOp::StorePutLarge
        | CrashOp::StoreUpsertLarge
        | CrashOp::StoreOverwriteSmall
        | CrashOp::StoreOverwriteSameSize => None,
    }
}

/// Prepare the scenario state the crash will interrupt.
fn setup(cfg: &CrashSimConfig, op: CrashOp) -> Instance {
    let mut inst = prepare(cfg, 2 * op.rebuilt_slots().len());
    begin(cfg, op, &mut inst);
    inst
}

/// Bring a prepared instance to the point where `op` starts.
fn begin(cfg: &CrashSimConfig, op: CrashOp, inst: &mut Instance) {
    match op {
        CrashOp::DegradedWrite => inst.array.fail_disk(1).unwrap(),
        CrashOp::RebuildStep | CrashOp::DualRebuild => {
            // Each failure attaches a spare and starts its rebuild.
            for &slot in op.rebuilt_slots() {
                inst.array.fail_disk(slot).unwrap();
            }
        }
        CrashOp::ReplayCrash => {
            // First crash: a partial write interrupted mid-flight. The
            // index is fixed (two-thirds in, usually past the commit);
            // the *sweep* then crashes the replay of this state.
            let (start, bytes) = op_write(cfg, op).expect("replay op writes");
            let probe = {
                let mut dry = prepare(cfg, 0);
                let before = dry.handle.lock().writes_done();
                dry.array.write(start, &bytes).unwrap();
                let total = dry.handle.lock().writes_done();
                total - before
            };
            inst.handle.lock().arm_crash(probe * 2 / 3);
            let a = &mut inst.array;
            let crashed = catch_crash(move || {
                a.write(start, &bytes).unwrap();
            });
            assert!(crashed.is_none(), "fixed first crash must fire");
            inst.handle.lock().power_cycle();
        }
        CrashOp::StorePut
        | CrashOp::StoreUpsert
        | CrashOp::StoreDelete
        | CrashOp::StorePutNewPage
        | CrashOp::StorePutLarge
        | CrashOp::StoreUpsertLarge
        | CrashOp::StoreOverwriteSmall
        | CrashOp::StoreOverwriteSameSize => seed_store(cfg, op, inst),
        CrashOp::FullWrite
        | CrashOp::PartialWrite
        | CrashOp::WideWrite
        | CrashOp::SmallWrite
        | CrashOp::MetaWrite => {}
    }
}

/// Run the op to completion (the dry-run measuring pass, and the body the
/// armed runs crash out of).
fn run_op(cfg: &CrashSimConfig, op: CrashOp, inst: &mut Instance) {
    match op {
        CrashOp::RebuildStep | CrashOp::DualRebuild => {
            let rows = cfg.layout.rows();
            while !inst.array.rebuild_step(rows).unwrap() {}
        }
        CrashOp::ReplayCrash => {
            // The op under the sweep's crash is the remount itself.
            let remounted = remount(cfg, op, inst.handle.clone());
            inst.array = remounted.expect("clean replay remount");
        }
        _ => match store_target(cfg, op) {
            Some((key, value)) => {
                // Opening reads the index and writes nothing, so every
                // write the crash counter sees belongs to the op.
                let mut store =
                    ObjectStore::open(&mut inst.array, STORE_META).expect("seeded store opens");
                store.set_mutation(cfg.mutation);
                let done = match (op, value) {
                    (
                        CrashOp::StoreUpsert
                        | CrashOp::StoreUpsertLarge
                        | CrashOp::StoreOverwriteSmall
                        | CrashOp::StoreOverwriteSameSize,
                        Some(value),
                    ) => store.upsert(key, &value),
                    (_, Some(value)) => store.put(key, &value),
                    (_, None) => store.delete(key),
                };
                done.expect("store op on a healthy array");
            }
            None => {
                let (start, bytes) = op_write(cfg, op).expect("write op");
                inst.array.write(start, &bytes).unwrap();
            }
        },
    }
}

/// Remount the medium behind `handle` the way an operator would after
/// the crash: identity topology for healthy scenarios, the degraded /
/// mid-rebuild topologies where the scenario calls for them.
fn remount(
    cfg: &CrashSimConfig,
    op: CrashOp,
    handle: SharedInjector<MemBackend>,
) -> Result<TestArray, String> {
    let layout = cfg.layout.clone();
    let disks = layout.disks();
    let topology = match op {
        CrashOp::DegradedWrite => AttachTopology {
            slot_to_disk: (0..disks).collect(),
            failed_slots: vec![1],
            spares: Vec::new(),
        },
        // Each rebuilt slot went down and was rebuilding onto its spare
        // (physical disks `disks..`, in failure order) when the power
        // went. A half-copied spare cannot be trusted, so it comes back
        // as its failed slot's disk and the rebuild restarts onto a fresh
        // spare. The write ops rebuild nothing: identity topology.
        _ => {
            let rebuilt = op.rebuilt_slots();
            let mut slot_to_disk: Vec<usize> = (0..disks).collect();
            for (i, &slot) in rebuilt.iter().enumerate() {
                slot_to_disk[slot] = disks + i;
            }
            AttachTopology {
                slot_to_disk,
                failed_slots: rebuilt.to_vec(),
                spares: (disks + rebuilt.len()..disks + 2 * rebuilt.len()).collect(),
            }
        }
    };
    ResilientArray::attach_journaled_as(
        layout,
        cfg.block_size,
        cfg.stripes,
        RotationScheme::PerStripe,
        handle,
        RetryPolicy::default(),
        1_000_000,
        topology,
    )
    .map_err(|e| format!("attach failed: {e}"))
}

/// Check the remounted array against the oracle. `write` is the op's
/// logical write, if it performs one.
fn verify(
    array: &mut TestArray,
    initial: &[u8],
    write: Option<&(usize, Vec<u8>)>,
) -> Result<(), String> {
    let bs = array.block_size();
    let elements = array.capacity_elements();
    let got = array
        .read(0, elements)
        .map_err(|e| format!("post-remount read failed: {e:?}"))?;
    let (start, count) = write.map_or((0, 0), |(s, b)| (*s, b.len() / bs));
    for e in 0..elements {
        let here = &got[e * bs..(e + 1) * bs];
        let old = &initial[e * bs..(e + 1) * bs];
        if e >= start && e < start + count {
            let new = write
                .map(|(s, b)| &b[(e - s) * bs..(e - s + 1) * bs])
                .unwrap();
            if here != old && here != new {
                return Err(format!("element {e}: neither old nor new content"));
            }
        } else if here != old {
            return Err(format!("element {e}: acknowledged write lost"));
        }
    }
    scrub_clean(array)
}

/// Check a remounted store against the ledger: the index opens (every
/// page parses, every extent is inside the array, none overlap — `open`
/// refuses anything else), every object the op did not name reads its
/// acknowledged bytes, the op's key reads its acknowledged state or the
/// in-flight one (absence is a state: before a put, after a delete), the
/// index lists nothing else, and the scrub is clean.
fn verify_store(
    array: &mut TestArray,
    acked: &BTreeMap<String, Vec<u8>>,
    (key, after): (&str, Option<Vec<u8>>),
) -> Result<(), String> {
    let mut store = ObjectStore::open(&mut *array, STORE_META)
        .map_err(|e| format!("store does not open: {e}"))?;
    let mut read = |name: &str| match store.get(name) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(StoreError::NotFound(_)) => Ok(None),
        Err(e) => Err(format!("get '{name}' failed: {e}")),
    };
    for (name, value) in acked.iter().filter(|(name, _)| *name != key) {
        match read(name)? {
            Some(bytes) if bytes == *value => {}
            Some(_) => return Err(format!("object '{name}': acknowledged bytes changed")),
            None => return Err(format!("object '{name}': acknowledged write lost")),
        }
    }
    let before = acked.get(key);
    let got = read(key)?;
    if got.as_ref() != before && got != after {
        return Err(match (got, before) {
            (None, Some(_)) => format!("object '{key}': acknowledged write lost"),
            _ => format!("object '{key}': neither its acknowledged state nor the in-flight one"),
        });
    }
    let others = acked.len() - usize::from(before.is_some());
    let listed = store.len();
    if listed != others + usize::from(got.is_some()) {
        return Err(format!(
            "index lists {listed} object(s) the ledger does not"
        ));
    }
    scrub_clean(array)
}

/// A full scrub of the remounted array finds no parity mismatch.
fn scrub_clean(array: &mut TestArray) -> Result<(), String> {
    let scrub = array
        .scrub_pass()
        .map_err(|e| format!("post-remount scrub failed: {e:?}"))?;
    if scrub.parity_mismatches > 0 {
        return Err(format!(
            "write hole: {} parity-inconsistent block(s) across {} checked stripe(s)",
            scrub.parity_mismatches, scrub.parity_checked
        ));
    }
    Ok(())
}

/// Sweep one op: dry-run to count its writes, then crash at every index.
fn sweep_op(cfg: &CrashSimConfig, op: CrashOp) -> (OpSweep, Vec<CrashFailure>) {
    let wide = CrashSimConfig {
        stripes: cfg.layout.disks() + 1,
        ..cfg.clone()
    };
    let cfg = if op == CrashOp::WideWrite { &wide } else { cfg };
    // Dry run: how many backend writes does this op perform?
    let writes = {
        let mut inst = setup(cfg, op);
        let before = inst.handle.lock().writes_done();
        run_op(cfg, op, &mut inst);
        let total = inst.handle.lock().writes_done();
        total - before
    };
    let mut out = OpSweep {
        op: op.name(),
        crash_points: writes,
        replays: 0,
        failures: 0,
    };
    let mut failures = Vec::new();
    for n in 0..writes {
        let mut inst = setup(cfg, op);
        inst.handle.lock().arm_crash(n);
        {
            let i = &mut inst;
            let crashed = catch_crash(move || run_op(cfg, op, i));
            assert!(crashed.is_none(), "armed crash {n} must fire for {op:?}");
        }
        inst.handle.lock().power_cycle();
        let result = remount(cfg, op, inst.handle.clone()).and_then(|mut array| {
            if !op.rebuilt_slots().is_empty() {
                // Restart the rebuild(s) onto the fresh spare(s) and drive
                // them home before judging the array.
                array.try_attach_spare();
                let rows = cfg.layout.rows();
                while !array
                    .rebuild_step(rows)
                    .map_err(|e| format!("rebuild after remount failed: {e:?}"))?
                {}
            }
            if array.last_replay().is_some_and(|r| r.replayed > 0) {
                out.replays += 1;
            }
            match store_target(cfg, op) {
                Some(target) => verify_store(&mut array, &inst.acked, target),
                None => verify(&mut array, &inst.initial, op_write(cfg, op).as_ref()),
            }
        });
        if let Err(detail) = result {
            out.failures += 1;
            failures.push(CrashFailure {
                op: op.name(),
                crash_at: n,
                seed: cfg.seed,
                detail,
            });
        }
    }
    (out, failures)
}

/// Run the exhaustive sweep over every op in [`CrashOp::ALL`].
pub fn sweep(cfg: &CrashSimConfig) -> CrashSweepReport {
    let mut report = CrashSweepReport {
        seed: cfg.seed,
        volatile_cache: cfg.volatile_cache,
        mutated: cfg.mutation.is_some(),
        crash_points: 0,
        replays: 0,
        per_op: Vec::new(),
        failures: Vec::new(),
    };
    for op in CrashOp::ALL {
        let (op_sweep, failures) = sweep_op(cfg, op);
        report.crash_points += op_sweep.crash_points;
        report.replays += op_sweep.replays;
        report.per_op.push(op_sweep);
        report.failures.extend(failures);
    }
    report
}

/// The counters of an array formatted like the sweep's instances after
/// it ran every healthy write op and both rebuild ops uncrashed: which
/// write branch served the swept sequences is read off
/// [`delta_segments`](ResilientStats::delta_segments) and
/// [`reconstruct_segments`](ResilientStats::reconstruct_segments), what
/// the rebuilds read off
/// [`rebuild_read_blocks`](ResilientStats::rebuild_read_blocks),
/// [`rebuild_stripes`](ResilientStats::rebuild_stripes) and
/// [`joint_rebuild_stripes`](ResilientStats::joint_rebuild_stripes).
pub fn probe_stats(cfg: &CrashSimConfig) -> ResilientStats {
    let mut inst = prepare(cfg, 3);
    for op in [
        CrashOp::FullWrite,
        CrashOp::PartialWrite,
        CrashOp::SmallWrite,
        CrashOp::MetaWrite,
        CrashOp::RebuildStep,
        CrashOp::DualRebuild,
    ] {
        begin(cfg, op, &mut inst);
        run_op(cfg, op, &mut inst);
    }
    inst.array.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    #[test]
    fn sweep_is_exhaustive_and_clean() {
        let cfg = CrashSimConfig::new(dcode(5).unwrap(), 1);
        let report = sweep(&cfg);
        assert!(
            report.failures.is_empty(),
            "clean sweep must find nothing: {:?}",
            report.failures
        );
        assert!(report.passed());
        assert_eq!(report.per_op.len(), CrashOp::ALL.len());
        for op in &report.per_op {
            assert!(op.crash_points > 0, "{}: no crash points", op.op);
        }
        // Crashes landing after the commit flush must actually replay.
        assert!(report.replays > 0, "no crash point exercised replay");
    }

    #[test]
    fn sweep_without_volatile_cache_is_also_clean() {
        let mut cfg = CrashSimConfig::new(dcode(5).unwrap(), 2);
        cfg.volatile_cache = false;
        let report = sweep(&cfg);
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn planted_retire_before_parity_is_caught() {
        let mut cfg = CrashSimConfig::new(dcode(5).unwrap(), 3);
        cfg.mutation = Some(JournalMutation::RetireBeforeParity);
        let report = sweep(&cfg);
        assert!(
            !report.failures.is_empty(),
            "the sweep must catch the planted write hole"
        );
        assert!(report.passed(), "mutated passed() inverts");
        // The counterexample is replayable: op + crash index + seed.
        let f = &report.failures[0];
        assert_eq!(f.seed, 3);
        assert!(f.detail.contains("parity") || f.detail.contains("content"));
    }

    #[test]
    fn planted_index_before_data_is_caught_by_the_store_ops_only() {
        for p in [5, 7] {
            let mut cfg = CrashSimConfig::new(dcode(p).unwrap(), 7);
            cfg.mutation = Some(JournalMutation::IndexBeforeData);
            let report = sweep(&cfg);
            assert!(report.passed(), "p={p}: the planted bug went unseen");
            for op in &report.per_op {
                // The array never sees this bug; a delete writes no data,
                // an in-place overwrite no page.
                let exposed = [
                    "store-put",
                    "store-upsert",
                    "store-put-new-page",
                    "store-put-large",
                    "store-upsert-large",
                    "store-overwrite-same-size",
                ]
                .contains(&op.op);
                assert_eq!(op.failures > 0, exposed, "p={p} {}: {op:?}", op.op);
            }
            // The index named the extent, the extent never got its bytes.
            assert!(report
                .failures
                .iter()
                .all(|f| f.detail.contains("neither its acknowledged state")));
        }
    }

    #[test]
    fn planted_unshared_without_intent_is_caught_by_the_large_store_ops_only() {
        for p in [5, 7] {
            let layout = dcode(p).unwrap();
            let cfg = CrashSimConfig::planted(layout, 10, JournalMutation::UnsharedWithoutIntent);
            assert!(!cfg.volatile_cache);
            let report = sweep(&cfg);
            assert!(report.passed(), "p={p}: the planted bug went unseen");
            for op in &report.per_op {
                // Only these cover a stripe whole.
                let exposed = ["store-put-large", "store-upsert-large"].contains(&op.op);
                assert_eq!(op.failures > 0, exposed, "p={p} {}: {op:?}", op.op);
            }
            // Every key reads right: only the post-remount scrub sees it.
            assert!(report
                .failures
                .iter()
                .all(|f| f.detail.contains("write hole")));
            // With the intent, the same medium comes back clean.
            let clean = CrashSimConfig {
                mutation: None,
                ..cfg
            };
            for op in [CrashOp::StorePutLarge, CrashOp::StoreUpsertLarge] {
                let (swept, failures) = sweep_op(&clean, op);
                assert!(failures.is_empty(), "p={p} {}: {failures:?}", swept.op);
                assert!(swept.replays > 0, "p={p} {}: no resync replayed", swept.op);
            }
        }
    }

    #[test]
    fn planted_in_place_across_elements_is_caught_by_the_same_size_overwrite_only() {
        for p in [5, 7] {
            let layout = dcode(p).unwrap();
            let cfg = CrashSimConfig::planted(layout, 11, JournalMutation::InPlaceAcrossElements);
            assert!(!cfg.volatile_cache);
            let report = sweep(&cfg);
            assert!(report.passed(), "p={p}: the planted bug went unseen");
            for op in &report.per_op {
                // A one-element value goes in place anyway; every other
                // overwrite changes the length.
                let exposed = op.op == "store-overwrite-same-size";
                assert_eq!(op.failures > 0, exposed, "p={p} {}: {op:?}", op.op);
            }
            // The index still names the extent, which holds part of each
            // version.
            assert!(report
                .failures
                .iter()
                .all(|f| f.detail.contains("neither its acknowledged state")));
            // Over a volatile cache the tear never lasts: nothing is
            // flushed between the two element writes.
            let volatile = CrashSimConfig {
                volatile_cache: true,
                ..cfg
            };
            let (swept, failures) = sweep_op(&volatile, CrashOp::StoreOverwriteSameSize);
            assert!(failures.is_empty(), "p={p} {}: {failures:?}", swept.op);
        }
    }

    /// The index pages of the store behind `inst`, each as its records
    /// `(name, start, len)`, read from the medium.
    fn index_pages(cfg: &CrashSimConfig, inst: &mut Instance) -> Vec<Vec<(String, u64, u64)>> {
        let raw = inst.array.read(0, STORE_META).unwrap();
        raw.chunks(cfg.block_size)
            .map(|page| {
                let records = crate::objstore::parse_page(page).unwrap();
                let owned = |(name, start, len): (&str, u64, u64)| (name.to_string(), start, len);
                records.into_iter().map(owned).collect()
            })
            .collect()
    }

    #[test]
    fn store_scenarios_have_the_shape_their_names_claim() {
        let cfg = CrashSimConfig::new(dcode(5).unwrap(), 8);
        let pages_after = |op: Option<CrashOp>| {
            let mut inst = setup(&cfg, CrashOp::StorePut);
            if let Some(op) = op {
                run_op(&cfg, op, &mut inst);
            }
            index_pages(&cfg, &mut inst)
        };
        let record = |name: &str, start, len| vec![(name.to_string(), start, len)];
        // One seed key a page, the last page empty.
        let seeded = pages_after(None);
        let expect = [
            record("a", 4, 40),
            record("k", 6, 40),
            record("z", 8, 40),
            Vec::new(),
        ];
        assert_eq!(seeded, expect);
        // Every op changes the one page of its key.
        let changes = |op, page: usize, records| {
            let mut expect = seeded.clone();
            expect[page] = records;
            assert_eq!(pages_after(Some(op)), expect, "{op:?}");
        };
        changes(CrashOp::StoreUpsert, 1, record("k", 10, 69));
        changes(CrashOp::StoreDelete, 1, Vec::new());
        changes(CrashOp::StorePut, 3, record("n", 10, 65));
        changes(CrashOp::StorePutNewPage, 3, record("page", 10, 32));
        assert_eq!(8 + 4 + "page".len() + 16, cfg.block_size);
        // First-fit from element 10 to the end of stripe 1 (15 data
        // elements a stripe): only stripe 1 is covered whole. The upsert's
        // key fills stripe 0, and its new value takes stripe 1 whole.
        changes(CrashOp::StorePutLarge, 3, record("L", 10, 20 * 32 - 3));
        let mut inst = setup(&cfg, CrashOp::StorePutLarge);
        run_op(&cfg, CrashOp::StorePutLarge, &mut inst);
        assert_eq!(inst.array.stats().unshared_stripes, 1);
        let mut inst = setup(&cfg, CrashOp::StoreUpsertLarge);
        assert_eq!(index_pages(&cfg, &mut inst)[3], record("L", 10, 5 * 32));
        run_op(&cfg, CrashOp::StoreUpsertLarge, &mut inst);
        assert_eq!(
            index_pages(&cfg, &mut inst)[3],
            record("L", 15, 15 * 32 - 7)
        );
        assert_eq!(inst.array.stats().unshared_stripes, 1);
        // A same-length overwrite of two elements moves its key; of one
        // element it writes that element, and no page, in place.
        changes(CrashOp::StoreOverwriteSameSize, 1, record("k", 10, 40));
        let mut inst = setup(&cfg, CrashOp::StoreOverwriteSmall);
        let small = index_pages(&cfg, &mut inst);
        assert_eq!(small[3], record(SMALL_KEY, 10, 27));
        let (writes, records) = {
            let before = inst.array.stats().clone();
            run_op(&cfg, CrashOp::StoreOverwriteSmall, &mut inst);
            let after = inst.array.stats();
            (
                after.element_writes - before.element_writes,
                after.journal_records - before.journal_records,
            )
        };
        assert_eq!((writes, records), (1, 1));
        assert_eq!(index_pages(&cfg, &mut inst), small);
    }

    #[test]
    fn a_put_into_a_full_index_is_refused_before_any_write() {
        // The sweep has no row for it: there is no write to crash at.
        let cfg = CrashSimConfig::new(dcode(5).unwrap(), 9);
        let mut inst = setup(&cfg, CrashOp::StorePut);
        run_op(&cfg, CrashOp::StorePut, &mut inst); // the fourth page's record
        let before = index_pages(&cfg, &mut inst);
        let writes = inst.handle.lock().writes_done();
        let mut store = ObjectStore::open(&mut inst.array, STORE_META).unwrap();
        assert!(matches!(
            store.put("x", &[1; 40]),
            Err(StoreError::NoSpace { needed: 1 })
        ));
        assert_eq!(store.len(), 4);
        assert_eq!(inst.handle.lock().writes_done(), writes);
        assert_eq!(index_pages(&cfg, &mut inst), before);
        assert_eq!(
            ObjectStore::open(&mut inst.array, STORE_META)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let cfg = CrashSimConfig::new(dcode(5).unwrap(), 4);
        let report = sweep(&cfg);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"per_op\""));
        assert!(json.contains("\"passed\":true"));
    }

    #[test]
    fn planted_hole_is_caught_on_the_short_write_ops() {
        // The delta branch's sequences are the shortest the array writes;
        // the oracle must still see a retire planted inside them.
        for p in [5, 7] {
            let mut cfg = CrashSimConfig::new(dcode(p).unwrap(), 6);
            cfg.mutation = Some(JournalMutation::RetireBeforeParity);
            for op in [CrashOp::SmallWrite, CrashOp::MetaWrite] {
                let (swept, failures) = sweep_op(&cfg, op);
                assert!(swept.failures > 0, "p={p} {}: hole not caught", swept.op);
                assert!(failures.iter().all(|f| f.detail.contains("write hole")));
            }
        }
    }

    #[test]
    fn probe_stats_counts_journal_records_and_write_branches() {
        let cfg = CrashSimConfig::new(dcode(7).unwrap(), 5);
        let stats = probe_stats(&cfg);
        assert!(stats.journal_records >= cfg.stripes as u64);
        assert_eq!(stats.journal_records, stats.journal_retires);
        assert_eq!(stats.journal_skips, 0);
        // prepare: 3 full stripes; then full, partial (1 + 2 elements),
        // small and meta writes.
        assert_eq!(stats.reconstruct_segments, 4);
        assert_eq!(stats.delta_segments, 4);
        // D-Code p=7: 1 element fetches 1 + 2, 2 continuous elements
        // 2 + 3 (they share the horizontal parity), 8 elements 8 + 8.
        assert_eq!(stats.write_fetch_blocks, (3 + 5) + 3 + 16);
        // One slot over 3 stripes at the minimum 26 reads each, then two
        // slots side by side from the 35 survivors of each stripe.
        assert_eq!(stats.rebuilds_completed, 3);
        assert_eq!(stats.rebuild_stripes, 3 + 3);
        assert_eq!(stats.joint_rebuild_stripes, 3);
        assert_eq!(stats.rebuild_read_blocks, 3 * 26 + 3 * 35);
        assert_eq!(stats.rebuilt_blocks, 3 * 7 + 3 * 14);
    }
}
