//! Write-ahead parity intent journal: the on-disk format that closes the
//! RAID-6 write hole.
//!
//! A stripe update writes several blocks (data cells, then the parity
//! cells they change). A crash between any two of those writes leaves the
//! stripe's parity inconsistent with its data — the classic *write hole* —
//! and the corruption is silent until a later degraded read reconstructs
//! garbage through the stale parity. The journal closes the hole by making every
//! stripe mutation re-runnable: before touching the stripe, the array
//! appends a checksummed *intent record* to a journal region, flushes it,
//! applies the writes, and only then retires the record. Mount-time
//! replay re-applies every committed-but-unretired record idempotently
//! and discards torn ones by checksum.
//!
//! ## Geometry
//!
//! The journal lives in extra blocks at the tail of each disk's block
//! range: a backend for a journaled array holds
//! `n_stripes × rows + blocks_per_disk()` blocks per disk. Each disk
//! carries one fixed *record slot* (`header_blocks` + `payload_blocks`),
//! and disk 0 additionally owns a one-block mount-state area at the very
//! end of the region (the last block of every disk is reserved so the
//! geometry stays uniform). Record `seq` is written to slot
//! `seq % disks`, probing forward past disks that refuse the write — the
//! journal load rotates across the array just like the parity does, and
//! at most one record is ever live per stripe mutation, so `disks` slots
//! are plenty.
//!
//! ## Record lifecycle
//!
//! 1. payload blocks are written (cell contents being journaled),
//! 2. the header — magic, seq, stripe, mode, one CRC per cell, and a
//!    trailing CRC over the header itself — is written after the payload.
//!    A by-value entry's CRC is the CRC of its payload block, so the
//!    header CRC vouches for every payload block too; replay hashes each
//!    block it reads back against its own entry. Header bytes 23..27 held
//!    a CRC over the whole payload in earlier versions: they are reserved
//!    now, written as zero and ignored on read, so the geometry is
//!    unchanged and an old record still replays,
//! 3. the journal disk is flushed: the record is now *committed*,
//! 4. the stripe writes are applied and their disks flushed,
//! 5. the header's first block is overwritten with a tombstone and the
//!    journal disk flushed again: the record is *retired*.
//!
//! A crash before (3) leaves a record whose header CRC or some payload
//! block's entry CRC does not validate — replay discards it (the stripe
//! was never touched). A crash after (3) leaves a valid record — replay
//! re-applies it. Replay is idempotent because records carry *content*,
//! not deltas.
//!
//! ## Record modes
//!
//! * [`RecordMode::ParityIntent`] (healthy stripes): CRCs of the new data
//!   cells plus the new contents of the parities they change (their
//!   update closure — any other parity has no changed member, so it is
//!   right under old data, new data, or a mix). Replay checks the on-disk
//!   data cells against the journaled CRCs: if all match, the data landed
//!   and the journaled parity is written; otherwise the crash interrupted
//!   the data writes, and parity is *recomputed* from whatever data is on
//!   disk — the un-acknowledged write may be partially visible, but the
//!   stripe is consistent either way.
//! * [`RecordMode::Redo`] (degraded stripes or active rebuild): full
//!   contents of every block the write will touch. A partial degraded
//!   write is information-destroying — the failed slot's implied content
//!   changes with the parity — so replay must be able to force the whole
//!   intent, not reconcile halves.
//! * [`RecordMode::Resync`] (the stripes a
//!   [`write_unshared`](crate::ResilientArray::write_unshared) covers
//!   whole, on a healthy array): a header with no entries that names a
//!   run of stripes — the first in the `stripe` field, the count in
//!   header bytes 23..27 — and no payload. One record covers a whole
//!   call, however many stripes it writes whole; it costs the header
//!   block(s), the commit flush, a tombstone and the retire flush.
//!   Nothing in those stripes needs its old content kept, so replay need
//!   not know the new content either: it reads every data cell of each
//!   named stripe from the medium, re-encodes, and writes every parity
//!   cell. Whatever subset of the stripe writes landed before the crash,
//!   each stripe's parity then matches its data again, so a later delta
//!   write into one of them folds into a consistent parity. A stale
//!   record — one replayed over stripes that were consistent, or that
//!   have since become live — writes the parity they already hold and
//!   changes no byte. A data cell that does not read — its slot failed
//!   with the crash, or a read error — is first rebuilt through parity
//!   from the rest of the stripe, and every parity re-encoded from it:
//!   the stripe is consistent again, and the mount reports
//!   [`Degraded`](ReplayOutcome::Degraded). Only a stripe beyond the
//!   code's tolerance is left as it is.

use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{crc32, DiskBackend};

const MAGIC_RECORD: &[u8; 4] = b"DJRN";
const MAGIC_TOMBSTONE: &[u8; 4] = b"DJRT";
const MAGIC_STATE: &[u8; 4] = b"DJST";

/// Fixed header bytes before the per-entry table: magic 0..4, seq 4..12,
/// stripe 12..20, mode 20, entry count 21..23, then 23..27: a resync
/// record's stripe count, reserved (zero, ignored) in the other modes.
pub(crate) const HEADER_FIXED: usize = 27;
/// Bytes per entry in the header table: row u16, col u16, crc u32, flag u8.
pub(crate) const ENTRY_BYTES: usize = 9;
/// Trailing CRC32 over the whole header.
const HEADER_CRC: usize = 4;

/// Smallest block a journaled array can have: a block must hold the
/// tombstone and mount-state records.
pub const MIN_BLOCK_SIZE: usize = 32;

/// Derived journal geometry for one array. Deterministic in
/// `(layout, block_size)`, so [`format`] and [`attach`] agree on it
/// without any on-disk superblock.
///
/// [`format`]: crate::ResilientArray::format_journaled
/// [`attach`]: crate::ResilientArray::attach_journaled
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JournalSpec {
    /// Data blocks per disk (`n_stripes × rows`); the journal region
    /// starts here.
    pub data_blocks: usize,
    /// Blocks of one record header.
    pub header_blocks: usize,
    /// Blocks of one record payload area (one block per journalable cell).
    pub payload_blocks: usize,
    /// Physical disks carrying a record slot.
    pub disks: usize,
    /// Bytes per block.
    pub block_size: usize,
    /// Most cells one record can carry (a full segment: every data cell
    /// plus every parity cell).
    pub max_entries: usize,
}

/// Journal blocks appended to every disk for the given code geometry —
/// what callers add to `n_stripes × rows` when sizing a backend.
pub fn journal_blocks_per_disk(layout: &CodeLayout, block_size: usize) -> usize {
    JournalSpec::for_geometry(layout, block_size, 1).blocks_per_disk()
}

impl JournalSpec {
    /// Geometry for `layout` at `block_size` over `n_stripes` stripes.
    /// Blocks must hold the tombstone and state records, hence the
    /// minimum block size.
    pub fn for_geometry(layout: &CodeLayout, block_size: usize, n_stripes: usize) -> Self {
        assert!(
            block_size >= MIN_BLOCK_SIZE,
            "journaled arrays need blocks ≥ {MIN_BLOCK_SIZE} bytes"
        );
        let parity_count = layout.parity_cells().count();
        let max_entries = layout.data_len() + parity_count;
        let header_bytes = HEADER_FIXED + ENTRY_BYTES * max_entries + HEADER_CRC;
        JournalSpec {
            data_blocks: n_stripes * layout.rows(),
            header_blocks: header_bytes.div_ceil(block_size),
            payload_blocks: max_entries,
            disks: layout.disks(),
            block_size,
            max_entries,
        }
    }

    /// Journal blocks appended to every disk: one record slot plus the
    /// reserved state block.
    pub fn blocks_per_disk(&self) -> usize {
        self.header_blocks + self.payload_blocks + 1
    }

    /// Journal bytes per disk.
    pub fn bytes_per_disk(&self) -> usize {
        self.blocks_per_disk() * self.block_size
    }

    /// First header block of the record slot (same offset on every disk).
    pub fn header_start(&self) -> usize {
        self.data_blocks
    }

    /// First payload block of the record slot.
    pub fn payload_start(&self) -> usize {
        self.data_blocks + self.header_blocks
    }

    /// The mount-state block (meaningful on disk 0; reserved elsewhere).
    pub fn state_block(&self) -> usize {
        self.data_blocks + self.header_blocks + self.payload_blocks
    }
}

/// How a record's stripe was protected when it was journaled.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RecordMode {
    /// Healthy stripe: data-cell CRCs + contents of the affected parities.
    ParityIntent,
    /// Degraded stripe or active rebuild: full contents of every touched
    /// block.
    Redo,
    /// Whole-stripe writes into stripes that held no live data: no
    /// entries, only the run of `stripes` stripes from the record's
    /// `stripe`, whose parity replay re-encodes from the data on disk.
    Resync {
        /// Stripes in the run (at least one).
        stripes: usize,
    },
}

/// One journaled cell: its position, the CRC of its *new* content, and —
/// for parity cells and redo records — the content itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecordEntry {
    /// The cell (logical coordinates; the rotation maps it to a disk).
    pub cell: Cell,
    /// CRC32 of the new content.
    pub crc: u32,
    /// The new content, for entries journaled by value.
    pub payload: Option<Vec<u8>>,
}

/// One intent record: everything replay needs to make `stripe` (a run of
/// stripes from it, for [`RecordMode::Resync`]) consistent again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IntentRecord {
    /// Monotonic sequence number (also selects the record slot).
    pub seq: u64,
    /// The stripe this record protects.
    pub stripe: usize,
    /// How to replay it.
    pub mode: RecordMode,
    /// Journaled cells, data cells first, then parity.
    pub entries: Vec<RecordEntry>,
}

/// What decoding a slot's first header block found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SlotHeader {
    /// Never written (all zero).
    Empty,
    /// A retired record.
    Tombstone(u64),
    /// A structurally valid, committed record header (payload still to be
    /// read, each block verified against its entry's CRC).
    Record(IntentRecord),
    /// Anything else — a torn or half-overwritten header. Replay discards
    /// it: the commit flush had not completed, so the stripe was never
    /// touched.
    Torn,
}

impl IntentRecord {
    /// Serialize the header into a full header-region buffer
    /// (`header_blocks × block_size`, zero padded). Every by-value entry's
    /// `crc` must be the CRC32 of its block-sized payload: it is the only
    /// check replay has on that block.
    pub fn encode_header(&self, spec: &JournalSpec) -> Vec<u8> {
        assert!(self.entries.len() <= spec.max_entries);
        let mut buf = vec![0u8; spec.header_blocks * spec.block_size];
        buf[0..4].copy_from_slice(MAGIC_RECORD);
        buf[4..12].copy_from_slice(&self.seq.to_le_bytes());
        buf[12..20].copy_from_slice(&(self.stripe as u64).to_le_bytes());
        buf[20] = match self.mode {
            RecordMode::ParityIntent => 0,
            RecordMode::Redo => 1,
            RecordMode::Resync { stripes } => {
                let stripes = u32::try_from(stripes).expect("a stripe count fits u32");
                buf[23..27].copy_from_slice(&stripes.to_le_bytes());
                2
            }
        };
        buf[21..23].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        let mut off = HEADER_FIXED;
        for e in &self.entries {
            buf[off..off + 2].copy_from_slice(&(e.cell.row as u16).to_le_bytes());
            buf[off + 2..off + 4].copy_from_slice(&(e.cell.col as u16).to_le_bytes());
            buf[off + 4..off + 8].copy_from_slice(&e.crc.to_le_bytes());
            buf[off + 8] = u8::from(e.payload.is_some());
            off += ENTRY_BYTES;
        }
        let crc = crc32(&buf[..off]);
        buf[off..off + 4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// The by-value entries, in payload-block order.
    pub fn payload_entries(&self) -> impl Iterator<Item = &RecordEntry> {
        self.entries.iter().filter(|e| e.payload.is_some())
    }

    /// Parse a header region. Returns the record with payloads unset (the
    /// flag is kept as `Some(vec![])` placeholders); the caller reads the
    /// payload blocks and checks each against its entry's CRC.
    pub fn decode_header(buf: &[u8], spec: &JournalSpec) -> SlotHeader {
        if buf.iter().all(|&b| b == 0) {
            return SlotHeader::Empty;
        }
        if buf.len() >= 16 && &buf[0..4] == MAGIC_TOMBSTONE {
            let seq = u64::from_le_bytes(buf[4..12].try_into().expect("sized"));
            let crc = u32::from_le_bytes(buf[12..16].try_into().expect("sized"));
            if crc32(&buf[..12]) == crc {
                return SlotHeader::Tombstone(seq);
            }
            return SlotHeader::Torn;
        }
        if buf.len() < HEADER_FIXED + HEADER_CRC || &buf[0..4] != MAGIC_RECORD {
            return SlotHeader::Torn;
        }
        let n = u16::from_le_bytes(buf[21..23].try_into().expect("sized")) as usize;
        if n > spec.max_entries {
            return SlotHeader::Torn;
        }
        let end = HEADER_FIXED + ENTRY_BYTES * n;
        if buf.len() < end + HEADER_CRC {
            return SlotHeader::Torn;
        }
        let stored = u32::from_le_bytes(buf[end..end + 4].try_into().expect("sized"));
        if crc32(&buf[..end]) != stored {
            return SlotHeader::Torn;
        }
        let mode = match (buf[20], n) {
            (0, _) => RecordMode::ParityIntent,
            (1, _) => RecordMode::Redo,
            (2, 0) => match u32::from_le_bytes(buf[23..27].try_into().expect("sized")) {
                0 => return SlotHeader::Torn,
                stripes => RecordMode::Resync {
                    stripes: stripes as usize,
                },
            },
            _ => return SlotHeader::Torn,
        };
        let mut entries = Vec::with_capacity(n);
        let mut off = HEADER_FIXED;
        for _ in 0..n {
            let row = u16::from_le_bytes(buf[off..off + 2].try_into().expect("sized")) as usize;
            let col = u16::from_le_bytes(buf[off + 2..off + 4].try_into().expect("sized")) as usize;
            let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().expect("sized"));
            entries.push(RecordEntry {
                cell: Cell::new(row, col),
                crc,
                payload: (buf[off + 8] != 0).then(Vec::new),
            });
            off += ENTRY_BYTES;
        }
        SlotHeader::Record(IntentRecord {
            seq: u64::from_le_bytes(buf[4..12].try_into().expect("sized")),
            stripe: u64::from_le_bytes(buf[12..20].try_into().expect("sized")) as usize,
            mode,
            entries,
        })
    }

    /// Serialize a tombstone for `seq` into one block.
    pub fn encode_tombstone(seq: u64, block_size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; block_size];
        buf[0..4].copy_from_slice(MAGIC_TOMBSTONE);
        buf[4..12].copy_from_slice(&seq.to_le_bytes());
        let crc = crc32(&buf[..12]);
        buf[12..16].copy_from_slice(&crc.to_le_bytes());
        buf
    }
}

/// Outcome of the last mount-time replay.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReplayOutcome {
    /// No live records found — the array was shut down cleanly.
    Clean,
    /// Committed records were re-applied.
    Replayed,
    /// Replay ran against unreadable blocks and had to fall back to
    /// writing journaled parity without verifying the data cells.
    Degraded,
}

impl ReplayOutcome {
    /// Human-readable name (status output).
    pub fn name(self) -> &'static str {
        match self {
            ReplayOutcome::Clean => "clean",
            ReplayOutcome::Replayed => "replayed",
            ReplayOutcome::Degraded => "degraded",
        }
    }
}

/// What mount-time replay did, persisted in the journal state block and
/// surfaced by `dcode status` / shard snapshots.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReplaySummary {
    /// Record slots scanned.
    pub scanned: u32,
    /// Committed records found live (and re-applied).
    pub replayed: u32,
    /// Torn / uncommitted records discarded by CRC.
    pub discarded: u32,
    /// How the replay went.
    pub outcome: ReplayOutcome,
}

impl Default for ReplaySummary {
    fn default() -> Self {
        ReplaySummary {
            scanned: 0,
            replayed: 0,
            discarded: 0,
            outcome: ReplayOutcome::Clean,
        }
    }
}

/// The journal's persistent mount state (one block on disk 0): how many
/// times the array was mounted and what the last replay found.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct JournalState {
    /// Mounts (format or attach) recorded so far.
    pub mounts: u64,
    /// Last mount's replay summary.
    pub last: ReplaySummary,
}

impl JournalState {
    /// Serialize into one block.
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; block_size];
        buf[0..4].copy_from_slice(MAGIC_STATE);
        buf[4..12].copy_from_slice(&self.mounts.to_le_bytes());
        buf[12..16].copy_from_slice(&self.last.scanned.to_le_bytes());
        buf[16..20].copy_from_slice(&self.last.replayed.to_le_bytes());
        buf[20..24].copy_from_slice(&self.last.discarded.to_le_bytes());
        buf[24] = match self.last.outcome {
            ReplayOutcome::Clean => 0,
            ReplayOutcome::Replayed => 1,
            ReplayOutcome::Degraded => 2,
        };
        let crc = crc32(&buf[..25]);
        buf[25..29].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parse a state block; `None` for anything but a valid state record.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 29 || &buf[0..4] != MAGIC_STATE {
            return None;
        }
        let crc = u32::from_le_bytes(buf[25..29].try_into().ok()?);
        if crc32(&buf[..25]) != crc {
            return None;
        }
        let outcome = match buf[24] {
            0 => ReplayOutcome::Clean,
            1 => ReplayOutcome::Replayed,
            2 => ReplayOutcome::Degraded,
            _ => return None,
        };
        Some(JournalState {
            mounts: u64::from_le_bytes(buf[4..12].try_into().ok()?),
            last: ReplaySummary {
                scanned: u32::from_le_bytes(buf[12..16].try_into().ok()?),
                replayed: u32::from_le_bytes(buf[16..20].try_into().ok()?),
                discarded: u32::from_le_bytes(buf[20..24].try_into().ok()?),
                outcome,
            },
        })
    }
}

/// A read-only sweep over the journal region (status reporting — replay
/// itself lives in [`ResilientArray`](crate::ResilientArray)).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JournalScan {
    /// Live (committed, unretired) records as `(disk, seq, stripe)`.
    pub live: Vec<(usize, u64, usize)>,
    /// Retired slots.
    pub tombstones: usize,
    /// Torn or unreadable slots.
    pub torn: usize,
    /// Never-written slots.
    pub empty: usize,
    /// The persistent mount state, if disk 0's state block is valid.
    pub state: Option<JournalState>,
}

/// Scan every record slot and the state block without modifying anything.
pub fn scan_journal<B: DiskBackend>(backend: &mut B, spec: &JournalSpec) -> JournalScan {
    let mut out = JournalScan {
        live: Vec::new(),
        tombstones: 0,
        torn: 0,
        empty: 0,
        state: None,
    };
    let bs = spec.block_size;
    for disk in 0..spec.disks {
        let mut header = vec![0u8; spec.header_blocks * bs];
        let mut readable = true;
        for hb in 0..spec.header_blocks {
            if backend
                .read_block(
                    disk,
                    spec.header_start() + hb,
                    &mut header[hb * bs..(hb + 1) * bs],
                )
                .is_err()
            {
                readable = false;
                break;
            }
        }
        if !readable {
            out.torn += 1;
            continue;
        }
        match IntentRecord::decode_header(&header, spec) {
            SlotHeader::Empty => out.empty += 1,
            SlotHeader::Tombstone(_) => out.tombstones += 1,
            SlotHeader::Torn => out.torn += 1,
            SlotHeader::Record(rec) => out.live.push((disk, rec.seq, rec.stripe)),
        }
    }
    let mut state = vec![0u8; bs];
    if backend
        .read_block(0, spec.state_block(), &mut state)
        .is_ok()
    {
        out.state = JournalState::decode(&state);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    fn spec() -> JournalSpec {
        JournalSpec::for_geometry(&dcode(5).unwrap(), 32, 3)
    }

    /// A by-value entry carrying `content`, with its real CRC.
    fn by_value(cell: Cell, content: Vec<u8>) -> RecordEntry {
        RecordEntry {
            cell,
            crc: crc32(&content),
            payload: Some(content),
        }
    }

    fn sample(spec: &JournalSpec) -> IntentRecord {
        IntentRecord {
            seq: 7,
            stripe: 2,
            mode: RecordMode::ParityIntent,
            entries: vec![
                RecordEntry {
                    cell: Cell::new(0, 1),
                    crc: 0xDEAD_BEEF,
                    payload: None,
                },
                by_value(Cell::new(3, 2), vec![0xAB; spec.block_size]),
            ],
        }
    }

    #[test]
    fn header_roundtrips() {
        let spec = spec();
        let rec = sample(&spec);
        let buf = rec.encode_header(&spec);
        assert_eq!(buf.len(), spec.header_blocks * spec.block_size);
        match IntentRecord::decode_header(&buf, &spec) {
            SlotHeader::Record(got) => {
                assert_eq!(got.seq, rec.seq);
                assert_eq!(got.stripe, rec.stripe);
                assert_eq!(got.mode, rec.mode);
                assert_eq!(got.entries.len(), 2);
                assert_eq!(got.entries[0].cell, Cell::new(0, 1));
                assert_eq!(got.entries[0].payload, None);
                assert_eq!(got.entries[1].crc, rec.entries[1].crc);
                assert_eq!(got.entries[1].payload, Some(Vec::new()));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    /// Bytes 23..27 once carried a CRC over the whole payload. They are
    /// written as zero now and ignored on read, so a header an earlier
    /// version wrote decodes to the same record.
    #[test]
    fn reserved_header_bytes_are_zero_and_ignored() {
        let spec = spec();
        let rec = sample(&spec);
        let buf = rec.encode_header(&spec);
        assert_eq!(buf[23..27], [0; 4]);
        let mut old = buf.clone();
        old[23..27].copy_from_slice(&0x1234_5678_u32.to_le_bytes());
        let end = HEADER_FIXED + ENTRY_BYTES * rec.entries.len();
        let crc = crc32(&old[..end]);
        old[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            IntentRecord::decode_header(&old, &spec),
            IntentRecord::decode_header(&buf, &spec)
        );
        assert!(matches!(
            IntentRecord::decode_header(&old, &spec),
            SlotHeader::Record(_)
        ));
    }

    #[test]
    fn a_resync_header_names_a_run_of_stripes_and_carries_no_entry() {
        let spec = spec();
        let rec = IntentRecord {
            seq: 11,
            stripe: 1,
            mode: RecordMode::Resync { stripes: 2 },
            entries: Vec::new(),
        };
        let buf = rec.encode_header(&spec);
        assert_eq!(buf[23..27], 2u32.to_le_bytes());
        assert_eq!(
            IntentRecord::decode_header(&buf, &spec),
            SlotHeader::Record(rec.clone())
        );
        // A count of zero, or a resync with entries, is no record.
        let reseal = |mut buf: Vec<u8>, entries: usize| {
            let end = HEADER_FIXED + ENTRY_BYTES * entries;
            let crc = crc32(&buf[..end]);
            buf[end..end + 4].copy_from_slice(&crc.to_le_bytes());
            buf
        };
        let mut zero = buf.clone();
        zero[23..27].fill(0);
        let zero = reseal(zero, 0);
        assert_eq!(IntentRecord::decode_header(&zero, &spec), SlotHeader::Torn);
        let mut with_entry = sample(&spec).encode_header(&spec);
        with_entry[20] = 2;
        with_entry[23..27].copy_from_slice(&1u32.to_le_bytes());
        let with_entry = reseal(with_entry, 2);
        assert_eq!(
            IntentRecord::decode_header(&with_entry, &spec),
            SlotHeader::Torn
        );
    }

    #[test]
    fn torn_headers_are_rejected() {
        let spec = spec();
        let rec = sample(&spec);
        let mut buf = rec.encode_header(&spec);
        buf[30] ^= 0x01; // corrupt an entry byte under the CRC
        assert_eq!(IntentRecord::decode_header(&buf, &spec), SlotHeader::Torn);
        // A half-written header (tail still zero) is torn, not a record.
        // Cut inside the fixed fields so real content is actually lost.
        let mut half = rec.encode_header(&spec);
        let keep = HEADER_FIXED - 5;
        half[keep..].iter_mut().for_each(|b| *b = 0);
        assert_eq!(IntentRecord::decode_header(&half, &spec), SlotHeader::Torn);
        // All-zero is empty.
        assert_eq!(
            IntentRecord::decode_header(&vec![0u8; buf.len()], &spec),
            SlotHeader::Empty
        );
    }

    #[test]
    fn tombstone_and_state_roundtrip() {
        let spec = spec();
        let tomb = IntentRecord::encode_tombstone(42, spec.block_size);
        assert_eq!(
            IntentRecord::decode_header(&tomb, &spec),
            SlotHeader::Tombstone(42)
        );
        let st = JournalState {
            mounts: 9,
            last: ReplaySummary {
                scanned: 5,
                replayed: 1,
                discarded: 2,
                outcome: ReplayOutcome::Replayed,
            },
        };
        let buf = st.encode(spec.block_size);
        assert_eq!(JournalState::decode(&buf), Some(st));
        assert_eq!(JournalState::decode(&[0u8; 32]), None);
    }

    #[test]
    fn geometry_is_deterministic_and_fits() {
        for p in [5usize, 7, 11] {
            let layout = dcode(p).unwrap();
            let a = JournalSpec::for_geometry(&layout, 64, 4);
            let b = JournalSpec::for_geometry(&layout, 64, 4);
            assert_eq!(a, b);
            assert_eq!(a.blocks_per_disk(), journal_blocks_per_disk(&layout, 64));
            // Header region really holds the worst-case entry table.
            let worst = HEADER_FIXED + ENTRY_BYTES * a.max_entries + HEADER_CRC;
            assert!(a.header_blocks * 64 >= worst);
            assert_eq!(a.state_block(), a.data_blocks + a.blocks_per_disk() - 1);
        }
    }
}
