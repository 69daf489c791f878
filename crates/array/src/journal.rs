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
//! 2. the header — magic, seq, stripe, mode, per-cell CRCs, a CRC over
//!    the payload bytes, and a trailing CRC over the header itself — is
//!    written after the payload. The payload CRC is folded from the
//!    by-value entries' CRCs with [`Crc32Shift`] rather than hashed
//!    again: the bytes are the same as hashing the concatenated payload,
//!    and replay still hashes the payload it reads back,
//! 3. the journal disk is flushed: the record is now *committed*,
//! 4. the stripe writes are applied and their disks flushed,
//! 5. the header's first block is overwritten with a tombstone and the
//!    journal disk flushed again: the record is *retired*.
//!
//! A crash before (3) leaves a record whose header or payload CRC cannot
//! both validate — replay discards it (the stripe was never touched). A
//! crash after (3) leaves a valid record — replay re-applies it. Replay
//! is idempotent because records carry *content*, not deltas.
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

use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{crc32, Crc32Shift, DiskBackend};

const MAGIC_RECORD: &[u8; 4] = b"DJRN";
const MAGIC_TOMBSTONE: &[u8; 4] = b"DJRT";
const MAGIC_STATE: &[u8; 4] = b"DJST";

/// Fixed header bytes before the per-entry table.
const HEADER_FIXED: usize = 27;
/// Bytes per entry in the header table: row u16, col u16, crc u32, flag u8.
const ENTRY_BYTES: usize = 9;
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
    /// Appends one block to a CRC: folds the payload CRC from the entry
    /// CRCs. Built once here, never per record.
    block_crc: Crc32Shift,
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
            block_crc: Crc32Shift::new(block_size),
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

/// One intent record: everything replay needs to make `stripe`
/// consistent again.
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
    /// read and verified against the embedded payload CRC).
    Record(IntentRecord, u32),
    /// Anything else — a torn or half-overwritten header. Replay discards
    /// it: the commit flush had not completed, so the stripe was never
    /// touched.
    Torn,
}

impl IntentRecord {
    /// Serialize the header into a full header-region buffer
    /// (`header_blocks × block_size`, zero padded). Every by-value entry's
    /// `crc` must be the CRC32 of its block-sized payload: the payload CRC
    /// is folded from them, not hashed.
    pub fn encode_header(&self, spec: &JournalSpec) -> Vec<u8> {
        assert!(self.entries.len() <= spec.max_entries);
        let mut buf = vec![0u8; spec.header_blocks * spec.block_size];
        buf[0..4].copy_from_slice(MAGIC_RECORD);
        buf[4..12].copy_from_slice(&self.seq.to_le_bytes());
        buf[12..20].copy_from_slice(&(self.stripe as u64).to_le_bytes());
        buf[20] = match self.mode {
            RecordMode::ParityIntent => 0,
            RecordMode::Redo => 1,
        };
        buf[21..23].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        let payload_crc = self
            .payload_entries()
            .fold(0, |acc, e| spec.block_crc.combine(acc, e.crc));
        buf[23..27].copy_from_slice(&payload_crc.to_le_bytes());
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

    /// CRC32 over the concatenated payload bytes, in entry order: the
    /// hashing formula [`encode_header`](IntentRecord::encode_header)'s
    /// fold must reproduce.
    #[cfg(test)]
    fn payload_crc(&self) -> u32 {
        let mut all = Vec::new();
        for e in &self.entries {
            if let Some(p) = &e.payload {
                all.extend_from_slice(p);
            }
        }
        crc32(&all)
    }

    /// The by-value entries, in payload-block order.
    pub fn payload_entries(&self) -> impl Iterator<Item = &RecordEntry> {
        self.entries.iter().filter(|e| e.payload.is_some())
    }

    /// Parse a header region. Returns the record with payloads unset (the
    /// flag is kept as `Some(vec![])` placeholders) plus the payload CRC
    /// the caller must verify after reading the payload blocks.
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
        let mode = match buf[20] {
            0 => RecordMode::ParityIntent,
            1 => RecordMode::Redo,
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
        let payload_crc = u32::from_le_bytes(buf[23..27].try_into().expect("sized"));
        SlotHeader::Record(
            IntentRecord {
                seq: u64::from_le_bytes(buf[4..12].try_into().expect("sized")),
                stripe: u64::from_le_bytes(buf[12..20].try_into().expect("sized")) as usize,
                mode,
                entries,
            },
            payload_crc,
        )
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
            SlotHeader::Record(rec, _) => out.live.push((disk, rec.seq, rec.stripe)),
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
            SlotHeader::Record(got, payload_crc) => {
                assert_eq!(got.seq, rec.seq);
                assert_eq!(got.stripe, rec.stripe);
                assert_eq!(got.mode, rec.mode);
                assert_eq!(got.entries.len(), 2);
                assert_eq!(got.entries[0].cell, Cell::new(0, 1));
                assert_eq!(got.entries[0].payload, None);
                assert_eq!(got.entries[1].payload, Some(Vec::new()));
                assert_eq!(payload_crc, rec.payload_crc());
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    /// The on-medium header carries the CRC of the concatenated payload.
    /// Folding the entry CRCs must give that header byte for byte, for
    /// records of every shape, or a journal would not replay across
    /// versions.
    #[test]
    fn encode_header_is_byte_identical_to_the_hashing_formula() {
        let layout = dcode(5).unwrap();
        let spec = JournalSpec::for_geometry(&layout, 48, 3);
        let cells: Vec<Cell> = layout.grid().cells().collect();
        let mut seed = 0x5EED_u64;
        let mut record = |mode, by_ref: usize, by_val: usize| {
            let mut entries = Vec::new();
            for (k, &cell) in cells[..by_ref + by_val].iter().enumerate() {
                let content: Vec<u8> = (0..spec.block_size)
                    .map(|_| {
                        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        (seed >> 56) as u8
                    })
                    .collect();
                let mut entry = by_value(cell, content);
                if k < by_ref {
                    entry.payload = None;
                }
                entries.push(entry);
            }
            IntentRecord {
                seq: 41,
                stripe: 1,
                mode,
                entries,
            }
        };
        let records = [
            record(RecordMode::ParityIntent, 1, 2),
            record(RecordMode::ParityIntent, 5, 14),
            record(RecordMode::Redo, 0, spec.max_entries),
        ];
        for rec in records {
            let got = rec.encode_header(&spec);
            let mut want = got.clone();
            want[23..27].copy_from_slice(&rec.payload_crc().to_le_bytes());
            let end = HEADER_FIXED + ENTRY_BYTES * rec.entries.len();
            let header_crc = crc32(&want[..end]);
            want[end..end + 4].copy_from_slice(&header_crc.to_le_bytes());
            assert_eq!(
                got,
                want,
                "{:?} with {} entries",
                rec.mode,
                rec.entries.len()
            );
        }
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
