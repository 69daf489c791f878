//! The journal region is input from the medium: whatever bytes a torn
//! write, rot or a hostile disk leaves in a record slot or the state
//! block, the decoders answer with a value — a record, a tombstone,
//! `Torn`, `Empty`, a state or `None` — and never panic. A header whose
//! CRC a hostile disk re-sealed over out-of-range fields reaches replay;
//! `attach_journaled` then mounts or returns a typed error, and never
//! panics either.

use dcode_array::journal::{
    IntentRecord, JournalSpec, JournalState, RecordEntry, RecordMode, ReplayOutcome, ReplaySummary,
    SlotHeader,
};
use dcode_array::{journal_blocks_per_disk, ResilientArray, RetryPolicy, RotationScheme};
use dcode_core::dcode::dcode;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{crc32, DiskBackend, MemBackend};
use proptest::prelude::*;

const BLOCK: usize = 32;
const STRIPES: usize = 3;
/// Magic, seq, stripe, mode, entry count and the resync run; then
/// `row u16 · col u16 · crc u32 · flag u8` per entry and a CRC over all.
const HEADER_FIXED: usize = 27;
const ENTRY_BYTES: usize = 9;
/// Bytes a tombstone's and a state block's CRC covers, CRC included.
const TOMBSTONE_COVERED: usize = 16;
const STATE_COVERED: usize = 29;

fn layout() -> CodeLayout {
    dcode(5).unwrap()
}

fn spec() -> JournalSpec {
    JournalSpec::for_geometry(&layout(), BLOCK, STRIPES)
}

/// A record drawn from `pick`: any mode, any seq and stripe, cells in
/// and out of the grid, payload flags on and off.
fn record(spec: &JournalSpec, mode: u8, pick: &[u64]) -> IntentRecord {
    let mode = match mode % 3 {
        0 => RecordMode::ParityIntent,
        1 => RecordMode::Redo,
        _ => RecordMode::Resync {
            stripes: 1 + (pick[2] % u64::from(u32::MAX)) as usize,
        },
    };
    let entries = match mode {
        RecordMode::Resync { .. } => Vec::new(),
        _ => pick[3..]
            .iter()
            .take(spec.max_entries)
            .map(|&p| RecordEntry {
                cell: Cell::new((p & 0xFFFF) as usize, ((p >> 16) & 0xFFFF) as usize),
                crc: (p >> 32) as u32,
                payload: (p & (1 << 20) != 0).then(|| vec![p as u8; BLOCK]),
            })
            .collect(),
    };
    IntentRecord {
        seq: pick[0],
        stripe: pick[1] as usize,
        mode,
        entries,
    }
}

/// What `decode_header` gives back for a record it wrote: payloads are
/// read later, so each by-value entry comes back as an empty placeholder.
fn as_decoded(rec: &IntentRecord) -> SlotHeader {
    let mut rec = rec.clone();
    for e in &mut rec.entries {
        e.payload = e.payload.as_ref().map(|_| Vec::new());
    }
    SlotHeader::Record(rec)
}

fn state(pick: &[u64]) -> JournalState {
    JournalState {
        mounts: pick[0],
        last: ReplaySummary {
            scanned: pick[1] as u32,
            replayed: (pick[1] >> 32) as u32,
            discarded: pick[2] as u32,
            outcome: [
                ReplayOutcome::Clean,
                ReplayOutcome::Replayed,
                ReplayOutcome::Degraded,
            ][(pick[2] >> 32) as usize % 3],
        },
    }
}

/// One valid encoding of each kind: its bytes, how many leading bytes its
/// CRC covers (the CRC included), and what it decodes to, as a header
/// and as a state block.
fn encoding(spec: &JournalSpec, kind: u8, pick: &[u64]) -> (Vec<u8>, usize, String) {
    match kind % 3 {
        0 => {
            let rec = record(spec, (pick[0] >> 8) as u8, pick);
            let covered = HEADER_FIXED + ENTRY_BYTES * rec.entries.len() + 4;
            (
                rec.encode_header(spec),
                covered,
                format!("{:?}", as_decoded(&rec)),
            )
        }
        1 => {
            let tomb = IntentRecord::encode_tombstone(pick[0], BLOCK);
            let decoded = SlotHeader::Tombstone(pick[0]);
            (tomb, TOMBSTONE_COVERED, format!("{decoded:?}"))
        }
        _ => {
            let st = state(pick);
            (st.encode(BLOCK), STATE_COVERED, format!("{:?}", Some(st)))
        }
    }
}

/// Decode `bytes` the way its kind is read: a slot header, or the state
/// block.
fn decode(spec: &JournalSpec, kind: u8, bytes: &[u8]) -> String {
    match kind % 3 {
        0 | 1 => format!("{:?}", IntentRecord::decode_header(bytes, spec)),
        _ => format!("{:?}", JournalState::decode(bytes)),
    }
}

/// Decoding `bytes` as a header and as a state block returns, and what a
/// header decodes to holds its own invariants.
fn decodes_without_panic(spec: &JournalSpec, bytes: &[u8]) {
    if let SlotHeader::Record(rec) = IntentRecord::decode_header(bytes, spec) {
        assert!(rec.entries.len() <= spec.max_entries, "{bytes:02x?}");
        if let RecordMode::Resync { stripes } = rec.mode {
            assert!(stripes > 0 && rec.entries.is_empty(), "{bytes:02x?}");
        }
    }
    let _ = JournalState::decode(bytes);
}

/// Re-seal a header's CRC over its first `entries` entries, as a disk
/// that forges records would.
fn reseal(buf: &mut [u8], entries: usize) {
    let end = HEADER_FIXED + ENTRY_BYTES * entries;
    let crc = crc32(&buf[..end]);
    buf[end..end + 4].copy_from_slice(&crc.to_le_bytes());
}

/// A formatted, journaled D-Code p = 5 medium holding data in every
/// stripe.
fn formatted() -> MemBackend {
    let layout = layout();
    let blocks = STRIPES * layout.rows() + journal_blocks_per_disk(&layout, BLOCK);
    let backend = MemBackend::new(layout.disks(), blocks, BLOCK);
    let mut array = ResilientArray::format_journaled(
        layout,
        BLOCK,
        STRIPES,
        RotationScheme::PerStripe,
        backend,
        RetryPolicy::default(),
        4,
    );
    let data: Vec<u8> = (0..array.capacity_bytes()).map(|i| i as u8).collect();
    array.write(0, &data).unwrap();
    array.into_backend()
}

/// A number a hostile field holds: small, at the array's edge, or
/// past anything an index or a sum holds.
fn hostile(pick: u64, small: u64) -> u64 {
    match pick % 5 {
        0 | 1 => (pick >> 8) % small,
        2 => small + (pick >> 8) % 3,
        3 => u64::MAX - (pick >> 8) % 3,
        _ => pick >> 8,
    }
}

/// Plant in `disk`'s slot a record header with a re-sealed CRC over
/// hostile fields: its seq, stripe, mode and resync run, its entries'
/// cells and payload flags. One of stripe, run or first cell is drawn
/// hostile at a time (or none), so half the records fit the geometry and
/// get replayed. By-value entries get payload blocks whose CRCs match, so
/// the record gets past the payload check to `record_in_bounds` and, when
/// that passes, to `apply_record`.
fn plant_hostile(medium: &mut MemBackend, spec: &JournalSpec, disk: usize, pick: &[u64]) {
    let layout = layout();
    let target = pick[3] >> 62;
    let field = |p: u64, small: u64, which: u64| match target == which {
        true => hostile(p, small),
        false => (p >> 8) % small,
    };
    let mut buf = vec![0u8; spec.header_blocks * BLOCK];
    buf[0..4].copy_from_slice(b"DJRN");
    buf[4..12].copy_from_slice(&hostile(pick[0], 64).to_le_bytes());
    buf[12..20].copy_from_slice(&field(pick[1], STRIPES as u64, 0).to_le_bytes());
    buf[20] = (pick[2] % 4) as u8;
    let run = field(pick[2] >> 2, STRIPES as u64 + 1, 1) as u32;
    buf[23..27].copy_from_slice(&run.to_le_bytes());
    let n = if buf[20] == 2 && pick[2] & (1 << 40) == 0 {
        0
    } else {
        (pick[3] as usize % (spec.max_entries + 1)).min(pick.len() - 4)
    };
    buf[21..23].copy_from_slice(&(n as u16).to_le_bytes());
    let mut payload = 0;
    for (k, &p) in pick[4..4 + n].iter().enumerate() {
        let which = if k == 0 { 2 } else { 3 };
        let row = field(p, layout.rows() as u64, which) as u16;
        let col = field(p >> 16, layout.disks() as u64, which) as u16;
        let flag = [0u8, 1, 0xFF][(p >> 40) as usize % 3];
        let block = vec![(p >> 48) as u8; BLOCK];
        // A by-value entry's CRC vouches for its payload block; a data
        // entry's is compared with the cell on disk, so any will do.
        let crc = if flag == 0 {
            (p >> 24) as u32
        } else {
            crc32(&block)
        };
        if flag != 0 {
            medium
                .write_block(disk, spec.payload_start() + payload, &block)
                .unwrap();
            payload += 1;
        }
        let off = HEADER_FIXED + ENTRY_BYTES * k;
        buf[off..off + 2].copy_from_slice(&row.to_le_bytes());
        buf[off + 2..off + 4].copy_from_slice(&col.to_le_bytes());
        buf[off + 4..off + 8].copy_from_slice(&crc.to_le_bytes());
        buf[off + 8] = flag;
    }
    reseal(&mut buf, n);
    for (k, chunk) in buf.chunks(BLOCK).enumerate() {
        medium
            .write_block(disk, spec.header_start() + k, chunk)
            .unwrap();
    }
}

/// Every journal block replay must not write: all of each slot but its
/// first header block (where a record is retired) and disk 0's state
/// block. A record replayed outside the data region would land here.
fn journal_tail(medium: &mut MemBackend, spec: &JournalSpec) -> Vec<u8> {
    let mut bytes = vec![0u8; BLOCK];
    let mut tail = Vec::new();
    for disk in 0..spec.disks {
        for block in spec.header_start() + 1..spec.state_block() {
            medium.read_block(disk, block, &mut bytes).unwrap();
            tail.extend_from_slice(&bytes);
        }
    }
    tail
}

/// Mount over `medium`: `Ok` or a typed error. Replay writes nothing in
/// the journal tail, and a mounted array takes a write and reads it
/// back — the sequence numbers the hostile slots claimed now number its
/// records.
fn mount_and_use(mut medium: MemBackend) {
    let spec = spec();
    let tail = journal_tail(&mut medium, &spec);
    let mounted = ResilientArray::attach_journaled(
        layout(),
        BLOCK,
        STRIPES,
        RotationScheme::PerStripe,
        medium,
        RetryPolicy::default(),
        4,
    );
    if let Ok(mut array) = mounted {
        assert!(
            journal_tail(array.backend_mut(), &spec) == tail,
            "replay wrote into the journal"
        );
        let data = vec![0x5A; 2 * BLOCK];
        array.write(1, &data).unwrap();
        assert_eq!(array.read(1, 2).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes with no structure, and bytes behind each magic with a small
    /// entry count, so the parsers run past their first check.
    #[test]
    fn arbitrary_bytes_decode_without_panic(
            raw in prop::collection::vec(any::<u8>(), 0..=160),
            count in 0u16..12) {
        let spec = spec();
        decodes_without_panic(&spec, &raw);
        for magic in [b"DJRN", b"DJRT", b"DJST"] {
            let mut headed = raw.clone();
            headed.resize(headed.len().max(HEADER_FIXED), 0);
            headed[0..4].copy_from_slice(magic);
            headed[21..23].copy_from_slice(&count.to_le_bytes());
            decodes_without_panic(&spec, &headed);
        }
    }

    /// Every valid encoding — records of all three modes, tombstones,
    /// state blocks — round-trips; cut short of its CRC it is `Torn` or
    /// `None` (`Empty` when nothing is left); one byte flipped inside the
    /// CRC-covered prefix is `Torn` or `None`, and outside it changes
    /// nothing.
    #[test]
    fn valid_encodings_round_trip_and_damage_is_caught(
            kind in 0u8..3,
            pick in prop::collection::vec(any::<u64>(), 3..=40),
            at in any::<usize>(),
            xor in 1u8..=255) {
        let spec = spec();
        let (bytes, covered, want) = encoding(&spec, kind, &pick);
        let refused = |bytes: &[u8]| match kind % 3 {
            0 | 1 if bytes.is_empty() => "Empty".to_string(),
            0 | 1 => "Torn".to_string(),
            _ => "None".to_string(),
        };
        prop_assert_eq!(decode(&spec, kind, &bytes), want.clone());

        let cut = at % bytes.len();
        let short = decode(&spec, kind, &bytes[..cut]);
        if cut >= covered {
            prop_assert_eq!(short, want.clone(), "cut at {}", cut);
        } else {
            prop_assert_eq!(short, refused(&bytes[..cut]), "cut at {}", cut);
        }

        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= xor;
        let got = decode(&spec, kind, &flipped);
        if at % bytes.len() < covered {
            prop_assert_eq!(got, refused(&flipped), "flip at {}", at % bytes.len());
        } else {
            prop_assert_eq!(got, want, "flip at {}", at % bytes.len());
        }
    }

    /// Up to one forged record per slot, the rest of the medium as
    /// formatted: replay validates each against the array's geometry
    /// before it applies it.
    #[test]
    fn resealed_hostile_headers_mount_or_are_refused(
            slots in 1usize..=5,
            pick in prop::collection::vec(any::<u64>(), 5 * 40)) {
        let spec = spec();
        let mut medium = formatted();
        for (disk, pick) in pick.chunks(40).take(slots).enumerate() {
            plant_hostile(&mut medium, &spec, disk, pick);
        }
        mount_and_use(medium);
    }
}

/// The two panics the mount property found, kept: a tombstone at the
/// last sequence number overflowed the mount's `seq + 1`, and a live
/// record at the one before made the first write after the mount
/// overflow the next number.
#[test]
fn sequence_numbers_at_the_top_of_u64_mount_and_take_writes() {
    let spec = spec();
    let resync = IntentRecord {
        seq: u64::MAX - 1,
        stripe: 0,
        mode: RecordMode::Resync { stripes: 1 },
        entries: Vec::new(),
    };
    let slots = [
        IntentRecord::encode_tombstone(u64::MAX, BLOCK),
        resync.encode_header(&spec),
    ];
    for slot in slots {
        let mut medium = formatted();
        for (k, chunk) in slot.chunks(BLOCK).enumerate() {
            medium
                .write_block(0, spec.header_start() + k, chunk)
                .unwrap();
        }
        mount_and_use(medium);
    }
}
