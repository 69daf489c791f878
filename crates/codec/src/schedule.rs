//! Compiled XOR schedules — the plan compiler.
//!
//! [`encode`](crate::encode::encode) and
//! [`apply_plan`](crate::decode::apply_plan) are *interpreters*: every
//! equation walk re-resolves `Cell`s through the layout's maps and
//! allocates a fresh accumulator. This module lowers a layout's encode
//! order — or any symbolic [`RecoveryPlan`] — once, into a flat
//! [`XorProgram`]: a sequence of ops stored as contiguous `u32` arrays of
//! block indices. Replaying the program touches no `BTreeMap`, builds
//! no per-equation `Vec`, and allocates nothing per operation: the target
//! block itself is detached from the stripe (`std::mem::take` on a
//! `Box<[u8]>` is allocation-free) and used as the accumulator, while
//! sources are gathered straight out of the stripe through the
//! multi-source kernel in [`crate::xor`].
//!
//! Replay is **tile-major** ([`XorProgram::run_with_tile`]): for each
//! tile-sized byte range of the blocks, *every* op runs over just that
//! range before the range advances. XOR is elementwise — byte `k` of a
//! target depends only on byte `k` of its sources — so restricting all
//! ops to one byte range preserves the program's data dependencies
//! exactly (a later op reads an earlier op's target only within the range
//! that op has already written), while a tile of every block in the
//! stripe stays cache-resident: each source byte is pulled from memory
//! once no matter how many equations read it. A block no larger than the
//! tile is a single iteration, i.e. plain op-major order. This is the
//! one sequential replay loop in the codec; a recovery subprogram, a
//! single-stripe write and a many-stripe bulk encode
//! ([`crate::bulk`]) all go through it.
//!
//! Programs are pure data (`Send + Sync + Clone`), so one compiled
//! schedule can drive any number of stripes or threads.

use crate::stripe::Stripe;
use crate::tile::{fused_tile_bytes, TILE_CANDIDATES};
use crate::xor::xor_tile;
use dcode_core::decoder::RecoveryPlan;
use dcode_core::grid::Grid;
use dcode_core::layout::CodeLayout;
use dcode_core::Fnv1a;

/// A compiled XOR program: `ops[k]` writes block `targets[k]` with the XOR
/// of blocks `sources[src_off[k]..src_off[k+1]]` (all linear grid
/// indices). Replay runs the ops in index order, so an op may read any
/// block an earlier op wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XorProgram {
    grid: Grid,
    targets: Vec<u32>,
    /// `ops + 1` entries; op `k`'s sources live at `src_off[k]..src_off[k+1]`.
    src_off: Vec<u32>,
    sources: Vec<u32>,
    /// FNV-1a over the grid shape and flat arrays, computed once at
    /// construction. Deterministic in the content, so the derived equality
    /// stays consistent; analysis reports name programs by it.
    fingerprint: u64,
}

/// Length-prefixed FNV-1a over the grid dimensions and flat arrays
/// (prefixing keeps adjacent arrays from aliasing into the same stream).
fn content_fingerprint(grid: Grid, targets: &[u32], src_off: &[u32], sources: &[u32]) -> u64 {
    let mut fp = Fnv1a::new();
    fp.word(grid.rows as u64);
    fp.word(grid.cols as u64);
    for arr in [targets, src_off, sources] {
        fp.word(arr.len() as u64);
        for &w in arr {
            fp.word(u64::from(w));
        }
    }
    fp.finish()
}

impl XorProgram {
    /// Lower `layout`'s full-stripe encode into a program: one op per
    /// parity equation, in [`CodeLayout::dependency_levels`] order (every
    /// parity an equation reads is written by an earlier op).
    pub fn compile_encode(layout: &CodeLayout) -> Self {
        let grid = layout.grid();
        let mut b = ProgramBuilder::new(grid);
        for eq_idx in layout.dependency_levels().concat() {
            let eq = layout.equation(eq_idx);
            b.op(
                grid.index(eq.parity),
                eq.members.iter().map(|&m| grid.index(m)),
            );
        }
        b.finish()
    }

    /// Lower a symbolic recovery plan into a program: one op per
    /// [`RecoveryStep`](dcode_core::decoder::RecoveryStep), stably sorted
    /// by dependency depth (a step reading an earlier step's target sits
    /// one deeper than its deepest producer; steps reading only survivors
    /// are depth 0). Every producer still precedes its readers, so replay
    /// stays byte-identical to [`crate::decode::apply_plan`].
    pub fn compile_plan(grid: Grid, plan: &RecoveryPlan) -> Self {
        // Depth of the producing step for each recovered cell; surviving
        // sources have no producer.
        let mut produced_at: Vec<Option<u32>> = vec![None; grid.len()];
        let mut depth = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let d = step
                .sources
                .iter()
                .filter_map(|&s| produced_at[grid.index(s)])
                .max()
                .map_or(0, |deepest| deepest + 1);
            depth.push(d);
            produced_at[grid.index(step.target)] = Some(d);
        }
        let mut order: Vec<usize> = (0..plan.steps.len()).collect();
        order.sort_by_key(|&i| depth[i]);
        let mut b = ProgramBuilder::new(grid);
        for i in order {
            let step = &plan.steps[i];
            b.op(
                grid.index(step.target),
                step.sources.iter().map(|&s| grid.index(s)),
            );
        }
        b.finish()
    }

    /// Grid shape this program was compiled for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Content fingerprint (FNV-1a over the grid shape and flat arrays),
    /// computed at construction. Equal programs have equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Linear grid index of the block op `op` writes.
    pub fn op_target(&self, op: usize) -> usize {
        self.targets[op] as usize
    }

    /// Linear grid indices of the blocks op `op` reads, in XOR order.
    pub fn op_sources(&self, op: usize) -> &[u32] {
        &self.sources[self.src_off[op] as usize..self.src_off[op + 1] as usize]
    }

    /// Rebuild a program from its flat arrays. Only *structural* shape is
    /// asserted (monotone offsets covering every op); the semantic
    /// invariants — in-range indices, no self-reference — are deliberately
    /// *not* enforced, so verification tooling (`dcode-verify`) can
    /// construct known-bad programs and prove its own checks reject them.
    pub fn from_raw_parts(
        grid: Grid,
        targets: Vec<u32>,
        src_off: Vec<u32>,
        sources: Vec<u32>,
    ) -> Self {
        assert_eq!(src_off.len(), targets.len() + 1, "src_off must cover ops");
        assert!(
            src_off.windows(2).all(|w| w[0] <= w[1])
                && src_off.first() == Some(&0)
                && *src_off.last().expect("non-empty") as usize == sources.len(),
            "src_off must be monotone over sources"
        );
        let fingerprint = content_fingerprint(grid, &targets, &src_off, &sources);
        XorProgram {
            grid,
            targets,
            src_off,
            sources,
            fingerprint,
        }
    }

    /// The program's flat arrays `(targets, src_off, sources)`, cloned
    /// out. Inverse of [`XorProgram::from_raw_parts`]; used by
    /// verification tooling to derive mutated copies.
    pub fn raw_parts(&self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        (
            self.targets.clone(),
            self.src_off.clone(),
            self.sources.clone(),
        )
    }

    /// Debug-build guard run by the compilers: every index in range, and
    /// no compiled op may be empty, list a source twice, or clone an
    /// earlier op (same target, same source set). These are the cheap
    /// structural facets of `dcode-verify`'s lints; the full passes
    /// (symbolic equivalence, dead writes, CSE across targets, working-set
    /// estimates) run there, where layout context is available.
    #[cfg(debug_assertions)]
    fn debug_assert_peephole_clean(&self) {
        let n = self.grid.len() as u32;
        let mut seen: std::collections::BTreeSet<(u32, Vec<u32>)> =
            std::collections::BTreeSet::new();
        for op in 0..self.op_count() {
            let sources = self.op_sources(op);
            assert!(!sources.is_empty(), "op {op} has no sources");
            assert!(
                self.targets[op] < n && sources.iter().all(|&s| s < n),
                "op {op} references a block outside the grid"
            );
            let mut sorted = sources.to_vec();
            sorted.sort_unstable();
            assert!(
                sorted.windows(2).all(|w| w[0] != w[1]),
                "op {op} lists a source block twice"
            );
            assert!(
                seen.insert((self.targets[op], sorted)),
                "op {op} is a clone of an earlier op (redundant work)"
            );
        }
    }

    /// Number of XOR operations (target blocks written).
    pub fn op_count(&self) -> usize {
        self.targets.len()
    }

    /// Total source-block reads across all ops.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Replay the program over `stripe` sequentially, tile-major with the
    /// process's calibrated tile size ([`fused_tile_bytes`]). A block no
    /// wider than the smallest candidate tile is one pass whatever the
    /// tile, so it replays without waking the calibration probe (and its
    /// 576 KiB of probe buffers).
    pub fn run(&self, stripe: &mut Stripe) {
        let block = stripe.block_size();
        let tile = if block <= TILE_CANDIDATES[0] {
            block
        } else {
            fused_tile_bytes()
        };
        self.run_with_tile(stripe, tile);
    }

    /// [`XorProgram::run`] with an explicit tile size (clamped to at least
    /// 8 bytes): for each `tile_bytes` range of the blocks, every op in
    /// order over just that range. Byte-identical for every tile
    /// size; `tile_bytes >= block_size` is one iteration, i.e. op-major
    /// order. Bench sweeps and the differential tests pin the tile;
    /// production goes through `run`.
    pub fn run_with_tile(&self, stripe: &mut Stripe, tile_bytes: usize) {
        self.check(stripe);
        let len = stripe.block_size();
        let tile = tile_bytes.max(8);
        let mut start = 0usize;
        loop {
            let end = start.saturating_add(tile).min(len);
            for op in 0..self.targets.len() {
                let target = self.targets[op] as usize;
                let mut out = stripe.take_block_at(target);
                xor_tile(
                    &mut out[start..end],
                    self.op_sources(op),
                    (start, end),
                    &|i: u32| stripe.block_at(i as usize),
                );
                stripe.put_block_at(target, out);
            }
            if end >= len {
                break;
            }
            start = end;
        }
    }

    /// Replay the program over one CRC32 per block instead of the bytes:
    /// `crcs[i]` holds the CRC of grid block `i` before the call and of
    /// what [`run`](XorProgram::run) leaves there after it. Op `k` assigns
    /// `targets[k] = ⊕ sources`, and CRC32 is affine over GF(2), so for
    /// blocks of one length the target's CRC is the XOR of its sources'
    /// plus one `zero_crc` (the CRC of an all-zero block) when the source
    /// count is even — zero sources zero the block, one copies it.
    pub fn run_crcs(&self, crcs: &mut [u32], zero_crc: u32) {
        assert_eq!(crcs.len(), self.grid.len(), "one CRC per grid block");
        for op in 0..self.targets.len() {
            let sources = self.op_sources(op);
            let even = if sources.len() % 2 == 0 { zero_crc } else { 0 };
            let crc = sources.iter().fold(even, |acc, &s| acc ^ crcs[s as usize]);
            crcs[self.targets[op] as usize] = crc;
        }
    }

    fn check(&self, stripe: &Stripe) {
        assert_eq!(
            stripe.grid(),
            self.grid,
            "stripe shape does not match the compiled program"
        );
    }
}

/// Accumulates ops into the flat arrays.
struct ProgramBuilder {
    grid: Grid,
    targets: Vec<u32>,
    src_off: Vec<u32>,
    sources: Vec<u32>,
}

impl ProgramBuilder {
    fn new(grid: Grid) -> Self {
        ProgramBuilder {
            grid,
            targets: Vec::new(),
            src_off: vec![0],
            sources: Vec::new(),
        }
    }

    fn op(&mut self, target: usize, sources: impl Iterator<Item = usize>) {
        self.targets.push(target as u32);
        for s in sources {
            debug_assert_ne!(s, target, "op target among its own sources");
            self.sources.push(s as u32);
        }
        self.src_off.push(self.sources.len() as u32);
    }

    fn finish(self) -> XorProgram {
        let prog = XorProgram::from_raw_parts(self.grid, self.targets, self.src_off, self.sources);
        #[cfg(debug_assertions)]
        prog.debug_assert_peephole_clean();
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::apply_plan_naive;
    use crate::encode::{encode_naive, verify_parities};
    use dcode_baselines::registry::all_codes;
    use dcode_core::decoder::plan_column_recovery;

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 55) as u8
            })
            .collect()
    }

    #[test]
    fn compiled_encode_matches_naive_for_every_code() {
        for p in [5usize, 7] {
            for layout in all_codes(p) {
                let data = payload(layout.data_len() * 24, p as u64);
                let mut naive = Stripe::from_data(&layout, 24, &data);
                let mut compiled = naive.clone();
                encode_naive(&layout, &mut naive);
                let program = XorProgram::compile_encode(&layout);
                program.run(&mut compiled);
                assert_eq!(compiled, naive, "{} p={p}", layout.name());
                assert!(verify_parities(&layout, &compiled));
            }
        }
    }

    #[test]
    fn compiled_plan_matches_naive_replay() {
        for layout in all_codes(5) {
            let data = payload(layout.data_len() * 16, 3);
            let mut golden = Stripe::from_data(&layout, 16, &data);
            encode_naive(&layout, &mut golden);
            for c1 in 0..layout.disks() {
                for c2 in c1 + 1..layout.disks() {
                    let plan = plan_column_recovery(&layout, &[c1, c2]).unwrap();
                    let program = XorProgram::compile_plan(layout.grid(), &plan);
                    assert_eq!(program.op_count(), plan.steps.len());

                    let mut naive = golden.clone();
                    naive.erase_columns(&[c1, c2]);
                    apply_plan_naive(&mut naive, &plan);

                    let mut compiled = golden.clone();
                    compiled.erase_columns(&[c1, c2]);
                    program.run(&mut compiled);
                    assert_eq!(compiled, naive, "{} cols=({c1},{c2})", layout.name());
                    assert_eq!(compiled, golden, "{} cols=({c1},{c2})", layout.name());
                }
            }
        }
    }

    #[test]
    fn tile_size_never_changes_bytes() {
        // RDP's diagonal parity reads row parity: a tile-major pass must
        // feed each diagonal op the row-parity bytes of the same range. Odd
        // block size against tiles below the clamp, smaller than, equal to
        // and larger than the block — the loop's boundary math.
        let layout = dcode_baselines::rdp::rdp(11).unwrap();
        let program = XorProgram::compile_encode(&layout);
        let bs = 1037;
        let base = Stripe::from_data(&layout, bs, &payload(layout.data_len() * bs, 41));
        let mut expect = base.clone();
        encode_naive(&layout, &mut expect);
        for tile in [1usize, 8, 100, 1024, 1037, 4096, usize::MAX] {
            let mut got = base.clone();
            program.run_with_tile(&mut got, tile);
            assert_eq!(got, expect, "tile={tile}");
        }
    }

    #[test]
    fn encode_has_one_op_per_equation() {
        let d = dcode_core::dcode::dcode(7).unwrap();
        let prog = XorProgram::compile_encode(&d);
        assert_eq!(prog.op_count(), d.equations().len());
    }

    #[test]
    fn raw_parts_roundtrip() {
        let layout = dcode_core::dcode::dcode(7).unwrap();
        let prog = XorProgram::compile_encode(&layout);
        let (targets, src_off, sources) = prog.raw_parts();
        let rebuilt = XorProgram::from_raw_parts(prog.grid(), targets, src_off, sources);
        assert_eq!(rebuilt, prog);
        assert_eq!(rebuilt.fingerprint(), prog.fingerprint());
    }

    #[test]
    fn fingerprint_is_content_determined() {
        let d7 = XorProgram::compile_encode(&dcode_core::dcode::dcode(7).unwrap());
        let d7b = XorProgram::compile_encode(&dcode_core::dcode::dcode(7).unwrap());
        let d5 = XorProgram::compile_encode(&dcode_core::dcode::dcode(5).unwrap());
        assert_eq!(d7.fingerprint(), d7b.fingerprint());
        assert_ne!(d7.fingerprint(), d5.fingerprint());
        // A one-index mutation must move the fingerprint.
        let (mut targets, src_off, sources) = d7.raw_parts();
        targets.swap(0, 1);
        let mutated = XorProgram::from_raw_parts(d7.grid(), targets, src_off, sources);
        assert_ne!(mutated.fingerprint(), d7.fingerprint());
    }

    #[test]
    #[should_panic]
    fn mismatched_stripe_shape_is_rejected() {
        let l5 = dcode_core::dcode::dcode(5).unwrap();
        let l7 = dcode_core::dcode::dcode(7).unwrap();
        let program = XorProgram::compile_encode(&l5);
        let mut stripe = Stripe::zeroed(&l7, 8);
        program.run(&mut stripe);
    }
}
