//! [`ScheduleCache`] — memoized compiled XOR schedules.
//!
//! Compiling an [`XorProgram`] from a layout or a [`RecoveryPlan`] walks
//! `BTreeMap`s, allocates index arrays, and (for recovery) may run the
//! GF(2) planner's Gaussian fallback. None of that belongs on a
//! steady-state path: an array encoding a stream of stripes, or serving
//! degraded reads off the same dead disk ten thousand times, uses the
//! *same* program every time. The cache memoizes:
//!
//! * the full-stripe **encode** program per layout;
//! * the full **column-recovery** program (and its symbolic plan) per
//!   `(layout, erased column set)`, lowered from the peeling plan;
//! * **subprograms** per `(layout, erased column set, missing cell set)` —
//!   the unit `ResilientArray` replays for every recovery it runs — along
//!   with the sorted list of surviving cells each one reads. Under one
//!   erased column a subprogram is [`dcode_recovery::optimal_recovery`]'s
//!   minimum-read choice given the survivors the caller already holds, so
//!   that set joins the key; under two it is cut from the peeling plan.
//!
//! Keys use [`CodeLayout::fingerprint`] (a structural hash computed once at
//! build time), so lookups never deep-compare equation lists. Entries live
//! in small linear-scan vectors: with a handful of codes and at most
//! `C(p, 2)` erasure patterns, scanning a short `Vec` beats hashing, and —
//! more importantly — a cache *hit allocates nothing*. Programs and read
//! lists are handed out as [`Arc`]s; two hits for the same key return
//! pointer-identical programs (`Arc::ptr_eq`), which the regression tests
//! use as a deterministic "did not recompile" proof.
//!
//! Compilation happens *outside* the cache lock, so a panic in the
//! compiler (or a poisoned-free miss racing another thread) can never
//! poison the cache; the loser of an insert race simply adopts the
//! winner's entry. The cache stores exactly what
//! [`XorProgram::compile_encode`] or [`XorProgram::compile_plan`]
//! returns. Compiled programs still run the compiler's
//! `debug_assertions` hazard and lint checks at compile time — caching
//! reuses the checked artifact, it does not bypass the check — and
//! `dcode-verify` proves cached programs equivalent to their generator
//! matrices in CI. The cache has one lock, `entries`
//! (`codec.cache.entries`, the name `dcode-race`'s lock-order check
//! sees), and never holds it across a compile.

use crate::schedule::XorProgram;
use dcode_core::decoder::{plan_recovery, RecoveryPlan, Unrecoverable};
use dcode_core::grid::{Cell, Grid};
use dcode_core::layout::CodeLayout;
use dcode_recovery::optimal_recovery;
use minisim::sync::{Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Upper bound on distinct subprograms cached per erasure pattern. Partial
/// degraded reads generate one subprogram per distinct wanted-cell subset
/// (and, under one erased column, per set of survivors already read); a
/// pathological access pattern could mint
/// exponentially many, so past the cap the subprogram is compiled and
/// returned uncached (correct, just not memoized).
pub const MAX_SUBPROGRAMS_PER_ERASURE: usize = 64;

/// Hit/miss counters for one [`ScheduleCache`]. A "hit" is a lookup served
/// entirely from memoized state; a "miss" compiled something.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups served without compiling.
    pub hits: u64,
    /// Lookups that compiled (and usually inserted) a program.
    pub misses: u64,
}

/// A compiled recovery handed out by the cache: the program to replay, the
/// symbolic plan it was lowered from (for I/O accounting), and the sorted
/// surviving cells the program reads (the disk-read footprint).
#[derive(Clone, Debug)]
pub struct CompiledRecovery {
    /// The lowered XOR program; replay with [`XorProgram::run`].
    pub program: Arc<XorProgram>,
    /// The symbolic plan the program was compiled from.
    pub plan: Arc<RecoveryPlan>,
    /// Surviving cells the program reads, ascending. Equals
    /// `plan.surviving_reads()` without the per-call `BTreeSet`.
    pub reads: Arc<Vec<Cell>>,
}

/// One cached missing-cell subprogram under an erasure pattern.
struct SubEntry {
    /// The missing cells this subprogram reconstructs, ascending.
    missing: Vec<Cell>,
    /// The survivors its plan took as already read, ascending; empty
    /// unless one column is erased.
    loaded: Vec<Cell>,
    compiled: CompiledRecovery,
}

/// Everything cached for one erased-column set of one layout.
struct ErasureEntry {
    /// Erased columns, ascending.
    cols: Vec<usize>,
    /// The peeling plan for all cells of all erased columns; subprograms
    /// are cut from it.
    plan: Arc<RecoveryPlan>,
    /// The full program, built from `plan` on first demand.
    full: Option<CompiledRecovery>,
    subs: Vec<SubEntry>,
}

/// Everything cached for one layout.
struct LayoutEntry {
    fingerprint: u64,
    grid: Grid,
    encode: Option<Arc<XorProgram>>,
    erasures: Vec<ErasureEntry>,
}

/// Memoized compiled schedules; see the module docs. Cheap to construct —
/// embed one per long-lived object (as `ResilientArray` does) or share the
/// process-wide [`global`] instance.
///
/// The entries mutex is a named `minisim` facade lock: production calls
/// go straight to `std::sync`, while `dcode-race` model-checks the
/// compile-outside-lock race-adopt protocol on the same code.
pub struct ScheduleCache {
    entries: Mutex<Vec<LayoutEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::new()
    }
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache {
            entries: Mutex::named("codec.cache.entries", Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Saturating counter bump: a chaos soak (or any process hot enough to
    /// wrap a `u64`) pins the counter at `u64::MAX` instead of silently
    /// restarting the statistics from zero.
    fn bump(counter: &AtomicU64) {
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_add(1))
        });
    }

    /// The compiled full-stripe encode program for `layout`. First call
    /// per layout compiles; every later call returns the same `Arc`
    /// (verify with [`Arc::ptr_eq`]).
    pub fn encode_program(&self, layout: &CodeLayout) -> Arc<XorProgram> {
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        {
            let entries = self.lock();
            if let Some(program) = find_layout(&entries, fp, grid).and_then(|e| e.encode.clone()) {
                Self::bump(&self.hits);
                return program;
            }
        }
        Self::bump(&self.misses);
        let program = Arc::new(XorProgram::compile_encode(layout));
        let mut entries = self.lock();
        let entry = find_or_insert_layout(&mut entries, fp, grid);
        entry.encode.get_or_insert(program).clone()
    }

    /// The full column-recovery plan for erasing `cols` (ascending) of
    /// `layout`, memoized. Errors (three or more columns) are not cached.
    pub fn column_plan(
        &self,
        layout: &CodeLayout,
        cols: &[usize],
    ) -> Result<Arc<RecoveryPlan>, Unrecoverable> {
        self.erasure_plan(layout, cols.iter().copied())
    }

    /// The compiled full column-recovery program for erasing `cols`
    /// (ascending) of `layout`, with its plan and read footprint.
    pub fn column_program(
        &self,
        layout: &CodeLayout,
        cols: &[usize],
    ) -> Result<CompiledRecovery, Unrecoverable> {
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        let cols_iter = cols.iter().copied();
        {
            let entries = self.lock();
            if let Some(compiled) =
                find_erasure(&entries, fp, grid, cols_iter.clone()).and_then(|e| e.full.clone())
            {
                Self::bump(&self.hits);
                return Ok(compiled);
            }
        }
        let plan = self.erasure_plan(layout, cols_iter.clone())?;
        Self::bump(&self.misses);
        let compiled = compile_recovery(grid, &plan);
        let mut entries = self.lock();
        let entry = find_erasure_mut(&mut entries, fp, grid, cols_iter)
            .expect("erasure_plan inserted the entry");
        Ok(entry.full.get_or_insert(compiled).clone())
    }

    /// The compiled subprogram reconstructing exactly `missing` under the
    /// erasure of `erased_cols` (an ascending iterator of column indices;
    /// pass a slice's `iter().copied()` or iterate a `BTreeSet` directly),
    /// when the caller already holds the survivors in `loaded`. `missing`
    /// must be a subset of the erased columns' cells. Under one erased
    /// column the plan is [`optimal_recovery`]'s fewest further reads;
    /// under more it is the peeling plan cut to `missing`, and `loaded`
    /// plays no part. Steady-state hits allocate nothing and return
    /// pointer-identical programs.
    pub fn recovery_subprogram<I>(
        &self,
        layout: &CodeLayout,
        erased_cols: I,
        missing: &BTreeSet<Cell>,
        loaded: &BTreeSet<Cell>,
    ) -> Result<CompiledRecovery, Unrecoverable>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        let mut cols = erased_cols.clone();
        let single = match (cols.next(), cols.next()) {
            (Some(col), None) => Some(col),
            _ => None,
        };
        let key_loaded = loaded.iter().filter(|_| single.is_some());
        let same = |s: &&SubEntry| {
            s.missing.iter().eq(missing.iter()) && s.loaded.iter().eq(key_loaded.clone())
        };
        {
            let entries = self.lock();
            if let Some(entry) = find_erasure(&entries, fp, grid, erased_cols.clone()) {
                if let Some(sub) = entry.subs.iter().find(same) {
                    Self::bump(&self.hits);
                    return Ok(sub.compiled.clone());
                }
            }
        }
        let plan = self.erasure_plan(layout, erased_cols.clone())?;
        Self::bump(&self.misses);
        let plan = match single {
            Some(col) => optimal_recovery(layout, col, missing, loaded).recovery_plan(layout),
            None => plan.subplan_for(missing),
        };
        let compiled = compile_recovery(grid, &Arc::new(plan));
        let mut entries = self.lock();
        let entry = find_erasure_mut(&mut entries, fp, grid, erased_cols)
            .expect("erasure_plan inserted the entry");
        if let Some(sub) = entry.subs.iter().find(same) {
            return Ok(sub.compiled.clone()); // lost an insert race; adopt
        }
        if entry.subs.len() < MAX_SUBPROGRAMS_PER_ERASURE {
            entry.subs.push(SubEntry {
                missing: missing.iter().copied().collect(),
                loaded: key_loaded.copied().collect(),
                compiled: compiled.clone(),
            });
        }
        Ok(compiled)
    }

    /// Memoized symbolic plan for an ascending erased-column iterator;
    /// ensures the `ErasureEntry` exists on success.
    fn erasure_plan<I>(
        &self,
        layout: &CodeLayout,
        cols: I,
    ) -> Result<Arc<RecoveryPlan>, Unrecoverable>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        {
            let entries = self.lock();
            if let Some(entry) = find_erasure(&entries, fp, grid, cols.clone()) {
                return Ok(entry.plan.clone());
            }
        }
        let col_vec: Vec<usize> = cols.collect();
        debug_assert!(
            col_vec.windows(2).all(|w| w[0] < w[1]),
            "erased columns must be strictly ascending"
        );
        let erased: BTreeSet<Cell> = col_vec.iter().flat_map(|&c| grid.column(c)).collect();
        let plan = Arc::new(plan_recovery(layout, &erased)?);
        let mut entries = self.lock();
        let entry = find_or_insert_layout(&mut entries, fp, grid);
        if let Some(existing) = entry
            .erasures
            .iter()
            .find(|e| e.cols.iter().copied().eq(col_vec.iter().copied()))
        {
            return Ok(existing.plan.clone());
        }
        entry.erasures.push(ErasureEntry {
            cols: col_vec,
            plan: plan.clone(),
            full: None,
            subs: Vec::new(),
        });
        Ok(plan)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<LayoutEntry>> {
        // The lock is only ever held for lookups and inserts — never across
        // compilation or user code — so a poisoned mutex is unreachable
        // without a panic inside `Vec`/`Arc` themselves. Recover the guard
        // rather than poisoning every future encode on the array.
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Process-wide shared cache: the default for free functions like
/// [`encode`](crate::encode::encode) that have no object to hang a cache
/// off. Never dropped.
pub fn global() -> &'static ScheduleCache {
    static GLOBAL: OnceLock<ScheduleCache> = OnceLock::new();
    GLOBAL.get_or_init(ScheduleCache::new)
}

/// Hit/miss counters of the process-wide [`global`] cache — the number the
/// `dcode status` command surfaces.
pub fn schedule_stats() -> CacheStats {
    global().stats()
}

fn find_layout(entries: &[LayoutEntry], fp: u64, grid: Grid) -> Option<&LayoutEntry> {
    entries
        .iter()
        .find(|e| e.fingerprint == fp && e.grid == grid)
}

fn find_or_insert_layout(entries: &mut Vec<LayoutEntry>, fp: u64, grid: Grid) -> &mut LayoutEntry {
    if let Some(i) = entries
        .iter()
        .position(|e| e.fingerprint == fp && e.grid == grid)
    {
        return &mut entries[i];
    }
    entries.push(LayoutEntry {
        fingerprint: fp,
        grid,
        encode: None,
        erasures: Vec::new(),
    });
    entries.last_mut().expect("just pushed")
}

fn find_erasure<I>(entries: &[LayoutEntry], fp: u64, grid: Grid, cols: I) -> Option<&ErasureEntry>
where
    I: Iterator<Item = usize> + Clone,
{
    find_layout(entries, fp, grid)?
        .erasures
        .iter()
        .find(|e| e.cols.iter().copied().eq(cols.clone()))
}

fn find_erasure_mut<I>(
    entries: &mut [LayoutEntry],
    fp: u64,
    grid: Grid,
    cols: I,
) -> Option<&mut ErasureEntry>
where
    I: Iterator<Item = usize> + Clone,
{
    entries
        .iter_mut()
        .find(|e| e.fingerprint == fp && e.grid == grid)?
        .erasures
        .iter_mut()
        .find(|e| e.cols.iter().copied().eq(cols.clone()))
}

/// Lower a plan and precompute its sorted surviving-read list.
fn compile_recovery(grid: Grid, plan: &Arc<RecoveryPlan>) -> CompiledRecovery {
    let reads: Vec<Cell> = plan.surviving_reads().into_iter().collect();
    CompiledRecovery {
        program: Arc::new(XorProgram::compile_plan(grid, plan)),
        plan: plan.clone(),
        reads: Arc::new(reads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_naive;
    use crate::stripe::Stripe;
    use dcode_baselines::registry::all_codes;
    use dcode_core::dcode::dcode;

    #[test]
    fn encode_program_is_compiled_once() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let a = cache.encode_program(&layout);
        let b = cache.encode_program(&layout);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must not recompile");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A structurally different layout gets its own program.
        let other = dcode(5).unwrap();
        let c = cache.encode_program(&other);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn rebuilt_equal_layout_shares_the_cached_program() {
        // The fingerprint, not object identity, keys the cache: an
        // independently-built but identical layout hits.
        let cache = ScheduleCache::new();
        let a = cache.encode_program(&dcode(7).unwrap());
        let b = cache.encode_program(&dcode(7).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn column_program_hits_and_matches_direct_compile() {
        let cache = ScheduleCache::new();
        for layout in all_codes(7) {
            let cols = [1usize, 3];
            let first = cache.column_program(&layout, &cols).unwrap();
            let second = cache.column_program(&layout, &cols).unwrap();
            assert!(Arc::ptr_eq(&first.program, &second.program));
            assert!(Arc::ptr_eq(&first.plan, &second.plan));
            // Cached artifacts equal a from-scratch compile.
            let plan = dcode_core::decoder::plan_column_recovery(&layout, &cols).unwrap();
            let direct = XorProgram::compile_plan(layout.grid(), &plan);
            assert_eq!(*first.program, direct, "{}", layout.name());
            let direct_reads: Vec<Cell> = plan.surviving_reads().into_iter().collect();
            assert_eq!(*first.reads, direct_reads, "{}", layout.name());
        }
    }

    #[test]
    fn subprogram_steady_state_is_pointer_identical() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let grid = layout.grid();
        let missing: BTreeSet<Cell> = [grid.column(2).next().unwrap()].into_iter().collect();
        let cols = BTreeSet::from([2usize, 4]);
        let a = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing, &BTreeSet::new())
            .unwrap();
        let hits_before = cache.stats().hits;
        let b = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing, &BTreeSet::new())
            .unwrap();
        assert!(Arc::ptr_eq(&a.program, &b.program));
        assert!(Arc::ptr_eq(&a.reads, &b.reads));
        assert_eq!(cache.stats().hits, hits_before + 1);
        // The subprogram actually recovers the missing cell.
        let data: Vec<u8> = (0..layout.data_len() * 8).map(|i| (i * 37) as u8).collect();
        let mut stripe = Stripe::from_data(&layout, 8, &data);
        encode_naive(&layout, &mut stripe);
        let golden = stripe.clone();
        stripe.erase_columns(&[2, 4]);
        a.program.run(&mut stripe);
        for &cell in &missing {
            assert_eq!(stripe.snapshot(cell), golden.snapshot(cell));
        }
    }

    #[test]
    fn one_column_subprograms_are_the_minimum_read_choice() {
        // D-Code p = 7, logical 10..15 with column 3 erased: the lost
        // D(1,3) shares horizontal parity P(5,1) with the four survivors
        // in hand, so that parity is the only further read.
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let requested: Vec<Cell> = (10..15).map(|i| layout.logical_to_cell(i)).collect();
        let (missing, loaded): (BTreeSet<Cell>, BTreeSet<Cell>) =
            requested.iter().partition(|c| c.col == 3);
        let warm = cache
            .recovery_subprogram(&layout, [3usize].into_iter(), &missing, &loaded)
            .unwrap();
        let further: Vec<Cell> = warm
            .reads
            .iter()
            .filter(|c| !loaded.contains(c))
            .copied()
            .collect();
        assert_eq!(further, [Cell::new(5, 1)]);
        // Nothing in hand is another key and another plan.
        let cold = cache
            .recovery_subprogram(&layout, [3usize].into_iter(), &missing, &BTreeSet::new())
            .unwrap();
        assert!(!Arc::ptr_eq(&warm.program, &cold.program));
        let again = cache
            .recovery_subprogram(&layout, [3usize].into_iter(), &missing, &loaded)
            .unwrap();
        assert!(Arc::ptr_eq(&warm.program, &again.program));
        // The whole column with nothing in hand reads the optimal rebuild's
        // survivors, and the program restores the column.
        let column: BTreeSet<Cell> = layout.grid().column(3).collect();
        let rebuild = cache
            .recovery_subprogram(&layout, [3usize].into_iter(), &column, &BTreeSet::new())
            .unwrap();
        let optimal = dcode_recovery::optimal_rebuild(&layout, 3);
        assert!(rebuild.reads.iter().eq(&optimal.reads));
        let data: Vec<u8> = (0..layout.data_len() * 8).map(|i| (i * 41) as u8).collect();
        let mut stripe = Stripe::from_data(&layout, 8, &data);
        encode_naive(&layout, &mut stripe);
        let golden = stripe.clone();
        stripe.erase_columns(&[3]);
        rebuild.program.run(&mut stripe);
        assert_eq!(stripe, golden);
    }

    #[test]
    fn distinct_missing_sets_get_distinct_subprograms() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let grid = layout.grid();
        let cols = [0usize, 1];
        let mut col_cells = grid.column(0);
        let m1: BTreeSet<Cell> = [col_cells.next().unwrap()].into_iter().collect();
        let m2: BTreeSet<Cell> = [col_cells.next().unwrap()].into_iter().collect();
        let a = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &m1, &BTreeSet::new())
            .unwrap();
        let b = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &m2, &BTreeSet::new())
            .unwrap();
        assert!(!Arc::ptr_eq(&a.program, &b.program));
    }

    #[test]
    fn subprogram_cap_still_returns_correct_programs() {
        let cache = ScheduleCache::new();
        let layout = dcode(13).unwrap();
        let grid = layout.grid();
        let cols = [0usize, 1];
        // Mint more distinct missing sets than the cap by taking every
        // prefix of the erased cells.
        let erased: Vec<Cell> = grid.column(0).chain(grid.column(1)).collect();
        let mut minted = 0usize;
        let mut missing = BTreeSet::new();
        for &cell in &erased {
            missing.insert(cell);
            let compiled = cache
                .recovery_subprogram(&layout, cols.iter().copied(), &missing, &BTreeSet::new())
                .unwrap();
            assert!(compiled.program.op_count() >= missing.len());
            minted += 1;
        }
        assert!(minted > 1);
    }

    #[test]
    fn unrecoverable_erasures_error_and_are_not_cached() {
        let cache = ScheduleCache::new();
        let layout = dcode(5).unwrap();
        let cols = [0usize, 1, 2];
        assert!(cache.column_plan(&layout, &cols).is_err());
        assert!(cache.column_program(&layout, &cols).is_err());
        let missing: BTreeSet<Cell> = layout.grid().column(0).collect();
        assert!(cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing, &BTreeSet::new())
            .is_err());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let cache = ScheduleCache::new();
        let layout = dcode(5).unwrap();
        let _ = cache.encode_program(&layout); // miss
        cache.hits.store(u64::MAX, Ordering::Relaxed);
        let _ = cache.encode_program(&layout); // hit at the ceiling
        let _ = cache.encode_program(&layout); // and again
        assert_eq!(cache.stats().hits, u64::MAX, "hit counter must saturate");
        cache.misses.store(u64::MAX, Ordering::Relaxed);
        let _ = cache.encode_program(&dcode(7).unwrap()); // miss at the ceiling
        assert_eq!(cache.stats().misses, u64::MAX, "miss counter must saturate");
    }

    #[test]
    fn global_cache_is_shared() {
        let a = global().encode_program(&dcode(5).unwrap());
        let b = global().encode_program(&dcode(5).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
