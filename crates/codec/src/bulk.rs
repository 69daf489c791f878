//! Bulk encoding and recovery: many stripes through one compiled program
//! over the persistent worker pool.
//!
//! Stripes are independent, so this is embarrassingly parallel — each
//! worker job owns a disjoint chunk of the stripe slice (data-race
//! freedom by construction) and replays the program over each of its
//! stripes with [`XorProgram::run`], the same tile-major loop a
//! single-stripe [`encode`](crate::encode::encode) uses. There is no
//! batch-level program: a batch of `B` stripes is `B` replays, and the
//! memory-traffic win (each source block pulled from DRAM once, not once
//! per equation reading it) lives inside `run`'s tile order.
//!
//! **Pitfalls (and why this module looks the way it does):**
//!
//! * Earlier revisions spawned a fresh set of scoped threads *inside every
//!   call* — thread creation plus join cost on the order of the work
//!   itself for small batches (DESIGN.md §12 has the history). Jobs go
//!   to the parked workers of [`minipool::global`]; stripes move into
//!   jobs by ownership (a `mem::replace` with an allocation-free
//!   placeholder) rather than by copy.
//! * The per-job `Vec<Stripe>` buffers stripes are moved into are
//!   recycled through a private thread-local, so a steady stream of
//!   batches from one thread (a connection handler, the CLI) allocates no
//!   scratch vectors.

use crate::cache;
use crate::decode::normalize_columns;
use crate::schedule::XorProgram;
use crate::stripe::Stripe;
use dcode_core::decoder::Unrecoverable;
use dcode_core::layout::CodeLayout;
use minipool::WorkerPool;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Recycled per-job stripe buffers (empty, capacity intact) of the
    /// calling thread's earlier [`run_batch`] calls.
    static JOB_BUFS: RefCell<Vec<Vec<Stripe>>> = const { RefCell::new(Vec::new()) };
}

/// Encode a slice of stripes in place, in parallel. The compiled program
/// comes from the global schedule cache (no per-call compile) and jobs
/// run on the global persistent pool (no per-call spawns). The requested
/// `threads` is clamped to the host's available parallelism — see
/// [`run_batch`] for the unclamped, explicit-pool form.
pub fn encode_stripes(layout: &CodeLayout, stripes: &mut [Stripe], threads: usize) {
    let program = cache::global().encode_program(layout);
    let threads = minipool::effective_parallelism(threads);
    run_batch(&program, stripes, minipool::global(), threads);
}

/// Recover the same erased columns across a batch of stripes, in
/// parallel. The compiled column-recovery program comes from the global
/// schedule cache; `cols` may be unsorted or hold duplicates, and an
/// out-of-range column panics, exactly as in
/// [`crate::decode::recover_columns`]. This is the entry point the
/// rebuild scheduler's many-stripe decode batches use.
///
/// Every stripe must have storage attached with the erased columns'
/// blocks present (their contents are ignored: recovery ops overwrite
/// first).
pub fn recover_stripes(
    layout: &CodeLayout,
    cols: &[usize],
    stripes: &mut [Stripe],
    threads: usize,
) -> Result<(), Unrecoverable> {
    let compiled = cache::global().column_program(layout, &normalize_columns(layout, cols))?;
    let threads = minipool::effective_parallelism(threads);
    run_batch(&compiled.program, stripes, minipool::global(), threads);
    Ok(())
}

/// Replay `program` over every stripe of the batch with an explicit pool
/// and fan-out (not clamped to host parallelism — tests drive real pool
/// fan-out with it; callers holding their own
/// [`ScheduleCache`](crate::cache::ScheduleCache), like `ResilientArray`,
/// pass its program). One stripe, or `threads == 1`, runs inline;
/// otherwise the slice is chunked across `threads` pool jobs by
/// ownership. Byte-identical to calling [`XorProgram::run`] on each
/// stripe in turn.
///
/// **Panic safety:** a panicking replay (a foreign-grid stripe, a
/// storage-less placeholder, a corrupted schedule) is caught *inside* the
/// job so the job still hands its chunk back; every chunk — encoded,
/// partially encoded, or untouched — is restored into the caller's slice
/// (and its buffer recycled) before the first panic is re-raised. Earlier
/// revisions propagated the panic straight through the pool, leaving the
/// whole slice holding the zero-length placeholder stripes from the
/// ownership swap: a caller catching the unwind (a long-lived server, a
/// test harness) would observe silent data loss. Now the slice never
/// holds a placeholder after this returns or unwinds; stripes of the
/// panicking chunk may be partially encoded, which the re-raised panic
/// reports.
pub fn run_batch(
    program: &Arc<XorProgram>,
    stripes: &mut [Stripe],
    pool: &WorkerPool,
    threads: usize,
) {
    let workers = threads.min(stripes.len());
    if workers <= 1 {
        for s in stripes.iter_mut() {
            program.run(s);
        }
        return;
    }
    let chunk = stripes.len().div_ceil(workers);
    let mut jobs = Vec::with_capacity(workers);
    for part in stripes.chunks_mut(chunk) {
        // Move the chunk's stripes into the job (placeholder swap: no
        // block is copied or reallocated; the Vec itself is a recycled
        // buffer); the job returns them encoded.
        let mut owned = JOB_BUFS.with(|b| b.borrow_mut().pop()).unwrap_or_default();
        owned.extend(
            part.iter_mut()
                .map(|s| std::mem::replace(s, Stripe::placeholder(s.grid(), s.block_size()))),
        );
        let program = Arc::clone(program);
        jobs.push(move || {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for s in &mut owned {
                    program.run(s);
                }
            }))
            .err();
            (owned, panic)
        });
    }
    let done = pool.run(jobs);
    let mut first_panic = None;
    let mut slots = stripes.iter_mut();
    for (mut chunk, panic) in done {
        for encoded in chunk.drain(..) {
            *slots.next().expect("chunks cover the slice") = encoded;
        }
        JOB_BUFS.with(|b| b.borrow_mut().push(chunk));
        if first_panic.is_none() {
            first_panic = panic;
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::verify_parities;
    use dcode_baselines::registry::all_codes;
    use dcode_core::dcode::dcode;

    fn payload(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    fn stripes_of(layout: &CodeLayout, block_size: usize, data: &[u8]) -> Vec<Stripe> {
        data.chunks(layout.data_len() * block_size)
            .map(|c| Stripe::from_data(layout, block_size, c))
            .collect()
    }

    /// `stripes_of`, encoded through [`encode_stripes`] on `threads`.
    fn encoded(layout: &CodeLayout, block_size: usize, data: &[u8], threads: usize) -> Vec<Stripe> {
        let mut stripes = stripes_of(layout, block_size, data);
        encode_stripes(layout, &mut stripes, threads);
        stripes
    }

    #[test]
    fn parallel_matches_sequential() {
        let layout = dcode(7).unwrap();
        let data = payload(layout.data_len() * 64 * 5 + 123); // 5.x stripes
        let seq = encoded(&layout, 64, &data, 1);
        for threads in [2usize, 4, 8] {
            let par = encoded(&layout, 64, &data, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
        assert_eq!(seq.len(), 6);
        assert!(seq.iter().all(|s| verify_parities(&layout, s)));
        let mut back: Vec<u8> = seq.iter().flat_map(|s| s.data_bytes(&layout)).collect();
        back.truncate(data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn pooled_fan_out_matches_sequential() {
        // Drive the pool with real multi-worker fan-out regardless of the
        // host's core count (encode_stripes clamps; run_batch does not).
        let layout = dcode(7).unwrap();
        let data = payload(layout.data_len() * 32 * 7 + 5);
        let seq = encoded(&layout, 32, &data, 1);
        let pool = minipool::WorkerPool::with_workers(4);
        let program = Arc::new(XorProgram::compile_encode(&layout));
        for threads in [2usize, 4, 16] {
            let mut stripes = stripes_of(&layout, 32, &data);
            run_batch(&program, &mut stripes, &pool, threads);
            assert_eq!(stripes, seq, "threads={threads}");
        }
    }

    #[test]
    fn job_buffers_are_recycled_across_calls() {
        let layout = dcode(5).unwrap();
        let pool = minipool::WorkerPool::with_workers(4);
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let data = payload(layout.data_len() * 16 * 8);
        let encode_once = || {
            let mut stripes = stripes_of(&layout, 16, &data);
            run_batch(&program, &mut stripes, &pool, 4);
            assert!(stripes.iter().all(|s| verify_parities(&layout, s)));
            JOB_BUFS.with(|b| b.borrow().iter().map(Vec::capacity).collect::<Vec<_>>())
        };
        let caps = encode_once();
        assert!(caps.len() >= 4, "every job buffer must be recycled");
        assert_eq!(
            encode_once(),
            caps,
            "steady state must reuse, not mint, buffers"
        );
    }

    #[test]
    fn panicking_job_restores_stripes_instead_of_placeholders() {
        use dcode_core::grid::Cell;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // Regression: a panic inside a pooled encode job used to propagate
        // before the write-back loop ran, leaving *every* stripe in the
        // caller's slice as the zero-length placeholder from the ownership
        // swap — silent data loss for any caller catching the unwind.
        let layout = dcode(7).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let pool = minipool::WorkerPool::with_workers(4);
        let per = layout.data_len() * 16;
        let data = payload(per * 8);
        let mut stripes = stripes_of(&layout, 16, &data);
        // Poison one stripe with a smaller code's shape: the program's
        // shape check rejects it and panics mid-chunk.
        let poison = 5;
        let small = dcode(5).unwrap();
        stripes[poison] = Stripe::zeroed(&small, 16);

        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_batch(&program, &mut stripes, &pool, 4);
        }));
        assert!(caught.is_err(), "the poison stripe must panic the replay");

        // Every healthy stripe was restored with its data intact — and
        // since only one job panicked, fully encoded as well.
        for (i, s) in stripes.iter().enumerate() {
            if i == poison {
                continue;
            }
            assert_eq!(
                s.data_bytes(&layout),
                &data[i * per..(i + 1) * per],
                "stripe {i} lost data across the unwind"
            );
            assert!(verify_parities(&layout, s), "stripe {i} not encoded");
        }
        // The poison stripe came back too (its own shape, storage present)
        // — not a zero-length placeholder.
        assert_eq!(stripes[poison].grid(), small.grid());
        assert_eq!(stripes[poison].block_size(), 16);
        let probe = catch_unwind(AssertUnwindSafe(|| {
            stripes[poison].snapshot(Cell::new(0, 0)).len()
        }));
        assert!(probe.is_ok(), "poison stripe left as a placeholder");

        // The pool and the healthy stripes are reusable after the unwind.
        let mut again = stripes_of(&layout, 16, &data);
        run_batch(&program, &mut again, &pool, 4);
        assert!(again.iter().all(|s| verify_parities(&layout, s)));
    }

    #[test]
    fn placeholder_in_a_batch_panics_and_healthy_stripes_come_back() {
        // A storage-less placeholder (a degraded member) in the slice:
        // replaying it panics, but the healthy stripes still come back
        // encoded.
        let layout = dcode(5).unwrap();
        let pool = minipool::WorkerPool::with_workers(2);
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let mut stripes = stripes_of(&layout, 8, &payload(layout.data_len() * 8 * 3));
        let mut expect = stripes.clone();
        for s in &mut expect {
            program.run(s);
        }
        stripes.push(Stripe::placeholder(layout.grid(), 8));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&program, &mut stripes, &pool, 2);
        }));
        assert!(caught.is_err(), "placeholder replay must panic");
        assert_eq!(&stripes[..3], &expect[..], "healthy stripes lost");
    }

    #[test]
    fn recover_stripes_matches_per_stripe_recovery() {
        use crate::decode::recover_columns;

        for p in [5usize, 7] {
            for layout in all_codes(p) {
                let cols = [0usize, 2];
                if dcode_core::decoder::plan_column_recovery(&layout, &cols).is_err() {
                    continue;
                }
                let mut stripes = stripes_of(&layout, 8, &payload(layout.data_len() * 8 * 6));
                encode_stripes(&layout, &mut stripes, 1);
                let golden = stripes.clone();
                // Per-stripe oracle.
                let mut expect = stripes.clone();
                for s in &mut expect {
                    s.erase_columns(&cols);
                    recover_columns(&layout, s, &cols).unwrap();
                }
                for s in &mut stripes {
                    s.erase_columns(&cols);
                }
                recover_stripes(&layout, &cols, &mut stripes, 4).unwrap();
                assert_eq!(stripes, expect, "{} p={p}", layout.name());
                assert_eq!(stripes, golden, "{} p={p} full roundtrip", layout.name());
            }
        }
    }

    #[test]
    fn recover_stripes_normalizes_columns_like_recover_columns() {
        // Unsorted and duplicate column lists name the same erasure (they
        // used to trip the cache's ascending-order debug assert, or mint a
        // duplicate cache entry in release builds).
        let layout = dcode(7).unwrap();
        let mut golden = stripes_of(&layout, 8, &payload(layout.data_len() * 8 * 3));
        encode_stripes(&layout, &mut golden, 1);
        for cols in [&[3usize, 1][..], &[1, 1, 3], &[3, 3, 1, 1], &[1, 1]] {
            let mut stripes = golden.clone();
            for s in &mut stripes {
                s.erase_columns(cols);
            }
            recover_stripes(&layout, cols, &mut stripes, 2).unwrap();
            assert_eq!(stripes, golden, "cols={cols:?}");
        }
    }

    #[test]
    #[should_panic(expected = "disk 7 out of range")]
    fn recover_stripes_rejects_out_of_range_columns() {
        let layout = dcode(7).unwrap();
        let mut stripes = vec![Stripe::zeroed(&layout, 8)];
        let _ = recover_stripes(&layout, &[7, 0], &mut stripes, 1);
    }

    #[test]
    fn recover_stripes_rejects_unrecoverable_erasures() {
        let layout = dcode(5).unwrap();
        let mut stripes = vec![Stripe::zeroed(&layout, 8)];
        assert!(recover_stripes(&layout, &[0, 1, 2], &mut stripes, 2).is_err());
    }
}
