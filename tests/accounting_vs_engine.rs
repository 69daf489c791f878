//! Cross-crate integration: the I/O simulator's symbolic accounting agrees
//! with what the byte engine actually does — the property that makes
//! Figures 4–5 trustworthy.

use dcode::array::{ResilientArray, RetryPolicy, RotationScheme};
use dcode::baselines::registry::{build, ALL_CODES};
use dcode::codec::{apply_plan, encode, write_logical, Stripe};
use dcode::core::decoder::plan_recovery;
use dcode::core::layout::CodeLayout;
use dcode::faults::{CountingBackend, MemBackend};
use dcode::iosim::access::{
    degraded_read_accesses, degraded_write_accesses, double_degraded_read_accesses,
    normal_read_accesses, plan_degraded_segment, write_accesses,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[test]
fn write_accounting_matches_engine_receipts() {
    let mut rng = StdRng::seed_from_u64(5150);
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let block = 32;
        let payload: Vec<u8> = (0..layout.data_len() * block).map(|_| rng.gen()).collect();
        let mut stripe = Stripe::from_data(&layout, block, &payload);
        encode(&layout, &mut stripe);

        for _ in 0..25 {
            let start = rng.gen_range(0..layout.data_len());
            let len = rng.gen_range(1..=(layout.data_len() - start).min(8));
            let bytes: Vec<u8> = (0..len * block).map(|_| rng.gen()).collect();
            let receipt = write_logical(&layout, &mut stripe, start, &bytes);

            // The simulator's per-disk counts for the same op must equal the
            // engine's touched elements × 2 (read-modify-write).
            let acc = write_accesses(&layout, start, len);
            assert_eq!(
                acc.total() as usize,
                receipt.element_ios(),
                "{} start={start} len={len}",
                id.name()
            );
            // Per-disk attribution agrees too.
            let mut per_disk = vec![0u64; layout.disks()];
            for c in receipt.data_written.iter().chain(&receipt.parities_written) {
                per_disk[c.col] += 2;
            }
            assert_eq!(
                acc.per_disk,
                per_disk,
                "{} start={start} len={len}",
                id.name()
            );
        }
    }
}

#[test]
fn degraded_read_plans_actually_serve_the_read() {
    // The planner's read set must be sufficient: rebuilding the lost
    // requested elements using ONLY cells the plan reads reproduces the
    // correct bytes.
    let mut rng = StdRng::seed_from_u64(31337);
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let block = 16;
        let payload: Vec<u8> = (0..layout.data_len() * block).map(|_| rng.gen()).collect();
        let mut healthy = Stripe::from_data(&layout, block, &payload);
        encode(&layout, &mut healthy);

        for _ in 0..30 {
            let failed = rng.gen_range(0..layout.disks());
            let start = rng.gen_range(0..layout.data_len());
            let len = rng.gen_range(1..=(layout.data_len() - start).min(12));
            let seg = plan_degraded_segment(&layout, start, len, failed);

            // Available cells: everything the plan says it reads.
            let mut available: BTreeSet<_> = seg.surviving_requested.iter().copied().collect();
            available.extend(seg.extra_reads.iter().copied());

            // Check sufficiency: each lost cell's chosen equation reads only
            // available cells, lost cells rebuilt before it included.
            for (lost, &eq_idx) in seg.lost.iter().zip(&seg.chosen_eqs) {
                let eq = layout.equation(eq_idx);
                for cell in eq.cells() {
                    if cell != *lost {
                        assert!(
                            available.contains(&cell),
                            "{}: equation {eq_idx} needs unread cell {cell}",
                            id.name()
                        );
                    }
                }
                available.insert(*lost);
            }

            // And byte-level: rebuild those cells and compare.
            if !seg.lost.is_empty() {
                let erased: BTreeSet<_> = seg.lost.iter().copied().collect();
                let plan = plan_recovery(&layout, &erased).unwrap();
                let mut broken = healthy.clone();
                broken.erase_cells(&seg.lost);
                apply_plan(&mut broken, &plan);
                for cell in &seg.lost {
                    assert_eq!(broken.block(*cell), healthy.block(*cell));
                }
            }
        }
    }
}

#[test]
fn degraded_extra_reads_never_touch_the_failed_disk() {
    // EVENODD's diagonals all hold the S-diagonal cell of a column: a plan
    // may solve one only when that cell is rebuilt first, never read it.
    for p in [5usize, 7] {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let data_len = layout.data_len();
            for failed in 0..layout.disks() {
                for start in 0..data_len {
                    for len in 1..=20 {
                        let what = format!("{} p={p} failed={failed} {start}+{len}", id.name());
                        let read = degraded_read_accesses(&layout, start, len, failed);
                        assert_eq!(read.per_disk[failed], 0, "{what}");
                        let write = degraded_write_accesses(&layout, start, len, failed);
                        assert_eq!(write.per_disk[failed], 0, "{what}");
                        if start + len <= data_len {
                            let seg = plan_degraded_segment(&layout, start, len, failed);
                            assert!(seg.extra_reads.iter().all(|c| c.col != failed), "{what}");
                            assert!(seg.surviving_requested.iter().all(|c| c.col != failed));
                        }
                    }
                }
            }
        }
    }
}

/// Per-disk block reads `ResilientArray::read` issues for each request, on
/// an unrotated array (slot = disk = column) of 8-byte blocks with the
/// `failed` disks down and no spare, long enough for the longest request.
fn engine_reads(
    layout: &CodeLayout,
    failed: &[usize],
    requests: &[(usize, usize)],
) -> Vec<Vec<u64>> {
    const BLOCK: usize = 8;
    let longest = requests.iter().map(|&(s, l)| s + l).max().unwrap_or(0);
    let stripes = longest.div_ceil(layout.data_len());
    let backend = CountingBackend::new(MemBackend::new(
        layout.disks(),
        stripes * layout.rows(),
        BLOCK,
    ));
    let mut array = ResilientArray::format(
        layout.clone(),
        BLOCK,
        stripes,
        RotationScheme::None,
        backend,
        RetryPolicy::default(),
        1,
    );
    let fill: Vec<u8> = (0..array.capacity_bytes())
        .map(|i| (i * 7 + 3) as u8)
        .collect();
    array.write(0, &fill).unwrap();
    for &disk in failed {
        array.fail_disk(disk).unwrap();
    }
    requests
        .iter()
        .map(|&(start, len)| {
            array.backend_mut().reset();
            let bytes = array.read(start, len).unwrap();
            assert_eq!(bytes, fill[start * BLOCK..(start + len) * BLOCK]);
            array.backend_mut().counts().reads.clone()
        })
        .collect()
}

/// The paper's `<S, L, T>` read workload through the real engine: every
/// registry code at p ∈ {5, 7}, every start, lengths up to 20 (past a
/// stripe at p = 5), healthy, under every single failure and every failure
/// pair. Per disk, the blocks `ResilientArray::read` fetches are the ones
/// iosim counts.
#[test]
fn array_reads_equal_the_read_model() {
    for p in [5usize, 7] {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let disks = layout.disks();
            let requests: Vec<(usize, usize)> = (0..layout.data_len())
                .flat_map(|start| [1usize, 2, 3, 5, 8, 13, 20].map(|len| (start, len)))
                .collect();
            let mut cases = vec![vec![]];
            cases.extend((0..disks).map(|f| vec![f]));
            cases.extend((0..disks).flat_map(|a| (a + 1..disks).map(move |b| vec![a, b])));
            for failed in cases {
                let measured = engine_reads(&layout, &failed, &requests);
                for (&(start, len), reads) in requests.iter().zip(measured) {
                    let model = match failed[..] {
                        [] => normal_read_accesses(&layout, start, len),
                        [f] => degraded_read_accesses(&layout, start, len, f),
                        [a, b] => double_degraded_read_accesses(&layout, start, len, [a, b]),
                        _ => unreachable!("at most two failures"),
                    };
                    assert_eq!(
                        reads,
                        model.per_disk,
                        "{} p={p} failed {failed:?} start {start} len {len}",
                        id.name()
                    );
                }
            }
        }
    }
}
