//! Partial-stripe writes (read-modify-write).
//!
//! Updating a data element in a live array does not re-encode the stripe:
//! the controller reads the old data, computes `delta = old ⊕ new`, writes
//! the new data, and folds the delta into every affected parity. When a
//! parity itself feeds other parities (RDP's diagonals cover its row
//! parities; HDP's anti-diagonals cover its horizontal parities) the delta
//! cascades — exactly the effect the D-Code paper's I/O-cost evaluation
//! measures. [`write_logical`] performs the delta propagation in equation
//! dependency order and returns which blocks were touched, so the I/O
//! simulator's accounting can be validated against the real engine
//! (`crates/array/tests/partial_writes.rs` does: `ResilientArray`'s
//! delta writes against this function byte for byte and against
//! `iosim::write_accesses` block for block).

use crate::stripe::Stripe;
use crate::xor::xor_into;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use std::collections::BTreeMap;

/// Outcome of a partial-stripe write: every block the engine had to read
/// and write beyond the data blocks themselves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WriteReceipt {
    /// Data cells written (logical range mapped to the grid).
    pub data_written: Vec<Cell>,
    /// Parity cells rewritten, in the order they were folded.
    pub parities_written: Vec<Cell>,
}

impl WriteReceipt {
    /// Total element I/Os under the read-modify-write accounting the paper
    /// uses: each touched element is read once (old value) and written once
    /// (new value).
    pub fn element_ios(&self) -> usize {
        2 * (self.data_written.len() + self.parities_written.len())
    }
}

/// Write `bytes` over the logical data range starting at element
/// `logical_start`, updating all affected parities via delta propagation.
///
/// `bytes.len()` must be a multiple of the block size; the write spans
/// `bytes.len() / block_size` consecutive logical elements and must fit in
/// the stripe.
pub fn write_logical(
    layout: &CodeLayout,
    stripe: &mut Stripe,
    logical_start: usize,
    bytes: &[u8],
) -> WriteReceipt {
    let bs = stripe.block_size();
    assert!(
        bytes.len() % bs == 0,
        "write length {} is not a multiple of the block size {bs}",
        bytes.len()
    );
    let count = bytes.len() / bs;
    assert!(
        logical_start + count <= layout.data_len(),
        "write [{logical_start}, {}) exceeds stripe data length {}",
        logical_start + count,
        layout.data_len()
    );

    // Per-cell accumulated deltas. Data deltas seed the map; parity deltas
    // are derived in encode order so cascades resolve exactly once.
    let mut deltas: BTreeMap<Cell, Vec<u8>> = BTreeMap::new();
    let mut data_written = Vec::with_capacity(count);
    for (i, chunk) in bytes.chunks(bs).enumerate() {
        let cell = layout.logical_to_cell(logical_start + i);
        let mut delta = stripe.snapshot(cell);
        xor_into(&mut delta, chunk);
        // Recorded even when the delta is all-zero: the paper's accounting
        // counts the write even if the new content equals the old.
        deltas.insert(cell, delta);
        stripe.block_mut(cell).copy_from_slice(chunk);
        data_written.push(cell);
    }

    let mut parities_written = Vec::new();
    for &eq_idx in layout.encode_order() {
        let eq = layout.equation(eq_idx);
        let mut parity_delta: Option<Vec<u8>> = None;
        for m in &eq.members {
            if let Some(d) = deltas.get(m) {
                match &mut parity_delta {
                    Some(acc) => xor_into(acc, d),
                    None => parity_delta = Some(d.clone()),
                }
            }
        }
        if let Some(d) = parity_delta {
            xor_into(stripe.block_mut(eq.parity), &d);
            parities_written.push(eq.parity);
            // The parity's own change may feed later equations (cascade).
            deltas.insert(eq.parity, d);
        }
    }

    WriteReceipt {
        data_written,
        parities_written,
    }
}

/// Element I/Os of a **reconstruct-write** — overwrite the data range, then
/// recompute every affected parity from its full member set (no old-value
/// reads; `ResilientArray`'s reconstruct branch is the engine): the data
/// writes, the parity writes, and one read per *unmodified* member of each
/// recomputed parity (modified members and already-recomputed parities are
/// in memory). The `write_policy` gate of `dcode-bench` holds the array to
/// this count.
pub fn reconstruct_write_ios(layout: &CodeLayout, logical_start: usize, count: usize) -> usize {
    use std::collections::BTreeSet;
    let written: BTreeSet<Cell> = (logical_start..logical_start + count)
        .map(|i| layout.logical_to_cell(i))
        .collect();
    let affected = layout.update_closure(&written.iter().copied().collect::<Vec<_>>());
    let mut reads: BTreeSet<Cell> = BTreeSet::new();
    for &parity in &affected {
        let eq_idx = layout
            .storing_eq(parity)
            .expect("closure contains parities");
        for &m in &layout.equation(eq_idx).members {
            if !written.contains(&m) && !affected.contains(&m) {
                reads.insert(m);
            }
        }
    }
    written.len() + affected.len() + reads.len()
}

/// The set of parity cells a write to the given logical range will touch —
/// pure accounting, no data movement. Matches [`write_logical`]'s receipt
/// (it is [`CodeLayout::update_closure`] over the range's cells).
pub fn affected_parities(layout: &CodeLayout, logical_start: usize, count: usize) -> Vec<Cell> {
    let cells: Vec<Cell> = (logical_start..logical_start + count)
        .map(|i| layout.logical_to_cell(i))
        .collect();
    layout.update_closure(&cells).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, verify_parities};
    use dcode_baselines::registry::all_codes;

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 40) as u8
            })
            .collect()
    }

    #[test]
    fn delta_update_equals_full_reencode() {
        for p in [5usize, 7] {
            for layout in all_codes(p) {
                let bs = 16;
                let data = payload(layout.data_len() * bs, 3 * p as u64);
                let mut live = Stripe::from_data(&layout, bs, &data);
                encode(&layout, &mut live);

                // Overwrite a range via delta updates.
                let start = 3.min(layout.data_len() - 1);
                let count = 5.min(layout.data_len() - start);
                let new_bytes = payload(count * bs, 99);
                let receipt = write_logical(&layout, &mut live, start, &new_bytes);
                assert!(verify_parities(&layout, &live), "{} p={p}", layout.name());

                // Full re-encode from the updated data must agree.
                let mut fresh = Stripe::from_data(&layout, bs, &live.data_bytes(&layout));
                encode(&layout, &mut fresh);
                assert_eq!(live, fresh, "{} p={p}", layout.name());

                // Receipt parities match the symbolic closure.
                let mut expect = affected_parities(&layout, start, count);
                let mut got = receipt.parities_written.clone();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expect, "{} p={p}", layout.name());
            }
        }
    }

    #[test]
    fn single_element_write_touches_two_parities_for_dcode() {
        let layout = dcode_core::dcode::dcode(7).unwrap();
        let bs = 8;
        let mut s = Stripe::from_data(&layout, bs, &payload(layout.data_len() * bs, 1));
        encode(&layout, &mut s);
        let receipt = write_logical(&layout, &mut s, 10, &payload(bs, 2));
        assert_eq!(receipt.parities_written.len(), 2);
        assert_eq!(receipt.element_ios(), 2 * (1 + 2));
    }

    #[test]
    fn rdp_single_write_cascades_past_two_parities() {
        let layout = dcode_baselines::rdp::rdp(7).unwrap();
        let bs = 8;
        let mut s = Stripe::from_data(&layout, bs, &payload(layout.data_len() * bs, 1));
        encode(&layout, &mut s);
        // Element whose row parity feeds a stored diagonal: most do in RDP.
        let worst = (0..layout.data_len())
            .map(|i| write_logical(&layout, &mut s.clone(), i, &payload(bs, i as u64 + 9)))
            .map(|r| r.parities_written.len())
            .max()
            .unwrap();
        assert!(worst >= 3, "RDP must cascade: worst={worst}");
    }

    #[test]
    fn reconstruct_write_cost_crosses_over_rmw() {
        // Small writes favor RMW; whole-stripe writes favor reconstruction
        // (zero extra reads).
        let layout = dcode_core::dcode::dcode(7).unwrap();
        let small_rmw = {
            let parities = affected_parities(&layout, 0, 1).len();
            2 * (1 + parities)
        };
        let small_rcw = reconstruct_write_ios(&layout, 0, 1);
        assert!(
            small_rmw < small_rcw,
            "small write: RMW {small_rmw} vs RCW {small_rcw}"
        );

        let full = layout.data_len();
        let full_rmw = 2
            * (full
                + layout
                    .update_closure(
                        &(0..full)
                            .map(|i| layout.logical_to_cell(i))
                            .collect::<Vec<_>>(),
                    )
                    .len());
        let full_rcw = reconstruct_write_ios(&layout, 0, full);
        assert!(
            full_rcw < full_rmw,
            "full write: RCW {full_rcw} vs RMW {full_rmw}"
        );
        // A full-stripe reconstruct-write reads nothing.
        assert_eq!(full_rcw, full + 2 * 7);
    }

    #[test]
    fn full_stripe_write_equals_encode() {
        let layout = dcode_core::dcode::dcode(5).unwrap();
        let bs = 8;
        let mut s = Stripe::from_data(&layout, bs, &payload(layout.data_len() * bs, 11));
        encode(&layout, &mut s);
        let new_data = payload(layout.data_len() * bs, 12);
        write_logical(&layout, &mut s, 0, &new_data);
        let mut fresh = Stripe::from_data(&layout, bs, &new_data);
        encode(&layout, &mut fresh);
        assert_eq!(s, fresh);
    }
}
