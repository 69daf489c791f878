//! Parity scrubbing: detect and localize silent corruption.
//!
//! RAID-6's two independent parity families can do more than survive
//! erasures: because every data element sits in exactly one equation of
//! each family (and parities sit in one), a *single* silently corrupted
//! element produces a unique syndrome signature — exactly the equations
//! covering it fail verification. The scrubber evaluates every equation,
//! intersects the failing set, and repairs the culprit by solving one of
//! its equations with the culprit treated as erased. This is the
//! lost-write-detection story that motivates keeping two orthogonal parity
//! families even where one would suffice for the failure model.

use dcode_codec::{apply_plan, xor::xor_many_into, Stripe};
use dcode_core::decoder::plan_recovery;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use std::collections::BTreeSet;

/// Result of scrubbing one stripe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScrubReport {
    /// All equations verify.
    Clean,
    /// Exactly one element is inconsistent and was repaired in place.
    Repaired {
        /// The corrupted element.
        cell: Cell,
    },
    /// Two elements were inconsistent; the pair was uniquely identified by
    /// the syndrome and both were repaired in place.
    RepairedPair {
        /// The corrupted elements, in ascending order.
        cells: [Cell; 2],
    },
    /// The syndrome does not localize to one element or one unique pair;
    /// nothing was modified.
    Ambiguous,
}

/// Indices of equations whose parity block does not equal the XOR of its
/// member blocks.
pub fn failing_equations(layout: &CodeLayout, stripe: &Stripe) -> Vec<usize> {
    let mut scratch = vec![0u8; stripe.block_size()];
    layout
        .equations()
        .iter()
        .enumerate()
        .filter(|(_, eq)| {
            let sources: Vec<&[u8]> = eq.members.iter().map(|&m| stripe.block(m)).collect();
            xor_many_into(&mut scratch, &sources);
            scratch.as_slice() != stripe.block(eq.parity)
        })
        .map(|(i, _)| i)
        .collect()
}

/// The equations `cell` takes part in: those it is a member of and the
/// one whose parity it stores. A corrupted cell fails all of them.
fn involved(layout: &CodeLayout, cell: Cell) -> BTreeSet<usize> {
    let member_of = layout.member_eqs(cell).iter().copied();
    member_of.chain(layout.storing_eq(cell)).collect()
}

/// Scrub one stripe: verify every equation, localize the one corrupted
/// element — or the unique corrupted pair in two columns — whose
/// equations are exactly the failing ones, and repair it in place.
pub fn scrub_stripe(layout: &CodeLayout, stripe: &mut Stripe) -> ScrubReport {
    let failing: BTreeSet<usize> = failing_equations(layout, stripe).into_iter().collect();
    if failing.is_empty() {
        return ScrubReport::Clean;
    }
    // Suspects take part in failing equations only.
    let suspects: Vec<(Cell, BTreeSet<usize>)> = layout
        .grid()
        .cells()
        .map(|cell| (cell, involved(layout, cell)))
        .filter(|(_, eqs)| !eqs.is_empty() && eqs.is_subset(&failing))
        .collect();
    let mut explanations: Vec<Vec<Cell>> = suspects
        .iter()
        .filter(|(_, eqs)| *eqs == failing)
        .map(|&(cell, _)| vec![cell])
        .collect();
    if explanations.is_empty() {
        // No single cell explains the syndrome — try pairs in two columns
        // whose equations together are the failing set. (An equation both
        // share cancels only if the two errors are equal, which cannot be
        // assumed, so it is the plain union.)
        for (i, (a, eqs_a)) in suspects.iter().enumerate() {
            for (b, eqs_b) in &suspects[i + 1..] {
                if a.col != b.col && eqs_a.union(eqs_b).eq(&failing) {
                    explanations.push(vec![*a, *b]);
                }
            }
        }
    }
    let [culprits] = explanations.as_slice() else {
        return ScrubReport::Ambiguous;
    };

    // Repair by erasure-decoding the culprits from everything else — any
    // two cells in two columns are within what a RAID-6 code recovers. The
    // repair must leave the stripe fully consistent; if not, the
    // localization was coincidental — undo it and report ambiguity (an
    // ambiguous scrub must never modify the stripe).
    let Ok(plan) = plan_recovery(layout, &culprits.iter().copied().collect()) else {
        return ScrubReport::Ambiguous;
    };
    let originals: Vec<Vec<u8>> = culprits.iter().map(|&c| stripe.snapshot(c)).collect();
    apply_plan(stripe, &plan);
    if !failing_equations(layout, stripe).is_empty() {
        for (&c, original) in culprits.iter().zip(&originals) {
            stripe.block_mut(c).copy_from_slice(original);
        }
        return ScrubReport::Ambiguous;
    }
    match culprits[..] {
        [cell] => ScrubReport::Repaired { cell },
        _ => ScrubReport::RepairedPair {
            cells: [culprits[0], culprits[1]],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_codec::encode;
    use dcode_core::dcode::dcode;

    fn encoded_stripe() -> (CodeLayout, Stripe) {
        let layout = dcode(7).unwrap();
        let payload: Vec<u8> = (0..layout.data_len() * 32)
            .map(|i| (i * 17 % 251) as u8)
            .collect();
        let mut s = Stripe::from_data(&layout, 32, &payload);
        encode(&layout, &mut s);
        (layout, s)
    }

    #[test]
    fn clean_stripe_reports_clean() {
        let (layout, mut s) = encoded_stripe();
        assert_eq!(scrub_stripe(&layout, &mut s), ScrubReport::Clean);
    }

    #[test]
    fn single_data_corruption_is_localized_and_repaired() {
        let (layout, golden) = encoded_stripe();
        for &cell in &golden.grid().cells().collect::<Vec<_>>() {
            let mut s = golden.clone();
            s.block_mut(cell)[0] ^= 0xFF; // flip bits silently
            match scrub_stripe(&layout, &mut s) {
                ScrubReport::Repaired { cell: found } => {
                    assert_eq!(found, cell, "wrong culprit");
                    assert_eq!(s, golden, "repair did not restore the stripe");
                }
                other => panic!("cell {cell}: expected repair, got {other:?}"),
            }
        }
    }

    #[test]
    fn double_corruption_in_distinct_columns_repairs_when_unique() {
        let (layout, golden) = encoded_stripe();
        let mut s = golden.clone();
        let (a, b) = (Cell::new(0, 0), Cell::new(3, 4));
        s.block_mut(a)[0] ^= 1;
        s.block_mut(b)[0] ^= 1;
        match scrub_stripe(&layout, &mut s) {
            ScrubReport::RepairedPair { cells } => {
                assert_eq!(cells, [a, b]);
                assert_eq!(s, golden, "pair repair must restore the stripe");
            }
            // The pair is not always uniquely identified — but then the
            // stripe must be untouched.
            ScrubReport::Ambiguous => {
                let mut expect = golden.clone();
                expect.block_mut(a)[0] ^= 1;
                expect.block_mut(b)[0] ^= 1;
                assert_eq!(s, expect, "ambiguous scrub must not modify the stripe");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn pair_repair_sweep() {
        // Over many distinct-column pairs, every outcome is either an exact
        // pair repair or an untouched-ambiguous — never a wrong "repair".
        let (layout, golden) = encoded_stripe();
        let mut repaired = 0;
        let cells: Vec<Cell> = golden.grid().cells().collect();
        for (i, &a) in cells.iter().enumerate().step_by(5) {
            for &b in cells[i + 1..].iter().step_by(7) {
                if a.col == b.col {
                    continue;
                }
                let mut s = golden.clone();
                s.block_mut(a)[3] ^= 0x77;
                s.block_mut(b)[9] ^= 0x11;
                match scrub_stripe(&layout, &mut s) {
                    ScrubReport::RepairedPair { cells } => {
                        assert_eq!(cells, if a < b { [a, b] } else { [b, a] });
                        assert_eq!(s, golden);
                        repaired += 1;
                    }
                    ScrubReport::Ambiguous => {}
                    other => panic!("({a},{b}): unexpected {other:?}"),
                }
            }
        }
        assert!(repaired > 0, "pair repair never engaged");
    }

    #[test]
    fn triple_corruption_stays_ambiguous_and_untouched() {
        let (layout, golden) = encoded_stripe();
        let mut s = golden.clone();
        for cell in [Cell::new(0, 0), Cell::new(1, 2), Cell::new(2, 5)] {
            s.block_mut(cell)[0] ^= 0xF0;
        }
        let before = s.clone();
        match scrub_stripe(&layout, &mut s) {
            ScrubReport::Ambiguous => assert_eq!(s, before),
            ScrubReport::RepairedPair { .. } | ScrubReport::Repaired { .. } => {
                // A lucky aliasing repair must at least leave a fully
                // consistent stripe; anything else is a bug.
                assert!(failing_equations(&layout, &s).is_empty());
            }
            ScrubReport::Clean => panic!("triple corruption cannot be clean"),
        }
    }
}
