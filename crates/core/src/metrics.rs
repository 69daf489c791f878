//! Computational-complexity metrics (Section III-D of the paper).
//!
//! The paper claims D-Code achieves the *optimal* encoding, decoding, and
//! update complexity for RAID-6 MDS codes. These functions measure each
//! quantity directly from a [`CodeLayout`], so the claims become assertions
//! rather than prose, and the same measurements feed the `features_table`
//! study of `dcode-bench`.

use crate::decoder::plan_column_recovery;
use crate::layout::CodeLayout;

/// All per-code complexity measurements in one record.
#[derive(Clone, Debug, PartialEq)]
pub struct CodeMetrics {
    /// Code name.
    pub name: String,
    /// Prime parameter.
    pub prime: usize,
    /// Number of disks.
    pub disks: usize,
    /// Data elements per stripe.
    pub data_elements: usize,
    /// Parity elements per stripe.
    pub parity_elements: usize,
    /// `data / total` storage rate.
    pub storage_rate: f64,
    /// Whether the rate equals the MDS optimum `(disks−2)/disks` exactly.
    pub storage_optimal: bool,
    /// XOR operations per data element for a full-stripe encode.
    pub encode_xors_per_data_element: f64,
    /// Average XORs per reconstructed element over all double-column
    /// failures.
    pub decode_xors_per_lost_element: f64,
    /// Average number of parity elements rewritten when one data element is
    /// updated.
    pub avg_update_complexity: f64,
    /// Worst-case number of parity elements rewritten for a single-element
    /// update.
    pub max_update_complexity: usize,
}

/// XOR count for a full-stripe encode: `members − 1` per equation.
pub fn encode_xor_total(layout: &CodeLayout) -> usize {
    layout
        .equations()
        .iter()
        .map(super::equation::Equation::xor_count)
        .sum()
}

/// XORs per data element for a full-stripe encode. The RAID-6 optimum is
/// `2 − 2/(n−2)` for an `n`-disk vertical code (RDP paper), which D-Code
/// attains: `2n(n−3) / n(n−2)`.
pub fn encode_xors_per_data_element(layout: &CodeLayout) -> f64 {
    encode_xor_total(layout) as f64 / layout.data_len() as f64
}

/// Average XORs per lost element, over every double-column failure.
/// The optimum for an `n`-disk RAID-6 vertical code is `n − 3` per element
/// (H-Code paper), attained by X-Code and D-Code.
///
/// # Panics
/// Panics if some 2-column erasure is unrecoverable — only measure
/// layouts that pass MDS verification.
pub fn decode_xors_per_lost_element(layout: &CodeLayout) -> f64 {
    let disks = layout.disks();
    let mut total_xors = 0usize;
    let mut total_lost = 0usize;
    for c1 in 0..disks {
        for c2 in c1 + 1..disks {
            let plan = plan_column_recovery(layout, &[c1, c2])
                .expect("metrics assume a verified-MDS layout");
            total_xors += plan.xor_count();
            total_lost += plan.erased.len();
        }
    }
    total_xors as f64 / total_lost as f64
}

/// `(average, max)` number of parity writes caused by a one-element update.
/// The RAID-6 optimum is exactly 2 (X-Code paper); RDP exceeds it because
/// its diagonal parity covers the row parity.
pub fn update_complexity(layout: &CodeLayout) -> (f64, usize) {
    let mut total = 0usize;
    let mut max = 0usize;
    for &cell in layout.data_cells() {
        let k = layout.update_closure(&[cell]).len();
        total += k;
        max = max.max(k);
    }
    (total as f64 / layout.data_len() as f64, max)
}

/// Gather every metric for one layout.
pub fn measure(layout: &CodeLayout) -> CodeMetrics {
    let total = layout.grid().len();
    let data = layout.data_len();
    let (avg_update, max_update) = update_complexity(layout);
    CodeMetrics {
        name: layout.name().to_string(),
        prime: layout.prime(),
        disks: layout.disks(),
        data_elements: data,
        parity_elements: total - data,
        storage_rate: data as f64 / total as f64,
        storage_optimal: crate::mds::storage_is_optimal(layout),
        encode_xors_per_data_element: encode_xors_per_data_element(layout),
        decode_xors_per_lost_element: decode_xors_per_lost_element(layout),
        avg_update_complexity: avg_update,
        max_update_complexity: max_update,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcode::{dcode, xcode, PAPER_PRIMES};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn dcode_encode_complexity_matches_closed_form() {
        // Section III-D: 2n(n−3) XORs total, i.e. 2 − 2/(n−2) per element.
        for n in PAPER_PRIMES {
            let l = dcode(n).unwrap();
            assert_eq!(encode_xor_total(&l), 2 * n * (n - 3));
            assert!(close(
                encode_xors_per_data_element(&l),
                2.0 - 2.0 / (n as f64 - 2.0)
            ));
        }
    }

    #[test]
    fn dcode_decode_complexity_is_optimal() {
        // Section III-D: n − 3 XORs per failed element.
        for n in PAPER_PRIMES {
            let l = dcode(n).unwrap();
            assert!(close(decode_xors_per_lost_element(&l), n as f64 - 3.0));
        }
    }

    #[test]
    fn dcode_update_complexity_is_exactly_two() {
        for n in PAPER_PRIMES {
            let (avg, max) = update_complexity(&dcode(n).unwrap());
            assert!(close(avg, 2.0));
            assert_eq!(max, 2);
        }
    }

    #[test]
    fn xcode_matches_dcode_on_all_complexities() {
        // Theorem 1 implies identical complexity profiles.
        for n in PAPER_PRIMES {
            let d = measure(&dcode(n).unwrap());
            let x = measure(&xcode(n).unwrap());
            assert!(close(
                d.encode_xors_per_data_element,
                x.encode_xors_per_data_element
            ));
            assert!(close(
                d.decode_xors_per_lost_element,
                x.decode_xors_per_lost_element
            ));
            assert!(close(d.avg_update_complexity, x.avg_update_complexity));
        }
    }

    #[test]
    fn storage_rate_reported() {
        let m = measure(&dcode(7).unwrap());
        assert_eq!(m.data_elements, 35);
        assert_eq!(m.parity_elements, 14);
        assert!(m.storage_optimal);
        assert!(close(m.storage_rate, 5.0 / 7.0));
    }
}
