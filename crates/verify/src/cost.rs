//! Op-count metrics derived from compiled artifacts.
//!
//! `dcode-core`'s [`metrics`](dcode_core::metrics) measures complexity on
//! the *layout* (equation member counts); these functions measure it on
//! the *compiled program* — the thing the hot paths actually execute. A
//! compiler or cache bug that padded an op with an extra source, cloned an
//! op, or dropped one would leave the layout metrics untouched but shift
//! these, which is exactly what the claim checks and the differential
//! tests are for.

use dcode_codec::XorProgram;
use dcode_core::layout::CodeLayout;

/// Total XORs a program executes: `sources − 1` per op. The executor
/// copies the first source over the target and folds every further source
/// in with one XOR, so this is the exact byte-level XOR count per block
/// column, independent of block size.
pub fn program_xor_cost(program: &XorProgram) -> usize {
    (0..program.op_count())
        .map(|op| program.op_sources(op).len().saturating_sub(1))
        .sum()
}

/// XORs per data element of a compiled encode program — the paper's
/// encoding-complexity metric, measured on the artifact.
pub fn encode_xors_per_data_element(layout: &CodeLayout, program: &XorProgram) -> f64 {
    program_xor_cost(program) as f64 / layout.data_len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;

    #[test]
    fn program_cost_matches_layout_cost_for_encode() {
        // Compiled encode ops mirror equations 1:1, so the program-side
        // count must equal the equation-side count.
        for p in [5usize, 7, 11] {
            for layout in all_codes(p) {
                let program = XorProgram::compile_encode(&layout);
                assert_eq!(
                    program_xor_cost(&program),
                    dcode_core::metrics::encode_xor_total(&layout),
                    "{} p={p}",
                    layout.name()
                );
            }
        }
    }

    #[test]
    fn plan_program_cost_matches_plan_xor_count() {
        for layout in all_codes(7) {
            let plan = dcode_core::decoder::plan_column_recovery(&layout, &[0, 2]).unwrap();
            let program = XorProgram::compile_plan(layout.grid(), &plan);
            assert_eq!(program_xor_cost(&program), plan.xor_count());
        }
    }
}
