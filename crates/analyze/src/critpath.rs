//! Critical-path and level-width analysis over dependency levels.
//!
//! A compiled program's levels depend on each other in order; ops within
//! a level are independent. The codec replays programs sequentially, so
//! this is a property of the schedule, not a prediction about an executor:
//! if the ops of a level ran concurrently, with unlimited workers a level
//! would finish no sooner than its widest gather, so the schedule's wall-clock floor is the sum of
//! per-level maxima and the best possible parallel speedup is bounded by
//! `total_work / critical_path_work`. Work is measured in source-block
//! gathers (the unit the tiled XOR kernel streams), which makes the bound
//! block-size-independent.

use dcode_codec::XorProgram;

/// Level-structure summary of one compiled program.
#[derive(Clone, Debug, PartialEq)]
pub struct CritPath {
    /// Dependency levels.
    pub levels: usize,
    /// Total work: source-block gathers summed over all ops.
    pub total_work: usize,
    /// Critical path: per-level widest gather, summed over levels — the
    /// wall-clock floor with unlimited workers.
    pub critical_path_work: usize,
    /// Ops in the widest level (the useful worker count).
    pub max_width: usize,
    /// Static upper bound on parallel speedup:
    /// `total_work / critical_path_work`.
    pub speedup_bound: f64,
}

/// Analyze `program`'s level structure.
///
/// # Panics
/// Panics on a zero-op program (no schedule has a critical path).
pub fn critical_path(program: &XorProgram) -> CritPath {
    assert!(program.op_count() > 0, "empty program has no critical path");
    let mut total = 0usize;
    let mut crit = 0usize;
    let mut max_width = 0usize;
    for lv in 0..program.level_count() {
        let ops = program.level_ops(lv);
        max_width = max_width.max(ops.len());
        let mut widest = 0usize;
        for op in ops {
            let gathers = program.op_sources(op).len();
            total += gathers;
            widest = widest.max(gathers);
        }
        crit += widest;
    }
    CritPath {
        levels: program.level_count(),
        total_work: total,
        critical_path_work: crit,
        max_width,
        speedup_bound: total as f64 / crit as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;

    #[test]
    fn single_level_codes_bound_equals_op_parallelism() {
        // D-Code p=7: 14 independent ops of 5 gathers each — the critical
        // path is one op and the bound is the op count.
        let d = dcode_core::dcode::dcode(7).unwrap();
        let cp = critical_path(&XorProgram::compile_encode(&d));
        assert_eq!(cp.levels, 1);
        assert_eq!(cp.total_work, 70);
        assert_eq!(cp.critical_path_work, 5);
        assert!((cp.speedup_bound - 14.0).abs() < 1e-9);
        assert_eq!(cp.max_width, 14);
    }

    #[test]
    fn two_level_codes_pay_for_their_serialization() {
        // RDP serializes diagonal parity behind row parity: two levels,
        // and the bound drops accordingly.
        let rdp = dcode_baselines::rdp::rdp(7).unwrap();
        let cp = critical_path(&XorProgram::compile_encode(&rdp));
        assert_eq!(cp.levels, 2);
        assert!(cp.speedup_bound < cp.total_work as f64 / 6.0);
    }

    #[test]
    fn bound_is_at_least_one_for_every_registry_program() {
        for p in [5usize, 7, 11, 13] {
            for layout in all_codes(p) {
                let cp = critical_path(&XorProgram::compile_encode(&layout));
                assert!(cp.speedup_bound >= 1.0, "{} p={p}", layout.name());
                assert!(cp.critical_path_work <= cp.total_work);
            }
        }
    }
}
