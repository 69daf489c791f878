//! The paper's §III-D closed forms, as machine-checkable claims.
//!
//! Each registry code has exact closed-form complexities in `p` (fitted
//! from the constructions and verified at every prime the CI sweep uses).
//! A [`ClaimCheck`] pairs one closed form with the value measured on the
//! compiled artifact; `dcode verify` fails on any mismatch, which turns
//! the paper's §III-D table and the balanced-I/O-load headline into CI
//! gates over the *compiled schedules*.

use std::fmt;

/// Which static load-balance property a code claims for a full-stripe
/// encode.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LoadBalance {
    /// Parity writes spread perfectly over all disks (write LF = 1), and
    /// so do reads+writes combined (combined LF = 1) — the paper's
    /// headline property, held by the vertical codes D-Code and X-Code.
    BalancedCombined,
    /// Parity writes spread perfectly (write LF = 1) but reads and writes
    /// combined do not.
    BalancedWrites,
    /// Dedicated parity disks receive all writes while data disks receive
    /// none, so the write LF is unbounded (∞).
    DedicatedParity,
}

/// Closed-form expectations for one code at one prime.
#[derive(Clone, Debug)]
pub struct ClosedForms {
    /// Encode XORs per data element.
    pub encode_per_element: f64,
    /// Symbolic form of [`ClosedForms::encode_per_element`].
    pub encode_formula: &'static str,
    /// Decode XORs per lost element, averaged over all 2-column erasures.
    /// `None` for EVENODD, whose Gaussian `S`-syndrome steps admit no
    /// clean closed form (its plan costs are still cross-checked
    /// structurally).
    pub decode_per_lost: Option<f64>,
    /// Symbolic form of [`ClosedForms::decode_per_lost`].
    pub decode_formula: &'static str,
    /// Average parity elements touched by a one-element update.
    pub update_avg: f64,
    /// Symbolic form of [`ClosedForms::update_avg`].
    pub update_formula: &'static str,
    /// Worst-case parity elements touched by a one-element update.
    pub update_max: usize,
    /// Parity dependency depth ([`CodeLayout::dependency_levels`]'s
    /// level count): 1 for independent parity families, 2 where one
    /// parity reads another.
    ///
    /// [`CodeLayout::dependency_levels`]: dcode_core::layout::CodeLayout::dependency_levels
    pub dependency_depth: usize,
    /// The encode load-balance property.
    pub balance: LoadBalance,
}

/// Closed forms for a registry code, keyed by its display name. `None`
/// for layouts outside the registry (custom specs get structural analysis
/// only, no claim table).
pub fn closed_forms(name: &str, p: usize) -> Option<ClosedForms> {
    let pf = p as f64;
    Some(match name {
        "D-Code" | "X-Code" => ClosedForms {
            // n = p disks for the vertical codes, so the paper's
            // 2 − 2/(n−2) is 2 − 2/(p−2).
            encode_per_element: 2.0 - 2.0 / (pf - 2.0),
            encode_formula: "2 - 2/(p-2)",
            decode_per_lost: Some(pf - 3.0),
            decode_formula: "p - 3",
            update_avg: 2.0,
            update_formula: "2",
            update_max: 2,
            dependency_depth: 1,
            balance: LoadBalance::BalancedCombined,
        },
        "RDP" => ClosedForms {
            encode_per_element: 2.0 - 2.0 / (pf - 1.0),
            encode_formula: "2 - 2/(p-1)",
            decode_per_lost: Some(pf - 2.0),
            decode_formula: "p - 2",
            // Diagonal parity covers the row parity, so updates cascade:
            // every data element rewrites its row parity, its diagonal
            // parity, and (unless it sits on the missing diagonal) the
            // diagonal parity of its row parity.
            update_avg: 3.0 - (2.0 * pf - 3.0) / ((pf - 1.0) * (pf - 1.0)),
            update_formula: "3 - (2p-3)/(p-1)^2",
            update_max: 3,
            dependency_depth: 2,
            balance: LoadBalance::DedicatedParity,
        },
        "H-Code" => ClosedForms {
            encode_per_element: 2.0 - 2.0 / (pf - 1.0),
            encode_formula: "2 - 2/(p-1)",
            decode_per_lost: Some(pf - 2.0),
            decode_formula: "p - 2",
            update_avg: 2.0,
            update_formula: "2",
            update_max: 2,
            dependency_depth: 1,
            balance: LoadBalance::DedicatedParity,
        },
        "HDP" => ClosedForms {
            encode_per_element: 2.0 - 1.0 / (pf - 3.0),
            encode_formula: "2 - 1/(p-3)",
            decode_per_lost: Some((2.0 * pf - 7.0) / 2.0),
            decode_formula: "(2p-7)/2",
            update_avg: 3.0,
            update_formula: "3",
            update_max: 3,
            dependency_depth: 2,
            balance: LoadBalance::BalancedWrites,
        },
        "EVENODD" => ClosedForms {
            encode_per_element: 3.0 - 4.0 / pf,
            encode_formula: "3 - 4/p",
            decode_per_lost: None,
            decode_formula: "(no closed form: Gaussian S-syndrome steps)",
            update_avg: 3.0 - 2.0 / pf,
            update_formula: "3 - 2/p",
            update_max: p,
            dependency_depth: 1,
            balance: LoadBalance::DedicatedParity,
        },
        "P-Code" => ClosedForms {
            encode_per_element: 2.0 - 2.0 / (pf - 3.0),
            encode_formula: "2 - 2/(p-3)",
            decode_per_lost: Some(pf - 4.0),
            decode_formula: "p - 4",
            update_avg: 2.0,
            update_formula: "2",
            update_max: 2,
            dependency_depth: 1,
            balance: LoadBalance::BalancedWrites,
        },
        _ => return None,
    })
}

/// One closed form checked against the value measured on the compiled
/// artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct ClaimCheck {
    /// What is being claimed, e.g. `"encode XORs per data element"`.
    pub name: String,
    /// The symbolic closed form the expectation came from.
    pub formula: String,
    /// The closed form evaluated at this `p` (may be `f64::INFINITY` for
    /// unbounded load-balance factors).
    pub expected: f64,
    /// The value measured on the compiled artifact.
    pub actual: f64,
    /// Whether the claim holds (exact within `1e-9`, or both infinite).
    pub pass: bool,
}

impl ClaimCheck {
    /// Check `actual` against `expected` (tolerance `1e-9`; infinities
    /// must match as infinities).
    pub fn check(name: &str, formula: &str, expected: f64, actual: f64) -> Self {
        let pass = if expected.is_infinite() || actual.is_infinite() {
            expected.is_infinite() && actual.is_infinite() && expected.signum() == actual.signum()
        } else {
            (actual - expected).abs() < 1e-9
        };
        ClaimCheck {
            name: name.to_string(),
            formula: formula.to_string(),
            expected,
            actual,
            pass,
        }
    }
}

impl fmt::Display for ClaimCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} = {} vs measured {} — {}",
            self.name,
            self.formula,
            self.expected,
            self.actual,
            if self.pass { "ok" } else { "MISS" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_tolerance_and_infinities() {
        assert!(ClaimCheck::check("x", "1", 1.0, 1.0 + 1e-12).pass);
        assert!(!ClaimCheck::check("x", "1", 1.0, 1.001).pass);
        assert!(ClaimCheck::check("lf", "inf", f64::INFINITY, f64::INFINITY).pass);
        assert!(!ClaimCheck::check("lf", "inf", f64::INFINITY, 1.0).pass);
        assert!(!ClaimCheck::check("lf", "1", 1.0, f64::INFINITY).pass);
    }

    #[test]
    fn registry_names_have_forms_and_strangers_do_not() {
        for name in [
            "D-Code", "X-Code", "RDP", "H-Code", "HDP", "EVENODD", "P-Code",
        ] {
            assert!(closed_forms(name, 7).is_some(), "{name}");
        }
        assert!(closed_forms("toy", 7).is_none());
    }
}
