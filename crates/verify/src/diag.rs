//! Machine-readable verification diagnostics.
//!
//! Every pass — equivalence, linting, peephole, MDS rank — reports
//! through one [`Diagnostic`] type so callers (the CLI, CI, the mutation
//! suite) can match on structured [`DiagKind`]s instead of scraping
//! strings. `Display` renders the human form.

use dcode_core::grid::Cell;
use std::fmt;

/// How bad a finding is.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Stylistic or efficiency concern; the program still computes the
    /// right bytes.
    Warning,
    /// The program is wrong or would panic.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a pass found, with enough structure to act on programmatically.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DiagKind {
    /// Equivalence: after symbolic replay, `cell` holds the wrong GF(2)
    /// combination of data symbols.
    WrongSymbols {
        /// The block whose final value is wrong.
        cell: Cell,
        /// Data-symbol indices the layout says the block must equal.
        expected: Vec<usize>,
        /// Data-symbol indices the program actually left there.
        actual: Vec<usize>,
    },
    /// Structural: an op's target or source index lies outside the grid.
    OutOfRange {
        /// The offending op.
        op: usize,
        /// The out-of-range linear block index.
        block: usize,
    },
    /// Lint: an op lists its own target among its sources. The executor
    /// detaches the target before gathering, so this panics at runtime
    /// (there is no in-place accumulate idiom in this IR — the first
    /// source is copied over the target).
    SelfReference {
        /// The self-referencing op.
        op: usize,
    },
    /// Lint: one op lists the same source block more than once. An even
    /// multiplicity cancels to nothing under XOR; an odd one wastes reads.
    DuplicateSource {
        /// The op with the repeated source.
        op: usize,
        /// The repeated linear block index.
        block: usize,
        /// How many times it appears.
        multiplicity: usize,
    },
    /// Lint: an op with no sources — it zeroes its target, which no
    /// compiled encode or recovery schedule ever needs.
    EmptyOp {
        /// The sourceless op.
        op: usize,
    },
    /// Lint: an op whose result is overwritten by a later op before
    /// anything reads it — the work is dead.
    DeadOp {
        /// The op computing the unused value.
        op: usize,
        /// The later op that overwrites it.
        shadowed_by: usize,
    },
    /// Peephole: an op recomputes the exact XOR expression an earlier op
    /// already produced (and none of the shared sources were rewritten in
    /// between) — a common-subexpression-elimination opportunity.
    DuplicateExpression {
        /// The op doing the redundant recomputation.
        op: usize,
        /// The earlier op that already computed the same value.
        earlier_op: usize,
    },
    /// Peephole: an op's result is never read by any later op, never
    /// overwritten, and is not one of the program's expected output blocks
    /// — a dead scratch write.
    UnreadResult {
        /// The op computing the unused value.
        op: usize,
        /// The linear block index it writes.
        block: usize,
    },
    /// Peephole: one op's gather touches more bytes than the working-set
    /// budget, so the tiled kernel's blocks no longer fit cache together.
    OversizedWorkingSet {
        /// The op with the oversized gather.
        op: usize,
        /// Estimated working set in bytes (the op's sources + its target,
        /// one tile each).
        bytes: usize,
        /// The budget the estimate exceeded.
        budget: usize,
    },
    /// MDS rank: an erasure the code must tolerate is symbolically
    /// unrecoverable (the survivor equations do not span the lost cells).
    Unrecoverable {
        /// The failed disk columns.
        failed: Vec<usize>,
        /// Rank deficiency: how many lost cells stay undetermined.
        deficiency: usize,
    },
    /// A recovery plan for a legal erasure could not be produced at all.
    PlanFailed {
        /// The failed disk columns.
        failed: Vec<usize>,
        /// The planner's error message.
        reason: String,
    },
    /// Lock discipline: the runtime lock-acquisition order graph contains
    /// a cycle — two threads taking these locks in opposite orders can
    /// deadlock. Reported by `dcode race` from the `minisim` lock-order
    /// registry.
    LockOrderCycle {
        /// The cycle as a lock-name chain; the last entry is acquired
        /// while the first is held, closing the loop.
        chain: Vec<String>,
    },
    /// Lock discipline: a thread parked on a condvar while still holding
    /// *other* locks — everything in `held` stays locked for the whole
    /// wait, an easy route to convoying or deadlock.
    CondvarWaitWhileHolding {
        /// The condvar waited on.
        condvar: String,
        /// The lock the wait atomically released (the condvar's paired
        /// mutex).
        released: String,
        /// Locks still held across the wait.
        held: Vec<String>,
    },
    /// Lock discipline: a lock was held longer than the hold-time budget,
    /// so threads queueing behind it stall for that long.
    LongLockHold {
        /// The lock's registered name.
        lock: String,
        /// The longest observed hold in microseconds.
        micros: u64,
        /// The budget it exceeded, in microseconds.
        budget_micros: u64,
    },
}

/// One finding from one verification pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// The structured finding.
    pub kind: DiagKind,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(kind: DiagKind) -> Self {
        Diagnostic {
            severity: Severity::Error,
            kind,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(kind: DiagKind) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            kind,
        }
    }
}

fn symbol_list(symbols: &[usize]) -> String {
    if symbols.is_empty() {
        return "0".to_string();
    }
    symbols
        .iter()
        .map(|j| format!("d{j}"))
        .collect::<Vec<_>>()
        .join("^")
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.severity)?;
        match &self.kind {
            DiagKind::WrongSymbols {
                cell,
                expected,
                actual,
            } => write!(
                f,
                "block {cell} ends as {} but the layout requires {}",
                symbol_list(actual),
                symbol_list(expected)
            ),
            DiagKind::OutOfRange { op, block } => {
                write!(f, "op {op} references block {block} outside the grid")
            }
            DiagKind::SelfReference { op } => {
                write!(f, "op {op} lists its own target among its sources")
            }
            DiagKind::DuplicateSource {
                op,
                block,
                multiplicity,
            } => write!(
                f,
                "op {op} reads block {block} {multiplicity} times ({})",
                if multiplicity % 2 == 0 {
                    "even multiplicity cancels to nothing"
                } else {
                    "redundant reads"
                }
            ),
            DiagKind::EmptyOp { op } => write!(f, "op {op} has no sources (zeroes its target)"),
            DiagKind::DeadOp { op, shadowed_by } => write!(
                f,
                "op {op} is dead: op {shadowed_by} overwrites its target before any read"
            ),
            DiagKind::DuplicateExpression { op, earlier_op } => write!(
                f,
                "op {op} recomputes the expression op {earlier_op} already produced"
            ),
            DiagKind::UnreadResult { op, block } => write!(
                f,
                "op {op} writes block {block}, which nothing reads and no output requires"
            ),
            DiagKind::OversizedWorkingSet { op, bytes, budget } => write!(
                f,
                "op {op} needs a ~{bytes}-byte working set (budget {budget})"
            ),
            DiagKind::Unrecoverable { failed, deficiency } => write!(
                f,
                "erasure of disks {failed:?} is unrecoverable ({deficiency} cells undetermined)"
            ),
            DiagKind::PlanFailed { failed, reason } => {
                write!(f, "no recovery plan for disks {failed:?}: {reason}")
            }
            DiagKind::LockOrderCycle { chain } => write!(
                f,
                "lock-order cycle: {} -> {}",
                chain.join(" -> "),
                chain.first().map_or("?", String::as_str)
            ),
            DiagKind::CondvarWaitWhileHolding {
                condvar,
                released,
                held,
            } => write!(
                f,
                "condvar {condvar} waited (releasing {released}) while still holding [{}]",
                held.join(", ")
            ),
            DiagKind::LongLockHold {
                lock,
                micros,
                budget_micros,
            } => write!(
                f,
                "lock {lock} held for {micros}us (budget {budget_micros}us)"
            ),
        }
    }
}
