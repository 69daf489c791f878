//! Machine-readable verification diagnostics.
//!
//! Every pass — equivalence, race checking, linting, MDS rank — reports
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
    /// The program is wrong, unsafe to parallelize, or would panic.
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
    /// Race: two ops of one dependency level write the same block.
    WriteWriteHazard {
        /// The dependency level.
        level: usize,
        /// The earlier op.
        first_op: usize,
        /// The later op writing the same block.
        second_op: usize,
        /// The doubly-written linear block index.
        block: usize,
    },
    /// Race: an op reads a block that another op of the *same* level
    /// writes, so the level's outcome would depend on the order its ops
    /// run in.
    ReadWriteHazard {
        /// The dependency level.
        level: usize,
        /// The op doing the read.
        reader_op: usize,
        /// The same-level op writing the block.
        writer_op: usize,
        /// The contested linear block index.
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
    /// Lint: the level structure is non-minimal — the op could legally run
    /// at an earlier level, so the program serializes more than its data
    /// dependencies require.
    HoistableOp {
        /// The late op.
        op: usize,
        /// The level it sits in.
        level: usize,
        /// The earliest level its dependencies allow.
        earliest: usize,
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
    /// Peephole: replaying one dependency level's widest gather touches
    /// more bytes than the working-set budget, so the tiled kernel's
    /// blocks no longer fit cache together.
    OversizedWorkingSet {
        /// The dependency level.
        level: usize,
        /// Estimated working set in bytes (widest gather + its target,
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
    /// Optimizer: after symbolic replay over a fully generic initial
    /// state, the optimized program leaves an output block with a
    /// different GF(2) combination of initial block contents than the
    /// original — the rewrite changed observable semantics.
    OptimizedDiverges {
        /// The diverging output block (linear index).
        block: usize,
        /// Initial-block indices the original program leaves there.
        expected: Vec<usize>,
        /// Initial-block indices the optimized program leaves there.
        actual: Vec<usize>,
    },
    /// Optimizer: a cost metric of the optimized program exceeds the
    /// original's — the pipeline made the program *worse*, violating its
    /// monotonicity obligation.
    CostRegression {
        /// The regressed metric (`ops`, `xors`, `reads`, `levels`,
        /// `scratch`).
        metric: &'static str,
        /// The metric before the pipeline.
        before: usize,
        /// The metric after.
        after: usize,
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
            DiagKind::WriteWriteHazard {
                level,
                first_op,
                second_op,
                block,
            } => write!(
                f,
                "level {level}: ops {first_op} and {second_op} both write block {block}"
            ),
            DiagKind::ReadWriteHazard {
                level,
                reader_op,
                writer_op,
                block,
            } => write!(
                f,
                "level {level}: op {reader_op} reads block {block} while op {writer_op} writes it"
            ),
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
            DiagKind::HoistableOp {
                op,
                level,
                earliest,
            } => write!(
                f,
                "op {op} sits in level {level} but could run at level {earliest}"
            ),
            DiagKind::DuplicateExpression { op, earlier_op } => write!(
                f,
                "op {op} recomputes the expression op {earlier_op} already produced"
            ),
            DiagKind::UnreadResult { op, block } => write!(
                f,
                "op {op} writes block {block}, which nothing reads and no output requires"
            ),
            DiagKind::OversizedWorkingSet {
                level,
                bytes,
                budget,
            } => write!(
                f,
                "level {level} needs a ~{bytes}-byte working set (budget {budget})"
            ),
            DiagKind::Unrecoverable { failed, deficiency } => write!(
                f,
                "erasure of disks {failed:?} is unrecoverable ({deficiency} cells undetermined)"
            ),
            DiagKind::PlanFailed { failed, reason } => {
                write!(f, "no recovery plan for disks {failed:?}: {reason}")
            }
            DiagKind::OptimizedDiverges {
                block,
                expected,
                actual,
            } => write!(
                f,
                "optimized program leaves block {block} as {} but the original computes {}",
                symbol_list(actual),
                symbol_list(expected)
            ),
            DiagKind::CostRegression {
                metric,
                before,
                after,
            } => write!(
                f,
                "optimizer regressed {metric}: {before} before, {after} after"
            ),
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
