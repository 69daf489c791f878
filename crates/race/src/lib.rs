#![warn(missing_docs)]
//! # dcode-race
//!
//! Exhaustive concurrency model checking and lock-discipline analysis
//! for the workspace's pool/cache/shard layer, surfaced by the CLI as
//! `dcode race [--all] [--json]`.
//!
//! Two tiers, both fully static (no wall-clock races, no stress loops):
//!
//! 1. **Model checking** ([`models`]): seven invariants over the *real*
//!    [`minipool::WorkerPool`], [`dcode_codec::cache::ScheduleCache`],
//!    and `dcode-server` shard gate state machines, executed
//!    under [`minisim::check`]'s deterministic DFS scheduler. Every
//!    interleaving up to the preemption bound is enumerated; violations
//!    come back with a seed that [`minisim::replay`]s the exact
//!    counterexample interleaving. Each invariant ships with a
//!    **mutation self-test** ([`mutations`]) — a deliberately buggy
//!    re-implementation of the protocol that the checker must catch,
//!    proving the invariant has teeth.
//! 2. **Lock discipline** ([`lockdisc`]): a representative workload runs
//!    on the production `std::sync` path with `minisim`'s lock-order
//!    registry enabled; the recorded acquisition-order graph is checked
//!    for cycles, condvar waits entered while holding other locks, and
//!    over-budget hold times, reported through `dcode-verify`'s
//!    [`Diagnostic`] vocabulary.
//!
//! The `dcode-sim` cargo feature only *enlarges exploration bounds* (the
//! in-crate tests then run at the deep `--all` budgets); it changes no
//! production code path.

pub mod lockdisc;
pub mod models;
pub mod mutations;

use dcode_verify::diag::{Diagnostic, Severity};
use minisim::lockorder::LockOrderReport;
use minisim::{check, replay, CheckOptions, Report, ViolationKind};
use std::fmt;

/// The interleaving floor each invariant must clear in deep (`--all`)
/// mode: fewer than this means the model is too small to mean anything.
pub const MIN_DEEP_INTERLEAVINGS: u64 = 1000;

/// Exploration budgets. Quick mode (`dcode race`) is a smoke pass;
/// deep mode (`dcode race --all`) is the CI gate and must push every
/// invariant past [`MIN_DEEP_INTERLEAVINGS`] distinct interleavings.
pub fn check_options(deep: bool) -> CheckOptions {
    if deep {
        CheckOptions {
            preemption_bound: 3,
            spurious_wakeups: 1,
            max_interleavings: 25_000,
            max_steps: 200_000,
        }
    } else {
        CheckOptions {
            preemption_bound: 2,
            spurious_wakeups: 1,
            max_interleavings: 4_000,
            max_steps: 100_000,
        }
    }
}

/// The budgets the in-crate tests run at: quick normally, deep when the
/// `dcode-sim` feature is enabled (CI's race job).
pub fn test_options() -> CheckOptions {
    check_options(cfg!(feature = "dcode-sim"))
}

/// Budgets for mutation self-tests: the point is *catching* the bug, not
/// enumerating the whole tree, and every mutant falls within a couple of
/// preemptions.
pub fn mutation_options() -> CheckOptions {
    CheckOptions {
        preemption_bound: 2,
        spurious_wakeups: 1,
        max_interleavings: 20_000,
        max_steps: 100_000,
    }
}

/// A deliberately buggy protocol the checker must catch.
pub struct Mutation {
    /// Short identifier (e.g. `reply_before_publish`).
    pub name: &'static str,
    /// The bug class it reintroduces.
    pub description: &'static str,
    /// The buggy model.
    pub model: fn(),
}

/// One model-checked invariant plus its mutation self-test.
pub struct Invariant {
    /// Short identifier (e.g. `ack_after_durable`).
    pub name: &'static str,
    /// What the invariant asserts.
    pub description: &'static str,
    /// The model over the real code.
    pub model: fn(),
    /// The buggy counterpart that must be caught.
    pub mutation: Mutation,
}

/// The full invariant registry, in report order.
pub fn invariants() -> Vec<Invariant> {
    vec![
        Invariant {
            name: "ack_after_durable",
            description: "no PUT reply before the store op completed and the snapshot published",
            model: models::ack_after_durable,
            mutation: Mutation {
                name: "reply_before_publish",
                description: "turn-holder acks before publishing the snapshot",
                model: mutations::reply_before_publish,
            },
        },
        Invariant {
            name: "busy_not_hang",
            description: "a full shard refuses with Busy(depth) instead of blocking",
            model: models::busy_not_hang,
            mutation: Mutation {
                name: "blocking_push",
                description: "admission to a full shard waits for room behind a stalled turn",
                model: mutations::blocking_push,
            },
        },
        Invariant {
            name: "shutdown_joins_all",
            description: "every handler parked for a turn at shutdown returns, none executes",
            model: models::shutdown_joins_all,
            mutation: Mutation {
                name: "drop_without_notify",
                description: "shutdown sets its flag without notifying parked handlers",
                model: mutations::drop_without_notify,
            },
        },
        Invariant {
            name: "stat_never_queued",
            description: "STAT completes from published snapshots while the shard is wedged",
            model: models::stat_never_queued,
            mutation: Mutation {
                name: "stat_through_queue",
                description: "stat takes a turn behind the op parked at the stalled shard",
                model: mutations::stat_through_queue,
            },
        },
        Invariant {
            name: "cache_race_adopt",
            description: "racing schedule-cache misses converge on one pointer-identical program",
            model: models::cache_race_adopt,
            mutation: Mutation {
                name: "adopt_overwrite",
                description: "insert-race loser overwrites the winner's entry",
                model: mutations::adopt_overwrite,
            },
        },
        Invariant {
            name: "submit_vs_drop",
            description: "submit racing pool teardown completes or is rejected, never hangs",
            model: models::submit_vs_drop,
            mutation: Mutation {
                name: "exit_before_drain",
                description: "worker honors shutdown before draining accepted jobs",
                model: mutations::exit_before_drain,
            },
        },
        Invariant {
            name: "one_turn_in_order",
            description: "one op inside a shard's engine at a time, turns in ticket order, through a stall and an engine panic",
            model: models::one_turn_in_order,
            mutation: Mutation {
                name: "barging_turn",
                description: "woken waiters race for the engine with no arrival order",
                model: mutations::barging_turn,
            },
        },
    ]
}

/// The outcome of one mutation self-test.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The mutation's identifier.
    pub name: &'static str,
    /// The bug class it reintroduces.
    pub description: &'static str,
    /// Whether the checker found a violating interleaving.
    pub caught: bool,
    /// The violation kind, when caught.
    pub kind: Option<ViolationKind>,
    /// The counterexample seed, when caught.
    pub seed: Option<String>,
    /// Whether replaying the seed reproduced a violation.
    pub replay_reproduced: bool,
    /// Interleavings explored before the catch (or the budget).
    pub interleavings: u64,
}

/// The outcome of one invariant: the checker's report on the real code
/// plus its mutation self-test.
#[derive(Clone, Debug)]
pub struct InvariantOutcome {
    /// The invariant's identifier.
    pub name: &'static str,
    /// What it asserts.
    pub description: &'static str,
    /// The model-checking report over the real code.
    pub report: Report,
    /// The mutation self-test outcome.
    pub mutation: MutationOutcome,
}

/// Everything `dcode race` reports.
pub struct RaceReport {
    /// Whether this was a deep (`--all`) run.
    pub deep: bool,
    /// The interleaving floor applied per invariant (0 in quick mode).
    pub min_interleavings: u64,
    /// Per-invariant outcomes.
    pub invariants: Vec<InvariantOutcome>,
    /// The recorded lock-order graph from the production-path workload.
    pub lock_order: LockOrderReport,
    /// Lock-discipline findings mapped into the verify vocabulary.
    pub diagnostics: Vec<Diagnostic>,
}

/// Run one mutation self-test: check it, and if caught, replay the seed
/// to confirm the counterexample is deterministic.
pub fn run_mutation(mutation: &Mutation) -> MutationOutcome {
    let report = check(&mutation_options(), mutation.model);
    match report.violation {
        Some(v) => {
            let replay_reproduced =
                replay(&v.seed, mutation.model).is_ok_and(|r| r.violation.is_some());
            MutationOutcome {
                name: mutation.name,
                description: mutation.description,
                caught: true,
                kind: Some(v.kind),
                seed: Some(v.seed),
                replay_reproduced,
                interleavings: report.interleavings,
            }
        }
        None => MutationOutcome {
            name: mutation.name,
            description: mutation.description,
            caught: false,
            kind: None,
            seed: None,
            replay_reproduced: false,
            interleavings: report.interleavings,
        },
    }
}

/// Model-check one invariant (and its mutation) at the given budgets.
pub fn run_invariant(invariant: &Invariant, opts: &CheckOptions) -> InvariantOutcome {
    InvariantOutcome {
        name: invariant.name,
        description: invariant.description,
        report: check(opts, invariant.model),
        mutation: run_mutation(&invariant.mutation),
    }
}

/// Run both tiers: every invariant + mutation under the model checker,
/// then the lock-discipline workload on the production path.
pub fn run_all(deep: bool) -> RaceReport {
    let opts = check_options(deep);
    let invariants = invariants()
        .iter()
        .map(|inv| run_invariant(inv, &opts))
        .collect();
    let (lock_order, diagnostics) = lockdisc::analyze();
    RaceReport {
        deep,
        min_interleavings: if deep { MIN_DEEP_INTERLEAVINGS } else { 0 },
        invariants,
        lock_order,
        diagnostics,
    }
}

fn kind_name(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::Panic => "panic",
        ViolationKind::Deadlock => "deadlock",
        ViolationKind::StepLimit => "step-limit",
        ViolationKind::ScheduleDivergence => "schedule-divergence",
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl RaceReport {
    /// Why this report fails, one reason per line; empty means pass.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for inv in &self.invariants {
            if let Some(v) = &inv.report.violation {
                out.push(format!(
                    "invariant {} violated ({}): {} [seed {}]",
                    inv.name,
                    kind_name(v.kind),
                    v.message,
                    v.seed
                ));
            }
            if inv.report.interleavings < self.min_interleavings {
                out.push(format!(
                    "invariant {} explored only {} interleavings (floor {})",
                    inv.name, inv.report.interleavings, self.min_interleavings
                ));
            }
            if !inv.mutation.caught {
                out.push(format!(
                    "mutation {} was NOT caught — the {} invariant has gone blind",
                    inv.mutation.name, inv.name
                ));
            } else if !inv.mutation.replay_reproduced {
                out.push(format!(
                    "mutation {} was caught but its seed did not replay",
                    inv.mutation.name
                ));
            }
        }
        for d in &self.diagnostics {
            if d.severity == Severity::Error {
                out.push(d.to_string());
            }
        }
        out
    }

    /// True when every invariant holds, every mutation is caught with a
    /// replayable seed, the interleaving floor is met, and the lock-order
    /// graph is cycle-free.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// The machine-readable report `dcode race --json` prints (and CI
    /// archives as `race-report.json`).
    pub fn to_json(&self) -> String {
        let invariants: Vec<String> = self
            .invariants
            .iter()
            .map(|inv| {
                let violation = match &inv.report.violation {
                    Some(v) => format!(
                        "{{\"kind\":\"{}\",\"message\":\"{}\",\"seed\":\"{}\",\"trace_len\":{}}}",
                        kind_name(v.kind),
                        esc(&v.message),
                        esc(&v.seed),
                        v.trace.len()
                    ),
                    None => "null".to_string(),
                };
                let m = &inv.mutation;
                format!(
                    "{{\"name\":\"{}\",\"description\":\"{}\",\"interleavings\":{},\
                     \"complete\":{},\"preemption_bound\":{},\"violation\":{},\
                     \"mutation\":{{\"name\":\"{}\",\"caught\":{},\"kind\":{},\
                     \"seed\":{},\"replay_reproduced\":{},\"interleavings\":{}}}}}",
                    inv.name,
                    esc(inv.description),
                    inv.report.interleavings,
                    inv.report.complete,
                    inv.report.preemption_bound,
                    violation,
                    m.name,
                    m.caught,
                    m.kind
                        .map_or("null".to_string(), |k| format!("\"{}\"", kind_name(k))),
                    m.seed
                        .as_deref()
                        .map_or("null".to_string(), |s| format!("\"{}\"", esc(s))),
                    m.replay_reproduced,
                    m.interleavings,
                )
            })
            .collect();
        let edges: Vec<String> = self
            .lock_order
            .edges
            .iter()
            .map(|(from, to, n)| {
                format!(
                    "{{\"from\":\"{}\",\"to\":\"{}\",\"count\":{n}}}",
                    esc(from),
                    esc(to)
                )
            })
            .collect();
        let cycles: Vec<String> = self
            .lock_order
            .cycles
            .iter()
            .map(|c| {
                let names: Vec<String> = c.iter().map(|n| format!("\"{}\"", esc(n))).collect();
                format!("[{}]", names.join(","))
            })
            .collect();
        let waits: Vec<String> = self
            .lock_order
            .waits_while_holding
            .iter()
            .map(|w| {
                let held: Vec<String> = w.held.iter().map(|h| format!("\"{}\"", esc(h))).collect();
                format!(
                    "{{\"condvar\":\"{}\",\"released\":\"{}\",\"held\":[{}]}}",
                    esc(&w.condvar),
                    esc(&w.waiting_lock),
                    held.join(",")
                )
            })
            .collect();
        let holds: Vec<String> = self
            .lock_order
            .max_hold_micros
            .iter()
            .map(|(name, us)| format!("\"{}\":{us}", esc(name)))
            .collect();
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| format!("\"{}\"", esc(&d.to_string())))
            .collect();
        format!(
            "{{\"deep\":{},\"min_interleavings\":{},\"passed\":{},\n \
             \"invariants\":[{}],\n \
             \"lock_order\":{{\"edges\":[{}],\"cycles\":[{}],\
             \"waits_while_holding\":[{}],\"max_hold_micros\":{{{}}}}},\n \
             \"diagnostics\":[{}]}}",
            self.deep,
            self.min_interleavings,
            self.passed(),
            invariants.join(",\n  "),
            edges.join(","),
            cycles.join(","),
            waits.join(","),
            holds.join(","),
            diags.join(",")
        )
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "race: {} invariant(s), preemption bound {}, {} mode",
            self.invariants.len(),
            check_options(self.deep).preemption_bound,
            if self.deep { "deep" } else { "quick" }
        )?;
        for inv in &self.invariants {
            let status = match &inv.report.violation {
                Some(v) => format!("VIOLATED ({})", kind_name(v.kind)),
                None => "ok".to_string(),
            };
            let mutation = if inv.mutation.caught && inv.mutation.replay_reproduced {
                format!(
                    "mutation {} caught ({}) + replayed in {} interleaving(s)",
                    inv.mutation.name,
                    inv.mutation.kind.map_or("?", kind_name),
                    inv.mutation.interleavings
                )
            } else if inv.mutation.caught {
                format!(
                    "mutation {} caught but seed did NOT replay",
                    inv.mutation.name
                )
            } else {
                format!("mutation {} NOT caught", inv.mutation.name)
            };
            writeln!(
                f,
                "  {:<20} {:>6} interleavings{} — {status}; {mutation}",
                inv.name,
                inv.report.interleavings,
                if inv.report.complete {
                    " (tree exhausted)"
                } else {
                    ""
                },
            )?;
        }
        writeln!(
            f,
            "lock order: {} edge(s), {} cycle(s), {} condvar-wait(s) while holding, {} named lock(s) timed",
            self.lock_order.edges.len(),
            self.lock_order.cycles.len(),
            self.lock_order.waits_while_holding.len(),
            self.lock_order.max_hold_micros.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        let failures = self.failures();
        if failures.is_empty() {
            write!(f, "race: PASS")
        } else {
            for reason in &failures {
                writeln!(f, "  FAIL {reason}")?;
            }
            write!(f, "race: FAIL ({} reason(s))", failures.len())
        }
    }
}
