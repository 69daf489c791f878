//! The dcode-race suite: every invariant holds across its whole
//! interleaving tree, every mutation is caught with a replayable seed,
//! and the lock-discipline tier maps registry evidence into verify
//! diagnostics. Under `--features dcode-sim` the invariants run at the
//! deep (`dcode race --all`) budgets and must clear the interleaving
//! floor; without it they run the quick smoke budgets.

use dcode_race::{
    invariants, lockdisc, run_all, run_mutation, test_options, MIN_DEEP_INTERLEAVINGS,
};
use dcode_verify::diag::{DiagKind, Severity};
use minisim::lockorder::{LockOrderReport, WaitWhileHolding};
use minisim::sync::{Arc, Condvar, Mutex};
use minisim::ViolationKind;

fn floor() -> u64 {
    if cfg!(feature = "dcode-sim") {
        MIN_DEEP_INTERLEAVINGS
    } else {
        1
    }
}

fn check_invariant(name: &str) {
    let inv = invariants()
        .into_iter()
        .find(|i| i.name == name)
        .expect("registered invariant");
    let report = minisim::check(&test_options(), inv.model);
    assert!(
        report.violation.is_none(),
        "{name} violated: {:#?}",
        report.violation
    );
    assert!(
        report.interleavings >= floor(),
        "{name} explored only {} interleavings (floor {})",
        report.interleavings,
        floor()
    );
}

#[test]
fn ack_after_durable_holds() {
    check_invariant("ack_after_durable");
}

#[test]
fn busy_not_hang_holds() {
    check_invariant("busy_not_hang");
}

#[test]
fn shutdown_joins_all_holds() {
    check_invariant("shutdown_joins_all");
}

#[test]
fn stat_never_queued_holds() {
    check_invariant("stat_never_queued");
}

#[test]
fn cache_race_adopt_holds() {
    check_invariant("cache_race_adopt");
}

#[test]
fn submit_vs_drop_holds() {
    check_invariant("submit_vs_drop");
}

#[test]
fn one_turn_in_order_holds() {
    check_invariant("one_turn_in_order");
}

fn check_mutation(name: &str, expect_kind: ViolationKind) {
    let inv = invariants()
        .into_iter()
        .find(|i| i.mutation.name == name)
        .expect("registered mutation");
    let out = run_mutation(&inv.mutation);
    assert!(out.caught, "mutation {name} was not caught");
    assert_eq!(out.kind, Some(expect_kind), "mutation {name}");
    assert!(
        out.replay_reproduced,
        "mutation {name}'s seed did not replay to a violation"
    );
    let seed = out.seed.expect("caught mutations carry a seed");
    assert!(seed.starts_with('p') && seed.contains(':'), "seed {seed}");
}

#[test]
fn mutation_reply_before_publish_is_caught() {
    check_mutation("reply_before_publish", ViolationKind::Panic);
}

#[test]
fn mutation_blocking_push_is_caught() {
    check_mutation("blocking_push", ViolationKind::Deadlock);
}

#[test]
fn mutation_drop_without_notify_is_caught() {
    check_mutation("drop_without_notify", ViolationKind::Deadlock);
}

#[test]
fn mutation_stat_through_queue_is_caught() {
    check_mutation("stat_through_queue", ViolationKind::Deadlock);
}

#[test]
fn mutation_adopt_overwrite_is_caught() {
    check_mutation("adopt_overwrite", ViolationKind::Panic);
}

#[test]
fn mutation_exit_before_drain_is_caught() {
    check_mutation("exit_before_drain", ViolationKind::Panic);
}

#[test]
fn mutation_barging_turn_is_caught() {
    check_mutation("barging_turn", ViolationKind::Panic);
}

#[test]
fn counterexamples_carry_a_trace() {
    let inv = invariants()
        .into_iter()
        .find(|i| i.mutation.name == "reply_before_publish")
        .expect("registered");
    let report = minisim::check(&dcode_race::mutation_options(), inv.mutation.model);
    let violation = report.violation.expect("mutation caught");
    assert!(
        !violation.trace.is_empty(),
        "counterexample must list its interleaving's visible ops"
    );
    let replayed = minisim::replay(&violation.seed, inv.mutation.model).expect("seed parses");
    assert!(replayed.violation.is_some(), "replay reproduces the bug");
}

/// The checker's spurious-wakeup injection catches a condvar wait whose
/// predicate is checked with `if` instead of a loop — the wait-predicate
/// discipline the ISSUE calls out, demonstrated on facade primitives.
#[test]
fn unlooped_condvar_wait_is_caught_by_spurious_wakeups() {
    fn unlooped() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let setter = minisim::thread::spawn(move || {
            *p2.0.lock().expect("flag lock") = true;
            p2.1.notify_one();
        });
        let (lock, cv) = (&pair.0, &pair.1);
        let mut ready = lock.lock().expect("flag lock");
        if !*ready {
            // BUG: predicate not rechecked in a loop.
            ready = cv.wait(ready).expect("flag lock");
        }
        assert!(*ready, "woke without the predicate holding");
        drop(ready);
        setter.join().expect("setter exits");
    }
    let report = minisim::check(&dcode_race::mutation_options(), unlooped);
    let violation = report.violation.expect("unlooped wait must be caught");
    assert_eq!(violation.kind, ViolationKind::Panic);
    assert!(
        violation.message.contains("predicate"),
        "{}",
        violation.message
    );
}

#[test]
fn lock_discipline_workload_is_cycle_free() {
    let (report, diags) = lockdisc::analyze();
    assert!(
        report.cycles.is_empty(),
        "production lock order has a cycle: {:?}",
        report.cycles
    );
    assert!(
        diags.iter().all(|d| d.severity != Severity::Error),
        "{diags:?}"
    );
}

#[test]
fn diagnose_maps_registry_evidence_to_verify_diagnostics() {
    let synthetic = LockOrderReport {
        edges: vec![("a".into(), "b".into(), 3), ("b".into(), "a".into(), 1)],
        cycles: vec![vec!["a".into(), "b".into()]],
        waits_while_holding: vec![WaitWhileHolding {
            condvar: "cv".into(),
            waiting_lock: "inner".into(),
            held: vec!["outer".into()],
        }],
        max_hold_micros: vec![("slow".into(), 120), ("fast".into(), 3)],
    };
    let diags = lockdisc::diagnose(&synthetic, 50);
    assert!(diags.iter().any(|d| {
        d.severity == Severity::Error
            && matches!(&d.kind, DiagKind::LockOrderCycle { chain } if chain == &vec!["a".to_string(), "b".to_string()])
    }));
    assert!(diags.iter().any(|d| {
        matches!(&d.kind, DiagKind::CondvarWaitWhileHolding { condvar, released, held }
            if condvar == "cv" && released == "inner" && held == &vec!["outer".to_string()])
    }));
    assert!(diags.iter().any(
        |d| matches!(&d.kind, DiagKind::LongLockHold { lock, micros, budget_micros }
            if lock == "slow" && *micros == 120 && *budget_micros == 50)
    ));
    // The fast lock stays under budget: exactly one hold diagnostic.
    assert_eq!(
        diags
            .iter()
            .filter(|d| matches!(d.kind, DiagKind::LongLockHold { .. }))
            .count(),
        1
    );
    // Human renderings carry the lock names.
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        rendered
            .iter()
            .any(|s| s.contains("lock-order cycle: a -> b -> a")),
        "{rendered:?}"
    );
}

#[test]
fn full_report_passes_and_renders() {
    let report = run_all(false);
    assert!(report.passed(), "failures: {:?}", report.failures());
    let json = report.to_json();
    for needle in [
        "\"passed\":true",
        "\"ack_after_durable\"",
        "\"busy_not_hang\"",
        "\"shutdown_joins_all\"",
        "\"stat_never_queued\"",
        "\"cache_race_adopt\"",
        "\"submit_vs_drop\"",
        "\"one_turn_in_order\"",
        "\"mutation\"",
        "\"lock_order\"",
        "\"replay_reproduced\":true",
    ] {
        assert!(json.contains(needle), "JSON missing {needle}: {json}");
    }
    let text = report.to_string();
    assert!(text.contains("race: PASS"), "{text}");
    assert!(text.contains("lock order:"), "{text}");
}
