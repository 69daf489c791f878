//! The fully static second tier: run a representative pool + cache +
//! shard workload on the **production** (`std::sync`) path with the
//! `minisim` lock-order registry enabled, then report the observed
//! lock-acquisition order graph — cycles, condvar waits entered while
//! other locks were held, and long hold times — through `dcode-verify`'s
//! [`Diagnostic`] vocabulary.

use crate::models::{put, stub_shard};
use dcode_server::Response;
use dcode_verify::diag::{DiagKind, Diagnostic};
use minipool::WorkerPool;
use minisim::lockorder::{self, LockOrderReport};
use std::sync::Mutex as StdMutex;

/// Hold-time budget: a named lock held longer than this (per acquisition)
/// earns a [`DiagKind::LongLockHold`] warning. Every lock in the
/// workspace guards queue/snapshot bookkeeping, never I/O or XOR, so
/// 50ms is generous by orders of magnitude.
pub const HOLD_BUDGET_MICROS: u64 = 50_000;

/// The registry is process-global; serialize analyzer runs so two
/// concurrent callers (parallel tests) cannot interleave their evidence.
fn gate() -> &'static StdMutex<()> {
    static GATE: StdMutex<()> = StdMutex::new(());
    &GATE
}

/// Exercise every named lock role in the workspace on the std path:
/// minipool batch + detached submit + drop-join, schedule-cache miss and
/// hit, and a shard gate serving two handlers — one parked for its turn
/// behind a stall — while a STAT-style probe reads the published snapshot
/// and the depth.
fn workload() {
    // pool.queue / pool.available / pool.workers
    let pool = WorkerPool::with_workers(2);
    let squares = pool.run((0..4u64).map(|i| move || i * i).collect::<Vec<_>>());
    assert_eq!(squares, vec![0, 1, 4, 9]);
    let _ = pool.submit(|| {});
    drop(pool);

    // codec.cache.entries — one miss, one hit
    let cache = dcode_codec::cache::ScheduleCache::new();
    let layout = dcode_core::dcode::dcode(5).expect("5 is prime");
    let a = cache.encode_program(&layout);
    let b = cache.encode_program(&layout);
    assert!(std::sync::Arc::ptr_eq(&a, &b));

    // server.shard.gate / server.shard.turn / server.shard.snapshot
    let (shard, _evidence) = stub_shard(4);
    shard.set_stalled(true);
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| shard.run(&put("parked")));
        while shard.depth() < 1 {
            std::thread::yield_now();
        }
        assert_eq!(shard.snapshot().ops_done, 0);
        shard.set_stalled(false);
        assert_eq!(parked.join().expect("handler exits"), Response::Ok);
    });
    assert_eq!(shard.run(&put("k")), Response::Ok);
    assert_eq!(shard.snapshot().ops_done, 2);
    assert_eq!(shard.depth(), 0);
    shard.shutdown();
}

/// Run the workload under the registry and return the recorded report.
pub fn observe() -> LockOrderReport {
    let _gate = gate()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    lockorder::reset();
    lockorder::enable();
    workload();
    lockorder::disable();
    let report = lockorder::snapshot();
    lockorder::reset();
    report
}

/// Map a lock-order report to diagnostics: cycles are errors (a real
/// deadlock recipe), condvar-waits-while-holding and over-budget holds
/// are warnings.
pub fn diagnose(report: &LockOrderReport, hold_budget_micros: u64) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for cycle in &report.cycles {
        diags.push(Diagnostic::error(DiagKind::LockOrderCycle {
            chain: cycle.clone(),
        }));
    }
    for w in &report.waits_while_holding {
        diags.push(Diagnostic::warning(DiagKind::CondvarWaitWhileHolding {
            condvar: w.condvar.clone(),
            released: w.waiting_lock.clone(),
            held: w.held.clone(),
        }));
    }
    for (lock, micros) in &report.max_hold_micros {
        if *micros > hold_budget_micros {
            diags.push(Diagnostic::warning(DiagKind::LongLockHold {
                lock: lock.clone(),
                micros: *micros,
                budget_micros: hold_budget_micros,
            }));
        }
    }
    diags
}

/// [`observe`] + [`diagnose`] with the default budget.
pub fn analyze() -> (LockOrderReport, Vec<Diagnostic>) {
    let report = observe();
    let diags = diagnose(&report, HOLD_BUDGET_MICROS);
    (report, diags)
}
