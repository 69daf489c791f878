//! The model-checked invariants, each a closure over the *real*
//! production state machines — [`minipool::WorkerPool`],
//! [`dcode_codec::cache::ScheduleCache`], and the shard gate
//! ([`dcode_server::Shard`]) — executed under [`minisim::check`]'s
//! deterministic scheduler. Nothing here reimplements the code under test;
//! the models only build inputs, drive the public API from a couple of
//! threads, and assert the invariant. The buggy counterparts that prove
//! the checker *would* catch a regression live in [`crate::mutations`].

use dcode_codec::cache::ScheduleCache;
use dcode_server::{Response, ServerMetrics, Shard, ShardEngine, ShardOp, ShardSnapshot};
use minipool::WorkerPool;
use minisim::sync::{mpsc, Arc, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What a [`StubEngine`] lets the model observe.
#[derive(Default)]
pub(crate) struct Evidence {
    /// Set when a PUT executes — the "durable" moment.
    durable: AtomicBool,
    /// Set while an op is inside the engine.
    inside: AtomicBool,
    /// Names of executed ops, in execution order. A facade lock, so taking
    /// it is a scheduling point *inside* the engine: a gate that let two
    /// ops in at once would be caught with one parked right here.
    log: Mutex<Vec<String>>,
}

/// A deterministic stand-in for the storage half of a shard: no disks, no
/// XOR — just evidence of what executed and when, so the orderings are
/// observable to the checker. A PUT named `bomb` panics mid-op. The gate
/// around it ([`Shard`]) is the production one.
pub(crate) struct StubEngine(Arc<Evidence>);

impl ShardEngine for StubEngine {
    fn execute(&mut self, op: &ShardOp<'_>) -> Response {
        let evidence = &self.0;
        assert!(
            !evidence.inside.swap(true, Ordering::SeqCst),
            "two ops inside one shard's engine at once"
        );
        let (name, response) = match *op {
            ShardOp::Put { name, .. } => {
                evidence.durable.store(true, Ordering::SeqCst);
                (name, Response::Ok)
            }
            ShardOp::Get { name } | ShardOp::Delete { name } => (name, Response::NotFound),
            ShardOp::Scrub => ("scrub", Response::Report("{}".to_string())),
        };
        evidence
            .log
            .lock()
            .expect("log lock")
            .push(name.to_string());
        assert!(name != "bomb", "injected engine panic");
        evidence.inside.store(false, Ordering::SeqCst);
        response
    }

    fn snapshot(&self, ops_done: u64) -> ShardSnapshot {
        ShardSnapshot {
            ops_done,
            ..ShardSnapshot::default()
        }
    }
}

/// A stub-engine shard admitting `cap` ops, plus the engine's evidence.
pub(crate) fn stub_shard(cap: usize) -> (Arc<Shard<StubEngine>>, Arc<Evidence>) {
    let evidence = Arc::new(Evidence::default());
    let shard = Shard::new(
        0,
        StubEngine(Arc::clone(&evidence)),
        cap,
        Arc::new(ServerMetrics::new()),
    );
    (Arc::new(shard), evidence)
}

pub(crate) fn put(name: &str) -> ShardOp<'_> {
    ShardOp::Put { name, value: &[1] }
}

fn terminated() -> Response {
    Response::Err("shard 0 terminated".to_string())
}

/// A connection handler: runs `name` as a PUT to completion on its own
/// thread and then "writes the reply" — sends it to the client.
fn handler(
    shard: &Arc<Shard<StubEngine>>,
    name: &'static str,
    socket: &mpsc::Sender<Response>,
) -> minisim::thread::JoinHandle<()> {
    let (shard, socket) = (Arc::clone(shard), socket.clone());
    minisim::thread::spawn(move || {
        let _ = socket.send(shard.run(&put(name)));
    })
}

/// I1 `ack_after_durable` — when a client sees the reply to a PUT, the
/// store operation has completed (the stub's durable flag is set) *and*
/// the published snapshot already reflects it (`ops_done >= 1`), with a
/// STAT-style observer reading the snapshot and the depth all the while.
/// This is the publish-before-reply ordering inside `Shard::run`; the
/// tree is small enough to exhaust at the deep budget.
pub fn ack_after_durable() {
    let (shard, evidence) = stub_shard(4);
    let (socket, client) = mpsc::channel();
    let writer = handler(&shard, "a", &socket);
    let s2 = Arc::clone(&shard);
    let observer = minisim::thread::spawn(move || (s2.snapshot().ops_done, s2.depth()));
    assert_eq!(client.recv().expect("handler replies"), Response::Ok);
    assert!(
        evidence.durable.load(Ordering::SeqCst),
        "reply arrived before the store op completed"
    );
    let published = shard.snapshot().ops_done;
    assert!(
        published >= 1,
        "ack arrived before its snapshot publish (ops_done={published})"
    );
    writer.join().expect("handler exits cleanly");
    let (ops_done, depth) = observer.join().expect("observer exits");
    assert!(ops_done <= 1 && depth <= 1);
}

/// I2 `busy_not_hang` — two handlers race for a stalled shard that admits
/// one op: one parks for its turn, the other is refused `Busy(1)` at
/// once. The client hears the refusal *while the shard is still stalled*
/// — if admission blocked instead, both handlers and the client would
/// wait on each other, a deadlock in every interleaving. Releasing the
/// stall completes the admitted op.
pub fn busy_not_hang() {
    let (shard, _evidence) = stub_shard(1);
    shard.set_stalled(true);
    let (socket, client) = mpsc::channel();
    let handlers = [handler(&shard, "a", &socket), handler(&shard, "b", &socket)];
    assert_eq!(
        client.recv().expect("the refused handler replies"),
        Response::Busy { shard: 0, depth: 1 },
        "a full shard must refuse with the observed depth, not block"
    );
    shard.set_stalled(false);
    assert_eq!(client.recv().expect("admitted op completes"), Response::Ok);
    for handler in handlers {
        handler.join().expect("handler exits cleanly");
    }
    assert_eq!(shard.depth(), 0);
}

/// I3 `shutdown_joins_all` — every handler parked for a turn when the
/// shard shuts down returns (`terminated`), and none of them executes:
/// two handlers race a shutdown against a stalled shard, so whichever
/// side of the flag each one lands on, it must come back without having
/// touched the engine. A handler left parked is a deadlock at the join.
pub fn shutdown_joins_all() {
    let (shard, evidence) = stub_shard(4);
    shard.set_stalled(true);
    let handlers: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|name| {
            let shard = Arc::clone(&shard);
            minisim::thread::spawn(move || shard.run(&put(name)))
        })
        .collect();
    shard.shutdown();
    for handler in handlers {
        assert_eq!(
            handler.join().expect("parked handler returns"),
            terminated()
        );
    }
    assert!(
        !evidence.durable.load(Ordering::SeqCst),
        "a handler parked at shutdown executed its op"
    );
    assert_eq!(shard.snapshot().ops_done, 0);
}

/// I4 `stat_never_queued` — STAT-style observers (snapshot read + depth
/// probe), one on its own thread and one on the root, complete even
/// while the shard is stalled with a handler parked for its turn. If
/// observability took a turn it would deadlock here: the root joins the
/// observer before unstalling.
pub fn stat_never_queued() {
    let (shard, _evidence) = stub_shard(2);
    shard.set_stalled(true);
    let s2 = Arc::clone(&shard);
    let parked = minisim::thread::spawn(move || s2.run(&put("k")));
    let s3 = Arc::clone(&shard);
    let stat = minisim::thread::spawn(move || (s3.snapshot().ops_done, s3.depth()));
    let seen = [
        (shard.snapshot().ops_done, shard.depth()),
        // Joining *before* unstalling is the invariant: STAT must not
        // need the shard to make progress.
        stat.join().expect("stat thread completes"),
    ];
    for (ops_done, depth) in seen {
        assert_eq!(ops_done, 0, "nothing executed while stalled");
        assert!(depth <= 1, "depth probe sees at most the parked op");
    }
    shard.set_stalled(false);
    assert_eq!(parked.join().expect("parked op completes"), Response::Ok);
}

/// I5 `cache_race_adopt` — two threads racing a [`ScheduleCache`] miss
/// for the same layout end up with pointer-identical programs (the
/// insert-race loser adopts the winner's entry), and a later lookup
/// returns that same program.
pub fn cache_race_adopt() {
    let layout = dcode_core::dcode::dcode(5).expect("5 is prime");
    let cache = Arc::new(ScheduleCache::new());
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let (c2, l2) = (Arc::clone(&cache), layout.clone());
            minisim::thread::spawn(move || c2.encode_program(&l2))
        })
        .collect();
    let a = cache.encode_program(&layout);
    for racer in racers {
        let b = racer.join().expect("racer completes");
        assert!(
            Arc::ptr_eq(&a, &b),
            "concurrent misses must converge on one program"
        );
    }
    let c = cache.encode_program(&layout);
    assert!(
        Arc::ptr_eq(&a, &c),
        "steady state returns the adopted program"
    );
}

/// I6 `submit_vs_drop` — a submission racing pool teardown either
/// completes (the accepted job runs before `Drop` returns) or is
/// rejected outright; no interleaving hangs and no accepted job is
/// stranded. Teardown and submission contend on a shared slot, which is
/// how safe Rust serializes `&pool` use against `Drop` in production.
pub fn submit_vs_drop() {
    let slot = Arc::new(Mutex::new(Some(WorkerPool::with_workers(1))));
    let ran = Arc::new(AtomicUsize::new(0));
    let (slot2, ran2) = (Arc::clone(&slot), Arc::clone(&ran));
    let submitter = minisim::thread::spawn(move || {
        let guard = slot2.lock().expect("slot lock");
        match guard.as_ref() {
            Some(pool) => pool
                .submit(move || {
                    ran2.fetch_add(1, Ordering::SeqCst);
                })
                .is_ok(),
            None => false,
        }
    });
    // Teardown: take the pool out of the slot and drop it (joins the
    // worker, draining anything accepted).
    let pool = slot.lock().expect("slot lock").take();
    drop(pool);
    let accepted = submitter.join().expect("submitter completes");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        usize::from(accepted),
        "accepted implies ran; rejected implies not ran"
    );
}

/// I7 `one_turn_in_order` — at most one op is inside a shard's engine at
/// any instant (the stub asserts it, with a scheduling point inside), and
/// turns are granted in ticket order, through a stall and an engine
/// panic. Handler 1 puts `first` at a stalled shard; the root probes the
/// depth once, then starts handler 2, which runs `second`, `bomb` (the
/// engine panics mid-op) and `after`; then the stall is released.
///
/// * If the probe saw `first` admitted, it holds the lowest ticket: it
///   must execute before anything of handler 2's — a gate that lets
///   woken waiters race for the engine runs `second` first in some
///   interleaving.
/// * The bomb's turn still ends: its requester and everything behind it
///   are answered `terminated` instead of hanging, and an op is acked
///   exactly when it executed.
pub fn one_turn_in_order() {
    let (shard, evidence) = stub_shard(4);
    shard.set_stalled(true);
    let s1 = Arc::clone(&shard);
    let h1 = minisim::thread::spawn(move || s1.run(&put("first")));
    let first_admitted = shard.depth() == 1;
    let s2 = Arc::clone(&shard);
    let h2 = minisim::thread::spawn(move || {
        [
            s2.run(&put("second")),
            s2.run(&put("bomb")),
            s2.run(&put("after")),
        ]
    });
    shard.set_stalled(false);
    let first = h1.join().expect("handler 1 returns");
    let [second, bomb, after] = h2.join().expect("handler 2 returns");

    let log = evidence.log.lock().expect("log lock").clone();
    let ran = |name: &str| log.iter().any(|n| n == name);
    assert_eq!(second, Response::Ok);
    assert_eq!(
        bomb,
        terminated(),
        "the bomb's requester gets the typed answer"
    );
    assert_eq!(after, terminated(), "the engine is gone after the bomb");
    assert!(ran("second") && ran("bomb") && !ran("after"), "{log:?}");
    if first_admitted {
        assert_eq!(log[0], "first", "ticket 0 must run first: {log:?}");
    }
    // Acked exactly when executed — before the bomb, or never.
    let expected = if ran("first") {
        Response::Ok
    } else {
        terminated()
    };
    assert_eq!(first, expected, "{log:?}");
    assert_eq!(shard.depth(), 0, "every turn ended");
}
