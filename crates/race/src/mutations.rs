//! Mutation self-tests: deliberately buggy re-implementations of each
//! invariant's protocol, built from the same facade primitives the real
//! code uses. Each one reintroduces a bug class the corresponding
//! invariant guards against; [`minisim::check`] must find a violating
//! interleaving, and its seed must [`minisim::replay`] to the same
//! violation. A mutation that stops being caught means the checker — or
//! the invariant — has gone blind, so `dcode race` fails on it.
//!
//! The mutants are local on purpose: the production crates stay correct,
//! and the checker is validated against the *bug shape* (reply before
//! publish, blocking admission, lost shutdown wakeup, stat taking a turn,
//! barging turn, adopt-overwrite, exit-before-drain) rather than against
//! a specific broken revision. The five shard mutants share one
//! [`MutantGate`] — the production gate's protocol with one planted
//! [`Bug`] — and each drives it the way its invariant's model drives the
//! real `Shard`.

use minisim::sync::{mpsc, Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The one deviation a [`MutantGate`] makes from the production protocol.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bug {
    /// The turn-holder acks before it publishes the snapshot.
    ReplyBeforePublish,
    /// Admission to a full shard waits for room instead of refusing.
    BlockingAdmission,
    /// Shutdown sets its flag without waking the parked handlers.
    ShutdownWithoutNotify,
    /// The stat probe takes a turn like any other op (the gate itself is
    /// sound; the model routes the probe through `run`).
    StatTakesATurn,
    /// No tickets: whichever woken waiter gets the lock first runs.
    BargingTurn,
}

#[derive(Debug, PartialEq, Eq)]
enum Reply {
    Done,
    Busy(u64),
    Terminated,
}

#[derive(Default)]
struct GateState {
    next: u64,
    /// Turns finished; `next - serving` ops are admitted and unfinished.
    serving: u64,
    running: bool,
    stalled: bool,
    shutdown: bool,
    executed: Vec<&'static str>,
}

/// The shard gate re-implemented on facade primitives, correct except
/// for `bug`.
struct MutantGate {
    bug: Bug,
    cap: u64,
    state: Mutex<GateState>,
    turn: Condvar,
    published: Mutex<u64>,
}

impl GateState {
    fn depth(&self) -> u64 {
        self.next - self.serving
    }
}

impl MutantGate {
    fn new(bug: Bug, cap: u64, stalled: bool) -> Arc<MutantGate> {
        Arc::new(MutantGate {
            bug,
            cap,
            state: Mutex::new(GateState {
                stalled,
                ..GateState::default()
            }),
            turn: Condvar::new(),
            published: Mutex::new(0),
        })
    }

    /// One op, start to reply: the reply goes down `socket` the way a
    /// handler writes it to its client.
    fn run(&self, name: &'static str, socket: &mpsc::Sender<Reply>) {
        let mut g = self.state.lock().expect("gate lock");
        if g.shutdown {
            let _ = socket.send(Reply::Terminated);
            return;
        }
        if self.bug == Bug::BlockingAdmission {
            // BUG: wait for room instead of refusing.
            while g.depth() >= self.cap {
                g = self.turn.wait(g).expect("gate lock");
            }
        } else if g.depth() >= self.cap {
            let _ = socket.send(Reply::Busy(g.depth()));
            return;
        }
        let ticket = g.next;
        g.next += 1;
        loop {
            if g.shutdown {
                let _ = socket.send(Reply::Terminated);
                return;
            }
            let my_turn = if self.bug == Bug::BargingTurn {
                // BUG: no arrival order — first to find the engine free.
                !g.running
            } else {
                g.serving == ticket
            };
            if my_turn && !g.stalled {
                break;
            }
            g = self.turn.wait(g).expect("gate lock");
        }
        g.running = true;
        drop(g);
        // "Execute", outside the lock like the real turn-holder.
        let executed = {
            let mut g = self.state.lock().expect("gate lock");
            g.executed.push(name);
            g.executed.len() as u64
        };
        if self.bug == Bug::ReplyBeforePublish {
            // BUG: the reply races ahead of the publish.
            let _ = socket.send(Reply::Done);
        }
        *self.published.lock().expect("publish lock") = executed;
        let mut g = self.state.lock().expect("gate lock");
        g.running = false;
        g.serving += 1;
        drop(g);
        self.turn.notify_all();
        if self.bug != Bug::ReplyBeforePublish {
            let _ = socket.send(Reply::Done);
        }
    }

    fn set_stalled(&self, stalled: bool) {
        self.state.lock().expect("gate lock").stalled = stalled;
        self.turn.notify_all();
    }

    fn shutdown(&self) {
        self.state.lock().expect("gate lock").shutdown = true;
        if self.bug != Bug::ShutdownWithoutNotify {
            self.turn.notify_all();
        }
        // BUG (ShutdownWithoutNotify): parked handlers never hear of it.
    }

    fn published(&self) -> u64 {
        *self.published.lock().expect("publish lock")
    }
}

fn handler(
    gate: &Arc<MutantGate>,
    name: &'static str,
    socket: &mpsc::Sender<Reply>,
) -> minisim::thread::JoinHandle<()> {
    let (gate, socket) = (Arc::clone(gate), socket.clone());
    minisim::thread::spawn(move || gate.run(name, &socket))
}

/// M1 (vs I1 `ack_after_durable`): the turn-holder acks *before*
/// publishing. A client that trusts the ack can then read a stale
/// snapshot.
pub fn reply_before_publish() {
    let gate = MutantGate::new(Bug::ReplyBeforePublish, 4, false);
    let (socket, client) = mpsc::channel();
    let writer = handler(&gate, "a", &socket);
    assert_eq!(client.recv().expect("handler replies"), Reply::Done);
    assert!(gate.published() >= 1, "acked op not yet published");
    writer.join().expect("handler exits");
}

/// M2 (vs I2 `busy_not_hang`): *blocking* admission to a full shard.
/// With the shard stalled, the second handler parks behind the first
/// instead of being refused, the client hears nothing, and nobody is
/// left to release the stall — a deadlock the checker must report.
pub fn blocking_push() {
    let gate = MutantGate::new(Bug::BlockingAdmission, 1, true);
    let (socket, client) = mpsc::channel();
    let handlers = [handler(&gate, "a", &socket), handler(&gate, "b", &socket)];
    assert_eq!(client.recv().expect("refusal"), Reply::Busy(1));
    gate.set_stalled(false);
    assert_eq!(client.recv().expect("admitted op"), Reply::Done);
    for handler in handlers {
        handler.join().expect("handler exits");
    }
}

/// M3 (vs I3 `shutdown_joins_all`): shutdown sets the flag but never
/// notifies — a handler parked for its turn misses the wakeup and the
/// join blocks forever (the classic lost wakeup).
pub fn drop_without_notify() {
    let gate = MutantGate::new(Bug::ShutdownWithoutNotify, 4, true);
    let (socket, client) = mpsc::channel();
    let handlers = [handler(&gate, "a", &socket), handler(&gate, "b", &socket)];
    gate.shutdown();
    for handler in handlers {
        handler.join().expect("parked handler observed shutdown");
        assert_eq!(client.recv().expect("reply"), Reply::Terminated);
    }
}

/// M4 (vs I4 `stat_never_queued`): STAT is served by taking a turn
/// behind the parked op, so observability deadlocks exactly when the
/// shard is wedged.
pub fn stat_through_queue() {
    let gate = MutantGate::new(Bug::StatTakesATurn, 2, true);
    let (socket, _client) = mpsc::channel();
    let parked = handler(&gate, "k", &socket);
    // BUG: the stat probe is an op like any other.
    let stat = handler(&gate, "stat", &socket);
    // The invariant's shape: STAT must complete while the shard is
    // stalled — so join it before unstalling.
    stat.join().expect("stat completes while stalled");
    gate.set_stalled(false);
    parked.join().expect("parked op completes");
}

/// M7 (vs I7 `one_turn_in_order`): the plain-mutex gate — woken waiters
/// race for the engine with no arrival order, so an op admitted later
/// can run first (the variant whose p99s measured worse than FIFO).
pub fn barging_turn() {
    let gate = MutantGate::new(Bug::BargingTurn, 4, true);
    let (socket, _client) = mpsc::channel();
    let h1 = handler(&gate, "first", &socket);
    let first_admitted = gate.state.lock().expect("gate lock").depth() == 1;
    let h2 = handler(&gate, "second", &socket);
    gate.set_stalled(false);
    h1.join().expect("handler 1 returns");
    h2.join().expect("handler 2 returns");
    let log = gate.state.lock().expect("gate lock").executed.clone();
    if first_admitted {
        assert_eq!(log[0], "first", "ticket 0 must run first: {log:?}");
    }
}

/// M5 (vs I5 `cache_race_adopt`): the insert-race loser *overwrites* the
/// winner's entry instead of adopting it, so two concurrent lookups can
/// return different (non-pointer-equal) programs.
pub fn adopt_overwrite() {
    fn get(slot: &Mutex<Option<Arc<u64>>>, id: u64) -> Arc<u64> {
        {
            let g = slot.lock().expect("cache lock");
            if let Some(p) = g.as_ref() {
                return Arc::clone(p);
            }
        }
        let mine = Arc::new(id); // "compile" outside the lock
        let mut g = slot.lock().expect("cache lock");
        // BUG: unconditional overwrite; the correct protocol adopts an
        // entry inserted while the lock was released.
        *g = Some(Arc::clone(&mine));
        mine
    }
    let slot = Arc::new(Mutex::new(None::<Arc<u64>>));
    let s2 = Arc::clone(&slot);
    let racer = minisim::thread::spawn(move || get(&s2, 1));
    let a = get(&slot, 2);
    let b = racer.join().expect("racer completes");
    assert!(
        Arc::ptr_eq(&a, &b),
        "concurrent misses must converge on one program"
    );
}

/// M6 (vs I6 `submit_vs_drop`): the worker honors shutdown *before*
/// draining the queue, stranding a job that submit() had accepted.
pub fn exit_before_drain() {
    struct Q {
        jobs: VecDeque<Box<dyn FnOnce() + Send>>,
        shutdown: bool,
    }
    let state = Arc::new((
        Mutex::new(Q {
            jobs: VecDeque::new(),
            shutdown: false,
        }),
        Condvar::new(),
    ));
    let s2 = Arc::clone(&state);
    let worker = minisim::thread::spawn(move || {
        let (lock, cv) = (&s2.0, &s2.1);
        let mut g = lock.lock().expect("queue lock");
        loop {
            // BUG: shutdown checked before the queue is drained.
            if g.shutdown {
                return;
            }
            if let Some(jb) = g.jobs.pop_front() {
                drop(g);
                jb();
                g = lock.lock().expect("queue lock");
                continue;
            }
            g = cv.wait(g).expect("queue lock");
        }
    });
    let ran = Arc::new(AtomicUsize::new(0));
    let accepted = {
        let mut g = state.0.lock().expect("queue lock");
        if g.shutdown {
            false
        } else {
            let ran = Arc::clone(&ran);
            g.jobs.push_back(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
            true
        }
    };
    state.1.notify_all();
    {
        let mut g = state.0.lock().expect("queue lock");
        g.shutdown = true;
    }
    state.1.notify_all();
    worker.join().expect("worker exits");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        usize::from(accepted),
        "accepted job was stranded by shutdown"
    );
}
