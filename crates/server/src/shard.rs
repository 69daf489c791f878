//! One shard: an [`ObjectStore`] over a [`ResilientArray`] behind a small
//! FIFO gate, run by whichever connection handler holds the turn.
//!
//! There is no shard thread. A handler that has decoded a request calls
//! [`Shard::run`], which runs the op **to completion on the caller's
//! thread**: admission, a ticket, the wait for that ticket's turn, the
//! storage work, the counters, the snapshot publish — and only then the
//! response the handler writes. Ack-after-durable and
//! publish-before-reply are therefore program order on one thread, and a
//! request costs no thread hand-off beyond the two the socket imposes.
//!
//! The gate is a ticket pair (`next`, `serving`), the `stalled` and
//! `shutdown` flags and the shard's engine slot under one mutex and one
//! condvar. The turn-holder **takes the engine out of the slot** and
//! releases the lock before it touches storage, so the lock only ever
//! guards bookkeeping — never I/O, never XOR — and array state stays
//! single-threaded without a lock on the I/O path. No schedule cache is
//! shared across shards either (each array embeds its own, so its hit
//! rate measures *that shard's* steady state). Concurrency comes from
//! sharding: requests are routed by [`shard_of`] (FNV-1a of the object
//! name, modulo shard count), so independent objects land on independent
//! arrays and proceed in parallel.
//!
//! Turns are granted in **arrival order**. A plain mutex would let a
//! handler whose client has already sent its next request re-take the
//! lock before the woken waiter runs, so a get could wait behind two puts
//! instead of one; tickets make the wait at most the ops admitted before
//! it.
//!
//! Admission is **bounded**: with `queue_cap` ops admitted and not yet
//! finished, `run` refuses immediately with the current depth as a typed
//! `Busy` response — backpressure the client can see and pace against,
//! instead of unbounded waiting that converts overload into latency and
//! then into memory exhaustion. A test hook ([`Shard::set_stalled`])
//! withholds turns without touching the store, making the refusal
//! deterministic to test.
//!
//! An engine that panics is dropped by the unwind, so its slot stays
//! empty: the turn still advances (a drop guard), the requester and every
//! later request to that shard are answered `shard N terminated`, and the
//! other shards never notice. Large multi-stripe writes inside each PUT
//! batch through `ResilientArray::write` (the touched stripes chunked
//! over the worker pool, each replaying the cached encode program
//! tile-major), so a busy server keeps the worker pool warm without the
//! shard layer knowing anything about stripes.

use crate::metrics::{json_escape, ServerMetrics};
use crate::protocol::Response;
use dcode_array::{
    journal_blocks_per_disk, ObjectStore, ReplaySummary, ResilientArray, ResilientStats,
    RetryPolicy, RotationScheme, StoreError,
};
use dcode_codec::CacheStats;
use dcode_core::layout::CodeLayout;
use dcode_core::Fnv1a;
use dcode_faults::{DiskBackend, DiskError};
use minisim::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;
use std::time::Instant;

/// The backend type shards store behind: any [`DiskBackend`] that can move
/// between the handler threads that take turns on it (file-backed,
/// in-memory, fault-injected…).
pub type ShardBackend = Box<dyn DiskBackend + Send>;

/// The store a shard's engine owns.
pub type ShardStore = ObjectStore<ResilientArray<ShardBackend>>;

/// Route an object name to a shard: FNV-1a over the name bytes, modulo
/// the shard count. Stable across runs and processes (the hasher is
/// pinned, unlike `DefaultHasher`), so a restarted server finds every
/// object where the previous process put it.
pub fn shard_of(name: &str, shards: usize) -> usize {
    assert!(shards > 0);
    let mut h = Fnv1a::new();
    h.bytes(name.as_bytes());
    (h.finish() % shards as u64) as usize
}

/// Geometry and policy for every shard's array.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// The RAID-6 code each shard runs.
    pub layout: CodeLayout,
    /// Bytes per element block.
    pub block_size: usize,
    /// Stripes per shard array.
    pub stripes: usize,
    /// Logical→physical column rotation.
    pub rotation: RotationScheme,
    /// Elements reserved for each store's index.
    pub meta_elements: usize,
    /// Transient-error retry policy.
    pub policy: RetryPolicy,
    /// Hard errors on one slot before it is auto-failed.
    pub fail_threshold: usize,
    /// Ops one shard admits at a time (the one running plus those parked
    /// for a turn); the next is refused `Busy`.
    pub queue_cap: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            layout: dcode_core::dcode::dcode(7).expect("7 is prime"),
            block_size: 4096,
            stripes: 64,
            rotation: RotationScheme::PerStripe,
            meta_elements: 8,
            policy: RetryPolicy::default(),
            fail_threshold: 8,
            queue_cap: 128,
        }
    }
}

/// Blocks each backend disk must provide for this geometry: the data
/// region plus the parity-intent journal tail. Size every shard backend
/// with this, not `stripes * rows` — the journal lives past the stripes.
pub fn shard_blocks(cfg: &ShardConfig) -> usize {
    cfg.stripes * cfg.layout.rows() + journal_blocks_per_disk(&cfg.layout, cfg.block_size)
}

/// Build a shard's store over `backend`: `fresh` formats a new journaled
/// array and store; otherwise the array is attached to the existing
/// medium — which **replays any committed parity-intent records first**
/// (closing the write hole from a previous crash), then seeds CRCs from
/// disk content — and the store index is read back from it. Either way
/// the shard only starts accepting ops over a consistent array.
pub fn build_store(
    cfg: &ShardConfig,
    backend: ShardBackend,
    fresh: bool,
) -> Result<ShardStore, String> {
    if fresh {
        let array = ResilientArray::format_journaled(
            cfg.layout.clone(),
            cfg.block_size,
            cfg.stripes,
            cfg.rotation,
            backend,
            cfg.policy,
            cfg.fail_threshold,
        );
        ObjectStore::format(array, cfg.meta_elements).map_err(|e| format!("format store: {e}"))
    } else {
        let array = ResilientArray::attach_journaled(
            cfg.layout.clone(),
            cfg.block_size,
            cfg.stripes,
            cfg.rotation,
            backend,
            cfg.policy,
            cfg.fail_threshold,
        )
        .map_err(|e: DiskError| format!("attach array: {e}"))?;
        ObjectStore::open(array, cfg.meta_elements).map_err(|e| format!("open store: {e}"))
    }
}

/// One single-shard operation, borrowing its fields from the decoded
/// request: it never leaves the handler thread that runs it. (`Stat` is
/// not here — it is served from published snapshots and never takes a
/// turn, so an overloaded shard cannot block observability.)
#[allow(missing_docs)]
pub enum ShardOp<'a> {
    Put { name: &'a str, value: &'a [u8] },
    Get { name: &'a str },
    Delete { name: &'a str },
    Scrub,
}

/// A point-in-time copy of one shard's observable state, published by the
/// turn-holder after every operation and read by `STAT` without a turn.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Objects resident in the store.
    pub objects: usize,
    /// Operations the shard has completed.
    pub ops_done: u64,
    /// Resilient-layer counters (retries, degraded reads, repairs…).
    pub stats: ResilientStats,
    /// Schedule-cache hit/miss counters.
    pub cache: CacheStats,
    /// Slots currently failed.
    pub failed_slots: Vec<usize>,
    /// Hot spares not yet attached.
    pub spares_remaining: usize,
    /// What mount-time journal replay did (None before the first attach).
    pub last_replay: Option<ReplaySummary>,
}

impl Default for ShardSnapshot {
    fn default() -> Self {
        ShardSnapshot {
            objects: 0,
            ops_done: 0,
            stats: ResilientStats::default(),
            cache: CacheStats { hits: 0, misses: 0 },
            failed_slots: Vec::new(),
            spares_remaining: 0,
            last_replay: None,
        }
    }
}

impl ShardSnapshot {
    /// This shard's entry in the stat document; `queue_depth` is sampled
    /// live at render time.
    pub fn to_json(&self, queue_depth: usize) -> String {
        let failed: Vec<String> = self.failed_slots.iter().map(usize::to_string).collect();
        let (replay_outcome, replay_replayed) = match self.last_replay {
            Some(summary) => (summary.outcome.name(), summary.replayed),
            None => ("none", 0),
        };
        format!(
            "{{\"queue_depth\":{queue_depth},\"objects\":{},\"ops_done\":{},\
             \"schedule_hits\":{},\"schedule_misses\":{},\
             \"element_reads\":{},\"element_writes\":{},\"retries\":{},\
             \"degraded_reads\":{},\"checksum_catches\":{},\"read_repairs\":{},\
             \"auto_fails\":{},\"rebuilds_completed\":{},\
             \"rebuilt_blocks\":{},\"rebuild_read_blocks\":{},\
             \"rebuild_stripes\":{},\"joint_rebuild_stripes\":{},\
             \"delta_segments\":{},\"reconstruct_segments\":{},\
             \"write_fetch_blocks\":{},\
             \"journal_records\":{},\"journal_retires\":{},\
             \"journal_replays\":{},\"journal_last_replay\":\"{}\",\
             \"journal_last_replayed\":{},\
             \"failed_slots\":[{}],\"spares_remaining\":{}}}",
            self.objects,
            self.ops_done,
            self.cache.hits,
            self.cache.misses,
            self.stats.element_reads,
            self.stats.element_writes,
            self.stats.retries,
            self.stats.degraded_reads,
            self.stats.checksum_catches,
            self.stats.read_repairs,
            self.stats.auto_fails,
            self.stats.rebuilds_completed,
            self.stats.rebuilt_blocks,
            self.stats.rebuild_read_blocks,
            self.stats.rebuild_stripes,
            self.stats.joint_rebuild_stripes,
            self.stats.delta_segments,
            self.stats.reconstruct_segments,
            self.stats.write_fetch_blocks,
            self.stats.journal_records,
            self.stats.journal_retires,
            self.stats.journal_replays,
            replay_outcome,
            replay_replayed,
            failed.join(","),
            self.spares_remaining,
        )
    }
}

/// The storage half of a shard, separated from the gate so the *real*
/// concurrency skeleton — admission, FIFO turns, metrics,
/// publish-before-reply, shutdown, the empty slot a panic leaves — is
/// generic and model-checkable by `dcode-race` with a stub engine, while
/// production uses [`StoreEngine`] over a `ResilientArray`-backed store.
pub trait ShardEngine: Send + 'static {
    /// Run one operation to completion against the shard's storage.
    fn execute(&mut self, op: &ShardOp<'_>) -> Response;
    /// A fresh observable-state snapshot after `ops_done` completed ops.
    fn snapshot(&self, ops_done: u64) -> ShardSnapshot;
}

/// The production engine: a [`ShardStore`] plus the shard id used in
/// scrub reports.
pub struct StoreEngine {
    id: usize,
    store: ShardStore,
}

impl StoreEngine {
    /// Wrap a store as shard `id`'s engine.
    pub fn new(id: usize, store: ShardStore) -> Self {
        StoreEngine { id, store }
    }
}

fn store_error_response(e: &StoreError) -> Response {
    match e {
        StoreError::NotFound(_) => Response::NotFound,
        other => Response::Err(other.to_string()),
    }
}

impl ShardEngine for StoreEngine {
    fn execute(&mut self, op: &ShardOp<'_>) -> Response {
        match *op {
            ShardOp::Put { name, value } => match self.store.upsert(name, value) {
                Ok(()) => Response::Ok,
                Err(e) => store_error_response(&e),
            },
            ShardOp::Get { name } => match self.store.get(name) {
                Ok(bytes) => Response::Value(bytes),
                Err(StoreError::NotFound(_)) => Response::NotFound,
                Err(e) => Response::Err(e.to_string()),
            },
            ShardOp::Delete { name } => match self.store.delete(name) {
                Ok(()) => Response::Ok,
                Err(StoreError::NotFound(_)) => Response::NotFound,
                Err(e) => Response::Err(e.to_string()),
            },
            ShardOp::Scrub => match self.store.array_mut().scrub_pass() {
                Ok(summary) => Response::Report(format!(
                    "{{\"shard\":{},\"stripes\":{},\"checksum_catches\":{},\
                     \"degraded_reads\":{},\"read_repairs\":{},\
                     \"parity_checked\":{},\"parity_mismatches\":{},\
                     \"parity_repairs\":{},\"located_cells\":{},\
                     \"ambiguous_stripes\":{}}}",
                    self.id,
                    summary.stripes,
                    summary.checksum_catches,
                    summary.degraded_reads,
                    summary.read_repairs,
                    summary.parity_checked,
                    summary.parity_mismatches,
                    summary.parity_repairs,
                    summary.located_cells,
                    summary.ambiguous_stripes,
                )),
                Err(e) => Response::Err(format!(
                    "shard {} scrub: {}",
                    self.id,
                    json_escape(&e.to_string())
                )),
            },
        }
    }

    fn snapshot(&self, ops_done: u64) -> ShardSnapshot {
        let array = self.store.array();
        ShardSnapshot {
            objects: self.store.len(),
            ops_done,
            stats: array.stats().clone(),
            cache: array.schedule_stats(),
            failed_slots: array.failed_slots(),
            spares_remaining: array.spares_remaining(),
            last_replay: array.last_replay(),
        }
    }
}

/// Update op counters from the (request, response) pair. Centralized so
/// the stub engines used by the model checker account identically to
/// production.
fn record_op_metrics(metrics: &ServerMetrics, op: &ShardOp<'_>, response: &Response) {
    use std::sync::atomic::Ordering::Relaxed;
    match (op, response) {
        (ShardOp::Put { .. }, Response::Ok) => metrics.ops.puts.fetch_add(1, Relaxed),
        (ShardOp::Put { .. }, _) => metrics.ops.errors.fetch_add(1, Relaxed),
        (ShardOp::Get { .. }, Response::Value(_)) => metrics.ops.gets.fetch_add(1, Relaxed),
        (ShardOp::Get { .. }, Response::NotFound) => metrics.ops.not_found.fetch_add(1, Relaxed),
        (ShardOp::Get { .. }, _) => metrics.ops.errors.fetch_add(1, Relaxed),
        (ShardOp::Delete { .. }, Response::Ok) => metrics.ops.deletes.fetch_add(1, Relaxed),
        (ShardOp::Delete { .. }, Response::NotFound) => metrics.ops.not_found.fetch_add(1, Relaxed),
        (ShardOp::Delete { .. }, _) => metrics.ops.errors.fetch_add(1, Relaxed),
        (ShardOp::Scrub, Response::Report(_)) => 0,
        (ShardOp::Scrub, _) => metrics.ops.errors.fetch_add(1, Relaxed),
    };
}

/// What the gate's mutex guards: bookkeeping only. The engine is *in*
/// the slot between turns and *out* of it (owned by the turn-holder's
/// stack) while an op runs, so this lock is never held across storage
/// code.
struct Gate<E> {
    /// The next ticket to hand out.
    next: u64,
    /// The ticket whose turn it is; `next - serving` ops are admitted and
    /// not yet finished.
    serving: u64,
    stalled: bool,
    shutdown: bool,
    /// Empty while a turn is running — and for good once an engine
    /// panicked.
    engine: Option<E>,
    ops_done: u64,
}

impl<E> Gate<E> {
    #[allow(clippy::cast_possible_truncation)]
    fn depth(&self) -> usize {
        (self.next - self.serving) as usize
    }
}

/// One shard: the FIFO gate in front of its engine, its published
/// snapshot, and the metrics it accounts into.
///
/// Built on the `minisim` facade so `dcode-race` model-checks this exact
/// code. The locks recover from poisoning (`PoisonError::into_inner`):
/// every update under them leaves the state valid at every step, and
/// depth sampling — part of the STAT observability path — must survive
/// whatever happened on another thread.
pub struct Shard<E: ShardEngine = StoreEngine> {
    id: usize,
    queue_cap: usize,
    gate: Mutex<Gate<E>>,
    turn: Condvar,
    snapshot: Mutex<ShardSnapshot>,
    metrics: Arc<ServerMetrics>,
}

impl<E: ShardEngine> Shard<E> {
    /// Shard `id` over `engine`, admitting at most `queue_cap` ops at a
    /// time. Publishes an initial snapshot, so STAT never observes a
    /// default one from a live shard.
    ///
    /// # Panics
    /// Panics if `queue_cap` is zero (a shard that can never admit an op).
    pub fn new(id: usize, engine: E, queue_cap: usize, metrics: Arc<ServerMetrics>) -> Self {
        assert!(queue_cap > 0);
        Shard {
            id,
            queue_cap,
            snapshot: Mutex::named("server.shard.snapshot", engine.snapshot(0)),
            gate: Mutex::named(
                "server.shard.gate",
                Gate {
                    next: 0,
                    serving: 0,
                    stalled: false,
                    shutdown: false,
                    engine: Some(engine),
                    ops_done: 0,
                },
            ),
            turn: Condvar::named("server.shard.turn"),
            metrics,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Gate<E>> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `op` to completion on the calling thread and return the
    /// response to write — or refuse it: `Busy(depth)` at once when
    /// `queue_cap` ops are already admitted (this never blocks on a full
    /// shard), `shard N terminated` when the shard is shutting down or
    /// its engine is gone.
    ///
    /// An admitted op takes a ticket and parks until that ticket is being
    /// served and the shard is not stalled, so turns are granted in
    /// arrival order. By the time this returns, the op is complete in the
    /// store, counted, timed (admission → completion, so the wait for the
    /// turn is part of the reported latency — that is what a client
    /// feels), and reflected in the published snapshot: anything
    /// observable after the ack already includes the acked operation.
    /// This ordering is the ack-after-durable invariant `dcode-race`
    /// model-checks.
    pub fn run(&self, op: &ShardOp<'_>) -> Response {
        let admitted = Instant::now();
        let mut gate = self.lock();
        if gate.shutdown {
            return self.terminated();
        }
        let depth = gate.depth();
        if depth >= self.queue_cap {
            drop(gate);
            self.metrics
                .ops
                .busy
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return self.busy(depth);
        }
        let ticket = gate.next;
        gate.next += 1;
        while !gate.shutdown && (gate.serving != ticket || gate.stalled) {
            gate = self.turn.wait(gate).unwrap_or_else(PoisonError::into_inner);
        }
        if gate.shutdown {
            // Parked at shutdown: leave without touching the engine.
            return self.terminated();
        }
        let mut turn = Turn {
            shard: self,
            engine: gate.engine.take(),
            ops_done: gate.ops_done,
        };
        drop(gate);
        // The unwind of a panicking engine is stopped here, so the
        // requester gets a typed answer and its connection — which may
        // carry traffic for healthy shards — lives on.
        let outcome = catch_unwind(AssertUnwindSafe(|| turn.execute(op, admitted)));
        drop(turn);
        outcome.unwrap_or_else(|_| self.terminated())
    }

    /// Ops admitted and not yet finished: the one running plus those
    /// parked for their turn.
    pub fn depth(&self) -> usize {
        self.lock().depth()
    }

    /// The last published snapshot.
    pub fn snapshot(&self) -> ShardSnapshot {
        // Recover poison: STAT is the "observability survives overload"
        // path, and a panic elsewhere must not take it down.
        self.snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Withhold (or release) turns without touching the store — the test
    /// hook that makes `Busy` deterministic: stall, admit `queue_cap`
    /// ops, observe the refusal, release. An op already running finishes.
    pub fn set_stalled(&self, stalled: bool) {
        self.lock().stalled = stalled;
        self.turn.notify_all();
    }

    /// Refuse new ops and wake every parked handler, which returns
    /// `terminated` without running. An op already running completes and
    /// is acked; nothing already acknowledged is affected.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.turn.notify_all();
    }

    fn terminated(&self) -> Response {
        Response::Err(format!("shard {} terminated", self.id))
    }

    #[allow(clippy::cast_possible_truncation)]
    fn busy(&self, depth: usize) -> Response {
        Response::Busy {
            shard: self.id.min(u16::MAX as usize) as u16,
            depth: depth.min(u32::MAX as usize) as u32,
        }
    }
}

/// One granted turn: the engine, out of the gate for as long as the op
/// runs. Dropping it ends the turn on every path — the engine goes back
/// (or, if it panicked and was dropped by the unwind, the slot stays
/// empty), `serving` advances, and the next ticket is woken.
struct Turn<'a, E: ShardEngine> {
    shard: &'a Shard<E>,
    engine: Option<E>,
    ops_done: u64,
}

impl<E: ShardEngine> Turn<'_, E> {
    fn execute(&mut self, op: &ShardOp<'_>, admitted: Instant) -> Response {
        let shard = self.shard;
        let Some(mut engine) = self.engine.take() else {
            return shard.terminated();
        };
        let response = engine.execute(op);
        record_op_metrics(&shard.metrics, op, &response);
        #[allow(clippy::cast_possible_truncation)]
        let us = admitted.elapsed().as_micros() as u64;
        match op {
            ShardOp::Put { .. } => shard.metrics.put_latency.record(us),
            ShardOp::Get { .. } => shard.metrics.get_latency.record(us),
            ShardOp::Delete { .. } => shard.metrics.delete_latency.record(us),
            ShardOp::Scrub => {}
        }
        self.ops_done += 1;
        // The snapshot is computed before the lock is taken, so the lock
        // is never held across storage code.
        let snap = engine.snapshot(self.ops_done);
        *shard
            .snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = snap;
        self.engine = Some(engine);
        response
    }
}

impl<E: ShardEngine> Drop for Turn<'_, E> {
    fn drop(&mut self) {
        let mut gate = self.shard.lock();
        gate.engine = self.engine.take();
        gate.ops_done = self.ops_done;
        gate.serving += 1;
        drop(gate);
        self.shard.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_faults::MemBackend;

    fn mem_store(cfg: &ShardConfig) -> ShardStore {
        let backend = MemBackend::new(cfg.layout.disks(), shard_blocks(cfg), cfg.block_size);
        build_store(cfg, Box::new(backend), true).unwrap()
    }

    fn small_cfg() -> ShardConfig {
        ShardConfig {
            block_size: 64,
            stripes: 8,
            meta_elements: 4,
            queue_cap: 4,
            ..ShardConfig::default()
        }
    }

    fn mem_shard(id: usize, queue_cap: usize) -> Shard {
        let engine = StoreEngine::new(id, mem_store(&small_cfg()));
        Shard::new(id, engine, queue_cap, Arc::new(ServerMetrics::new()))
    }

    /// Spin until `shard` has `depth` ops admitted (the admitting threads
    /// are parked on a stalled gate, so the depth can only grow).
    fn await_depth<E: ShardEngine>(shard: &Shard<E>, depth: usize) {
        while shard.depth() < depth {
            std::thread::yield_now();
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for name in ["a", "obj-17", "c3-k200", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "deterministic");
            }
        }
        // FNV-1a("a") = 0xaf63dc4c8601ec8c → known value pins the routing
        // so a future hasher change cannot silently strand stored objects.
        assert_eq!(shard_of("a", 4), (0xaf63_dc4c_8601_ec8c_u64 % 4) as usize);
    }

    #[test]
    fn shard_serves_put_get_delete_and_scrub() {
        let shard = mem_shard(0, 16);
        let put = ShardOp::Put {
            name: "k",
            value: &[1, 2, 3],
        };
        assert_eq!(shard.run(&put), Response::Ok);
        assert_eq!(
            shard.run(&ShardOp::Get { name: "k" }),
            Response::Value(vec![1, 2, 3])
        );
        let Response::Report(json) = shard.run(&ShardOp::Scrub) else {
            panic!("scrub must report");
        };
        assert!(json.contains("\"shard\":0"));
        assert_eq!(shard.run(&ShardOp::Delete { name: "k" }), Response::Ok);
        assert_eq!(shard.run(&ShardOp::Get { name: "k" }), Response::NotFound);
        assert_eq!(shard.depth(), 0);
    }

    #[test]
    fn stalled_shard_admits_to_cap_and_rejects_with_depth() {
        let cap = small_cfg().queue_cap;
        let shard = mem_shard(1, cap);
        shard.set_stalled(true);
        std::thread::scope(|scope| {
            let parked: Vec<_> = (0..cap)
                .map(|i| {
                    let shard = &shard;
                    scope.spawn(move || {
                        shard.run(&ShardOp::Put {
                            name: &format!("k{i}"),
                            value: &[i as u8],
                        })
                    })
                })
                .collect();
            await_depth(&shard, cap);
            // Full: refused at once, with the depth, without parking.
            assert_eq!(
                shard.run(&ShardOp::Get { name: "k0" }),
                Response::Busy {
                    shard: 1,
                    depth: cap as u32
                }
            );
            // Release the turns: every admitted put completes and is acked.
            shard.set_stalled(false);
            for handle in parked {
                assert_eq!(handle.join().unwrap(), Response::Ok);
            }
        });
        for i in 0..cap {
            assert_eq!(
                shard.run(&ShardOp::Get {
                    name: &format!("k{i}")
                }),
                Response::Value(vec![i as u8])
            );
        }
        let snap = shard.snapshot();
        assert_eq!(snap.objects, cap);
        assert_eq!(snap.ops_done, 2 * cap as u64);
    }

    /// Records the order ops reach the engine.
    struct OrderEngine(Arc<std::sync::Mutex<Vec<String>>>);

    impl ShardEngine for OrderEngine {
        fn execute(&mut self, op: &ShardOp<'_>) -> Response {
            if let ShardOp::Get { name } = op {
                self.0.lock().unwrap().push((*name).to_string());
            }
            Response::NotFound
        }

        fn snapshot(&self, ops_done: u64) -> ShardSnapshot {
            ShardSnapshot {
                ops_done,
                ..ShardSnapshot::default()
            }
        }
    }

    #[test]
    fn turns_are_granted_in_admission_order() {
        const N: usize = 12;
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let shard = Shard::new(
            0,
            OrderEngine(Arc::clone(&order)),
            N,
            Arc::new(ServerMetrics::new()),
        );
        shard.set_stalled(true);
        std::thread::scope(|scope| {
            for i in 0..N {
                let shard = &shard;
                scope.spawn(move || {
                    shard.run(&ShardOp::Get {
                        name: &format!("op{i:02}"),
                    })
                });
                // Admit one at a time, so admission order is 0…N-1.
                await_depth(shard, i + 1);
            }
            shard.set_stalled(false);
        });
        let expect: Vec<String> = (0..N).map(|i| format!("op{i:02}")).collect();
        assert_eq!(*order.lock().unwrap(), expect);
        assert_eq!(shard.depth(), 0);
    }

    #[test]
    fn parked_handlers_return_terminated_at_shutdown_without_running() {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let shard = Shard::new(
            7,
            OrderEngine(Arc::clone(&order)),
            4,
            Arc::new(ServerMetrics::new()),
        );
        shard.set_stalled(true);
        std::thread::scope(|scope| {
            let parked: Vec<_> = (0..3)
                .map(|_| {
                    let shard = &shard;
                    scope.spawn(move || shard.run(&ShardOp::Get { name: "never" }))
                })
                .collect();
            await_depth(&shard, 3);
            shard.shutdown();
            for handle in parked {
                assert_eq!(
                    handle.join().unwrap(),
                    Response::Err("shard 7 terminated".into())
                );
            }
        });
        assert!(order.lock().unwrap().is_empty(), "no parked op may run");
        assert_eq!(
            shard.run(&ShardOp::Get { name: "late" }),
            Response::Err("shard 7 terminated".into())
        );
        assert_eq!(shard.snapshot().ops_done, 0);
    }

    #[test]
    fn snapshot_tracks_store_state() {
        let shard = mem_shard(2, 16);
        let put = ShardOp::Put {
            name: "seen",
            value: &[9; 200],
        };
        assert_eq!(shard.run(&put), Response::Ok);
        let snap = shard.snapshot();
        assert_eq!(snap.objects, 1);
        assert_eq!(snap.ops_done, 1);
        assert!(snap.stats.element_writes > 0);
        let json = snap.to_json(shard.depth());
        assert!(json.contains("\"objects\":1"), "{json}");
        // Which write branch served the put is a published counter.
        let segments = snap.stats.delta_segments + snap.stats.reconstruct_segments;
        assert!(
            segments > 0 && json.contains("\"delta_segments\":"),
            "{json}"
        );
    }

    #[test]
    fn build_store_reattaches_existing_content() {
        // Fresh store on a mem backend, write, tear down, re-attach over
        // the same medium bytes.
        let cfg = small_cfg();
        let mut store = mem_store(&cfg);
        store.put("persist", &[5u8; 300]).unwrap();
        // Steal the medium back out of the array (journal region
        // included — reattach replays it).
        let disks = cfg.layout.disks();
        let blocks = shard_blocks(&cfg);
        let mut medium = MemBackend::new(disks, blocks, cfg.block_size);
        for d in 0..disks {
            let mut buf = vec![0u8; cfg.block_size];
            for b in 0..blocks {
                store
                    .array_mut()
                    .backend_mut()
                    .read_block(d, b, &mut buf)
                    .unwrap();
                medium.write_block(d, b, &buf).unwrap();
            }
        }
        let mut reopened = build_store(&cfg, Box::new(medium), false).unwrap();
        assert_eq!(reopened.get("persist").unwrap(), vec![5u8; 300]);
    }
}
