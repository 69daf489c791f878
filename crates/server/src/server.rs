//! The TCP front end: accept loop, connection handlers on a
//! [`minipool::WorkerPool`], and request routing to the shards.
//!
//! Threading model:
//!
//! * one **accept thread** takes connections off the listener and hands
//!   each to the pool as a detached job ([`minipool::WorkerPool::submit`]);
//!   the pool grows on accept to the number of open connections, never
//!   past `max_conns` and never shrinking, so `max_conns` *is* the
//!   concurrent-connection cap — excess connections are accepted but wait
//!   in the pool's queue until a handler worker frees up — and a server
//!   that only ever sees two clients parks two handler threads, not
//!   `max_conns`;
//! * **connection handlers run each request to completion**: a handler
//!   decodes a frame, routes it by [`shard_of`], and calls
//!   [`Shard::run`](crate::shard::Shard::run) on its own thread — it waits
//!   its FIFO turn at the shard's gate, does the storage work, publishes
//!   the snapshot, and writes the reply. There is no shard thread and no
//!   hand-off between threads inside the server (see [`crate::shard`]). A
//!   shard with `queue_cap` ops already admitted is reported to the client
//!   as `Busy` without blocking.
//!
//! `STAT` never takes a turn: it renders the shards' published snapshots
//! and the shared metrics, so observability survives overload — exactly
//! when it is needed. `queue_depth` in that document counts the ops
//! admitted to a shard and not yet finished (the one running plus those
//! parked for their turn).
//!
//! Shutdown: the flag flips, a dummy connect unblocks `accept`, every
//! registered connection is `Shutdown::Both`-ed (unblocking handler reads
//! mid-`recv` without read-timeout desync), the shard gates close — a
//! handler parked for a turn returns without touching the store, one
//! mid-op finishes it — and the handler pool is joined. Dropping the
//! [`Server`] does all of this too.

use crate::metrics::ServerMetrics;
use crate::protocol::{read_frame, write_frame, ProtoError, Request, Response};
use crate::shard::{
    build_store, shard_of, Shard, ShardBackend, ShardConfig, ShardOp, ShardStore, StoreEngine,
};
use minisim::sync::{Arc, Mutex};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

/// Everything needed to start a server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP port; 0 asks the OS for an ephemeral one (read it back with
    /// [`Server::port`]).
    pub port: u16,
    /// Number of shards (= backends that must be supplied).
    pub shards: usize,
    /// Concurrent-connection cap: the handler pool grows on accept to at
    /// most this many workers, and further connections queue.
    pub max_conns: usize,
    /// Per-shard array geometry and admission bound.
    pub shard: ShardConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            shards: 4,
            max_conns: 32,
            shard: ShardConfig::default(),
        }
    }
}

struct ServerInner {
    shutdown: AtomicBool,
    shards: Vec<Shard>,
    metrics: Arc<ServerMetrics>,
    /// One clone per live connection, so shutdown can unblock its read;
    /// the handler removes its entry when it exits.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl ServerInner {
    fn conns(&self) -> minisim::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        // Recover poison: a panicked handler must not be able to wedge
        // shutdown, and inserts and removes leave the map valid.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running server; dropping it shuts everything down and joins every
/// thread.
pub struct Server {
    port: u16,
    inner: Arc<ServerInner>,
    accept: Option<minisim::thread::JoinHandle<()>>,
    /// Dropped last: joining the pool requires the handlers to have been
    /// unblocked by the shutdown sequence.
    pool: Option<Arc<minipool::WorkerPool>>,
}

impl Server {
    /// Bind, build one store per backend (`fresh` formats, otherwise
    /// attaches to existing content) and spawn the accept loop.
    /// `backends.len()` must equal `config.shards`.
    pub fn start(
        config: &ServerConfig,
        backends: Vec<ShardBackend>,
        fresh: bool,
    ) -> Result<Server, String> {
        assert!(config.shards > 0 && config.max_conns > 0);
        assert_eq!(backends.len(), config.shards, "one backend per shard");
        let listener = TcpListener::bind(("127.0.0.1", config.port))
            .map_err(|e| format!("bind port {}: {e}", config.port))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .port();

        let metrics = Arc::new(ServerMetrics::new());
        let mut shards = Vec::with_capacity(config.shards);
        for (id, store) in build_stores(&config.shard, backends, fresh)
            .into_iter()
            .enumerate()
        {
            let store = store.map_err(|e| format!("shard {id}: {e}"))?;
            shards.push(Shard::new(
                id,
                StoreEngine::new(id, store),
                config.shard.queue_cap,
                Arc::clone(&metrics),
            ));
        }

        let inner = Arc::new(ServerInner {
            shutdown: AtomicBool::new(false),
            shards,
            metrics,
            conns: Mutex::named("server.conns", HashMap::new()),
        });

        let pool = Arc::new(minipool::WorkerPool::new());
        let accept = {
            let inner = Arc::clone(&inner);
            let pool = Arc::clone(&pool);
            let max_conns = config.max_conns;
            minisim::thread::Builder::new()
                .name("dcode-accept".into())
                .spawn(move || accept_loop(&listener, &inner, &pool, max_conns))
                .map_err(|e| format!("spawn accept thread: {e}"))?
        };

        Ok(Server {
            port,
            inner,
            accept: Some(accept),
            pool: Some(pool),
        })
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Connection-handler threads alive: one per connection open at once
    /// so far, at most `max_conns`; 0 once shutdown has joined them.
    pub fn handler_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.workers())
    }

    /// The stat document, identical to what a `STAT` request returns.
    pub fn stat_json(&self) -> String {
        stat_document(&self.inner)
    }

    /// Withhold (or release) one shard's turns — the deterministic
    /// backpressure hook for tests and demos: a stalled shard grants no
    /// turn, so `queue_cap` more requests are admitted and park, and the
    /// next one is rejected `Busy`.
    pub fn stall_shard(&self, shard: usize, stalled: bool) {
        self.inner.shards[shard].set_stalled(stalled);
    }

    /// Stop accepting, unblock and join every thread. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Unblock handler reads.
        for conn in self.inner.conns().values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Close the gates: handlers parked for a turn return.
        for shard in &self.inner.shards {
            shard.shutdown();
        }
        // Joining the pool (drop) reaps the handler workers; their jobs
        // exit on the closed sockets.
        self.pool = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`build_store`] for every backend, in order, the shards split over at
/// most one scoped thread per core. Formatting a shard writes its index
/// and attaching one rehashes every block it holds, so a many-shard
/// server starts in the time of its largest group; and the scratch
/// stripes those writes and reads allocate are freed on the builder
/// threads, not left in the caller's heap for the server's lifetime.
fn build_stores(
    cfg: &ShardConfig,
    mut backends: Vec<ShardBackend>,
    fresh: bool,
) -> Vec<Result<ShardStore, String>> {
    let per_thread = backends.len().div_ceil(minipool::host_parallelism());
    let mut groups = Vec::new();
    while !backends.is_empty() {
        let rest = backends.split_off(per_thread.min(backends.len()));
        groups.push(std::mem::replace(&mut backends, rest));
    }
    std::thread::scope(|scope| {
        let builds: Vec<_> = groups
            .into_iter()
            .map(|group| {
                scope.spawn(move || {
                    group
                        .into_iter()
                        .map(|backend| build_store(cfg, backend, fresh))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        builds
            .into_iter()
            .flat_map(|build| {
                build
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

fn accept_loop(
    listener: &TcpListener,
    inner: &Arc<ServerInner>,
    pool: &minipool::WorkerPool,
    max_conns: usize,
) {
    let mut next_conn = 0u64;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn = next_conn;
        next_conn += 1;
        let open = {
            let mut conns = inner.conns();
            if let Ok(clone) = stream.try_clone() {
                conns.insert(conn, clone);
            }
            conns.len()
        };
        // Every open connection, queued or served, has a worker up to the
        // cap; past it, the connection waits in the queue.
        pool.ensure_workers(open.min(max_conns));
        let inner = Arc::clone(inner);
        // A rejected submission means the pool is shutting down; dropping
        // the job closes the stream, which is the right refusal.
        let _ = pool.submit(move || {
            handle_connection(stream, &inner);
            inner.conns().remove(&conn);
        });
    }
}

fn handle_connection(stream: TcpStream, inner: &ServerInner) {
    let _ = stream.set_nodelay(true);
    // Reads go through the buffer (a small frame is one `read`); writes go
    // straight to the socket underneath it.
    let mut stream = BufReader::new(stream);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Clean close, torn frame, or shutdown-unblocked read: the
        // connection is done either way.
        let Ok(Some(body)) = read_frame(&mut stream) else {
            return;
        };
        let response = match Request::decode(&body) {
            Ok(request) => dispatch(&request, inner),
            Err(e) => {
                inner.metrics.ops.errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(protocol_error_message(&e))
            }
        };
        if write_frame(stream.get_mut(), &response.encode()).is_err() {
            return;
        }
    }
}

fn protocol_error_message(e: &ProtoError) -> String {
    format!("bad request: {e}")
}

/// Route one decoded request and run it to completion on this thread.
fn dispatch(request: &Request, inner: &ServerInner) -> Response {
    let keyed =
        |name: &str, op: ShardOp<'_>| inner.shards[shard_of(name, inner.shards.len())].run(&op);
    match request {
        Request::Put { name, value } => keyed(name, ShardOp::Put { name, value }),
        Request::Get { name } => keyed(name, ShardOp::Get { name }),
        Request::Delete { name } => keyed(name, ShardOp::Delete { name }),
        Request::Scrub => scrub_all(inner),
        Request::Stat => {
            inner.metrics.ops.stats.fetch_add(1, Ordering::Relaxed);
            Response::Report(stat_document(inner))
        }
    }
}

/// Scrub the shards one after another — at most one turn held at a time —
/// and merge the per-shard reports. A shard that refuses (`Busy`,
/// terminated) fails the whole scrub with its answer (a scrub against an
/// overloaded array is the wrong time anyway).
fn scrub_all(inner: &ServerInner) -> Response {
    let started = Instant::now();
    let mut reports = Vec::with_capacity(inner.shards.len());
    for shard in &inner.shards {
        match shard.run(&ShardOp::Scrub) {
            Response::Report(json) => reports.push(json),
            other => return other,
        }
    }
    inner.metrics.ops.scrubs.fetch_add(1, Ordering::Relaxed);
    #[allow(clippy::cast_possible_truncation)]
    let us = started.elapsed().as_micros() as u64;
    inner.metrics.scrub_latency.record(us);
    Response::Report(format!("{{\"shards\":[{}]}}", reports.join(",")))
}

/// Render the stat document: global counters + latency summaries + one
/// entry per shard, with live depths.
fn stat_document(inner: &ServerInner) -> String {
    let per_shard: Vec<String> = inner
        .shards
        .iter()
        .map(|shard| shard.snapshot().to_json(shard.depth()))
        .collect();
    format!(
        "{{\"shards\":{},{},\"per_shard\":[{}]}}",
        inner.shards.len(),
        inner.metrics.core_json(),
        per_shard.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::shard::shard_blocks;
    use dcode_faults::{FaultInjector, FaultPlan, MemBackend, SharedInjector};
    use std::io::Read;
    use std::time::Duration;

    fn start() -> Server {
        let config = ServerConfig {
            shards: 1,
            max_conns: 4,
            shard: ShardConfig {
                block_size: 64,
                stripes: 8,
                meta_elements: 4,
                ..ShardConfig::default()
            },
            ..ServerConfig::default()
        };
        let backend = MemBackend::new(
            config.shard.layout.disks(),
            shard_blocks(&config.shard),
            config.shard.block_size,
        );
        Server::start(&config, vec![Box::new(backend)], true).expect("server starts")
    }

    /// Poll until the registry holds `want` connections (a handler
    /// unregisters after it sees its client's close, not before).
    fn await_conns(server: &Server, want: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.inner.conns().len() != want {
            assert!(Instant::now() < deadline, "registry never reached {want}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn closed_connections_leave_the_registry_and_shutdown_unblocks_a_reader() {
        let mut server = start();
        for i in 0..200 {
            let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");
            if i % 50 == 0 {
                assert_eq!(client.put("k", &[i as u8]).expect("put io"), Response::Ok);
            }
        }
        await_conns(&server, 0);

        // A connection whose handler is blocked mid-read: registered, and
        // unblocked by shutdown (which would hang joining the pool
        // otherwise).
        let mut idle = TcpStream::connect(("127.0.0.1", server.port())).expect("connect");
        await_conns(&server, 1);
        server.shutdown();
        // The client's end sees the close (EOF, or a reset if it raced).
        assert!(matches!(idle.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        await_conns(&server, 0);
    }

    #[test]
    fn stores_come_back_in_backend_order_across_builder_threads() {
        // More shards than cores, so the groups span threads. Shards 1 and
        // 4 are blank and the others hold a formatted store: reattaching
        // reports each blank one at its own index.
        let cfg = ShardConfig {
            block_size: 64,
            stripes: 8,
            meta_elements: 4,
            ..ShardConfig::default()
        };
        let media: Vec<_> = (0..5)
            .map(|_| {
                let mem = MemBackend::new(cfg.layout.disks(), shard_blocks(&cfg), cfg.block_size);
                SharedInjector::new(FaultInjector::new(mem, FaultPlan::quiet(1)))
            })
            .collect();
        for (i, medium) in media.iter().enumerate() {
            if i != 1 && i != 4 {
                build_store(&cfg, Box::new(medium.clone()), true).expect("format");
            }
        }
        let backends = media
            .iter()
            .map(|m| Box::new(m.clone()) as ShardBackend)
            .collect();
        let failed: Vec<usize> = build_stores(&cfg, backends, false)
            .iter()
            .enumerate()
            .filter_map(|(i, store)| store.is_err().then_some(i))
            .collect();
        assert_eq!(failed, [1, 4]);
    }

    #[test]
    fn shutdown_joins_every_handler_including_queued_ones() {
        let mut server = start();
        // Six idle connections against a cap of four: four served, two
        // queued behind them.
        let idle: Vec<TcpStream> = (0..6)
            .map(|_| TcpStream::connect(("127.0.0.1", server.port())).expect("connect"))
            .collect();
        await_conns(&server, 6);
        assert_eq!(server.handler_workers(), 4, "the pool stops at max_conns");
        server.shutdown();
        // Every handler job, queued ones included, ran and let go of its
        // clone of the server state before shutdown returned.
        assert_eq!(Arc::strong_count(&server.inner), 1);
        assert!(server.inner.conns().is_empty());
        assert_eq!(server.handler_workers(), 0);
        drop(idle);
    }
}
