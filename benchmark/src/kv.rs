//! The two key-value workloads: an in-process `Server` over `MemBackend`
//! shards, driven by two closed-loop connections (one thread each).
//!
//! Closed loop is deliberate: a client sends its next request only after
//! the previous reply, so at most two ops are ever in flight and
//! cross-request batching cannot show as a time gain here (it shows in the
//! flush counts).
//!
//! Each segment ends with the failure cycle of `array.rs` on one store
//! shaped like a shard and holding every key's value.

use crate::array::{cycles_on_fresh_store, set_cycle_metrics, StatsDelta, StoreShape};
use crate::gen::{fill_value, mix, Ledger, OpKind, OpStream, Tally};
use crate::metrics::Report;
use crate::trace::{rollup, RootTotals, Span, Tracer};
use crate::wrap::{CountSnapshot, CountingBackend, Counts, TracedBackend, TracedIo};
use crate::{json, probe, stats, Args};
use dcode_array::{ObjectStore, ResilientArray};
use dcode_faults::MemBackend;
use dcode_server::{
    shard_blocks, shard_of, Client, Response, Server, ServerConfig, ShardBackend, ShardConfig,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Generator threads = connections; the sandbox has two cores.
const CONNS: usize = 2;
const SHARDS: usize = 2;
/// A `Busy` reply is retried this many times before the op counts as failed.
const BUSY_RETRIES: usize = 3;

pub struct KvConfig {
    stripes: usize,
    value_len: usize,
    keys_per_conn: usize,
    put_percent: usize,
}

impl KvConfig {
    /// 1 KiB values, 50% PUT: every put is delete → put → two whole-index
    /// rewrites, three journaled single-stripe read-modify-writes.
    pub fn small_mixed() -> Self {
        KvConfig {
            stripes: 64,
            value_len: 1024,
            keys_per_conn: 64,
            put_percent: 50,
        }
    }

    /// 256 KiB values (64 elements, 2–3 stripes), 30% PUT: multi-stripe
    /// writes take the fused batch encode, reads dominate.
    pub fn large_stream() -> Self {
        KvConfig {
            stripes: 256,
            value_len: 256 * 1024,
            keys_per_conn: 8,
            put_percent: 30,
        }
    }

    fn server(&self) -> ServerConfig {
        ServerConfig {
            shards: SHARDS,
            shard: ShardConfig {
                stripes: self.stripes,
                ..ShardConfig::default()
            },
            ..ServerConfig::default()
        }
    }
}

fn mem_backend(shard: &ShardConfig) -> MemBackend {
    MemBackend::new(shard.layout.disks(), shard_blocks(shard), shard.block_size)
}

/// One connection: its client, its own keys, and what it knows was acked.
struct Conn {
    id: usize,
    client: Client,
    names: Vec<String>,
    ledger: Ledger,
    stream: OpStream,
    tracer: Option<Tracer>,
}

struct Env {
    server: Server,
    conns: Vec<Conn>,
}

fn key_name(conn: usize, key: usize) -> String {
    format!("c{conn}-k{key}")
}

fn key_id(cfg: &KvConfig, conn: usize, key: usize) -> u64 {
    (conn * cfg.keys_per_conn + key) as u64
}

/// The op sequence of connection `conn` in `segment`.
fn op_stream(cfg: &KvConfig, seed: u64, segment: usize, conn: usize) -> OpStream {
    let stream = (segment * CONNS + conn) as u64;
    OpStream::new(mix(seed, 0x0b5, stream), cfg.keys_per_conn, cfg.put_percent)
}

/// Start a server over `backends`, connect, and prefill every key at
/// version 0 through the wire.
fn setup(cfg: &KvConfig, seed: u64, segment: usize, backends: Vec<ShardBackend>) -> Env {
    let server = Server::start(&cfg.server(), backends, true).expect("start server");
    let mut value = Vec::new();
    let conns = (0..CONNS)
        .map(|id| {
            let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");
            let names: Vec<String> = (0..cfg.keys_per_conn).map(|k| key_name(id, k)).collect();
            for (k, name) in names.iter().enumerate() {
                fill_value(&mut value, seed, key_id(cfg, id, k), 0, cfg.value_len);
                let reply = client.put(name, &value).expect("prefill put");
                assert_eq!(reply, Response::Ok, "prefill {name}");
            }
            Conn {
                id,
                client,
                names,
                ledger: Ledger::new(cfg.keys_per_conn),
                stream: op_stream(cfg, seed, segment, id),
                tracer: None,
            }
        })
        .collect();
    Env { server, conns }
}

/// What one connection measured in the timed window.
#[derive(Default)]
struct ConnOut {
    put_us: Vec<f64>,
    get_us: Vec<f64>,
    tally: Tally,
    busy: u64,
    window: Option<(Instant, Instant)>,
}

/// Issue one generated op; returns its kind, whether it succeeded with the
/// right bytes, and the client-side latency. Value generation and the
/// comparison stay outside the timed call.
fn one_op(
    conn: &mut Conn,
    cfg: &KvConfig,
    seed: u64,
    scratch: &mut Vec<u8>,
    busy: &mut u64,
) -> (OpKind, bool, f64) {
    let (kind, key) = conn.stream.next_op();
    let id = key_id(cfg, conn.id, key);
    let name = &conn.names[key];
    let version = match kind {
        OpKind::Put => conn.ledger.acked(key) + 1,
        OpKind::Get => conn.ledger.acked(key),
    };
    fill_value(scratch, seed, id, version, cfg.value_len);
    let client = &mut conn.client;
    let mut request = || {
        let mut reply = None;
        for _ in 0..=BUSY_RETRIES {
            reply = Some(match kind {
                OpKind::Put => client.put(name, scratch),
                OpKind::Get => client.get(name),
            });
            if !matches!(reply, Some(Ok(Response::Busy { .. }))) {
                break;
            }
            *busy += 1;
            std::thread::yield_now();
        }
        reply.expect("at least one attempt")
    };
    let started = Instant::now();
    let reply = match &conn.tracer {
        Some(tracer) => tracer.span("client.request", &mut request),
        None => request(),
    };
    let us = crate::micros_since(started);
    let ok = match (kind, reply) {
        (OpKind::Put, Ok(Response::Ok)) => {
            conn.ledger.ack(key, version);
            true
        }
        (OpKind::Get, Ok(Response::Value(bytes))) => bytes == *scratch,
        _ => false,
    };
    (kind, ok, us)
}

/// Warm up for `warm`, meet at the barrier (where `at_start` runs on the
/// calling thread while every connection is idle, so counter snapshots are
/// exact), then measure for `timed`.
fn drive(
    env: &mut Env,
    cfg: &KvConfig,
    seed: u64,
    warm: Duration,
    timed: Duration,
    at_start: impl FnOnce(&Server),
) -> Vec<ConnOut> {
    let barrier = Barrier::new(CONNS + 1);
    let server = &env.server;
    std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .conns
            .iter_mut()
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut scratch = Vec::new();
                    let mut out = ConnOut::default();
                    let warm_until = Instant::now() + warm;
                    while Instant::now() < warm_until {
                        let (_, ok, _) = one_op(conn, cfg, seed, &mut scratch, &mut out.busy);
                        out.tally.record(ok);
                    }
                    barrier.wait();
                    barrier.wait();
                    if let Some(t) = &conn.tracer {
                        t.set_enabled(true);
                    }
                    out.busy = 0;
                    let started = Instant::now();
                    let until = started + timed;
                    let mut seq = 0u64;
                    while Instant::now() < until {
                        if let Some(t) = &conn.tracer {
                            t.set_op(seq * CONNS as u64 + conn.id as u64);
                        }
                        seq += 1;
                        let (kind, ok, us) = one_op(conn, cfg, seed, &mut scratch, &mut out.busy);
                        out.tally.record(ok);
                        match kind {
                            OpKind::Put => out.put_us.push(us),
                            OpKind::Get => out.get_us.push(us),
                        }
                    }
                    out.window = Some((started, Instant::now()));
                    if let Some(t) = &conn.tracer {
                        t.set_enabled(false);
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        at_start(server);
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    })
}

/// Read every key back and compare with the last acknowledged version.
fn read_back(env: &mut Env, cfg: &KvConfig, seed: u64) -> Tally {
    let mut tally = Tally::default();
    let mut expected = Vec::new();
    for conn in &mut env.conns {
        for key in 0..conn.ledger.keys() {
            let version = conn.ledger.acked(key);
            fill_value(
                &mut expected,
                seed,
                key_id(cfg, conn.id, key),
                version,
                cfg.value_len,
            );
            let reply = conn.client.get(&conn.names[key]);
            tally.record(matches!(reply, Ok(Response::Value(bytes)) if bytes == expected));
        }
    }
    tally
}

/// One timed window, pooled over the connections.
#[derive(Default)]
struct Window {
    put_us: Vec<f64>,
    get_us: Vec<f64>,
    tally: Tally,
    busy: u64,
    seconds: f64,
}

impl Window {
    fn of(outs: Vec<ConnOut>) -> Self {
        let starts = outs.iter().map(|o| o.window.expect("timed").0).min();
        let ends = outs.iter().map(|o| o.window.expect("timed").1).max();
        let mut w = Window {
            seconds: (ends.expect("conns") - starts.expect("conns")).as_secs_f64(),
            ..Window::default()
        };
        for o in outs {
            w.put_us.extend(o.put_us);
            w.get_us.extend(o.get_us);
            w.tally.merge(o.tally);
            w.busy += o.busy;
        }
        w
    }

    fn ops(&self) -> usize {
        self.put_us.len() + self.get_us.len()
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.seconds
    }
}

fn counting_backends(cfg: &KvConfig, counts: &Arc<Counts>) -> Vec<ShardBackend> {
    let shard = cfg.server().shard;
    (0..SHARDS)
        .map(|_| {
            Box::new(CountingBackend::new(
                mem_backend(&shard),
                Arc::clone(counts),
            )) as _
        })
        .collect()
}

/// The untraced run: every end-to-end metric. Each segment is a server
/// set up afresh, the timed ops, the read-back, then the failure cycle.
pub fn run(cfg: &KvConfig, args: &Args) -> Report {
    let mut report = Report::default();
    let counts = Arc::new(Counts::default());
    let shape = StoreShape::like_shard(
        &cfg.server().shard,
        cfg.value_len,
        CONNS * cfg.keys_per_conn,
    );
    let mut setups = Vec::new();
    let mut device = CountSnapshot::default();
    let (mut windows, mut cycles) = (Vec::new(), Vec::new());
    for segment in 0..args.segments() {
        let (server_s, mut env) =
            crate::timed_setup(|| setup(cfg, args.seed, segment, counting_backends(cfg, &counts)));
        let mut at_start = CountSnapshot::default();
        let (warm, timed) = (args.segment_warmup(), args.segment_timed(0.8));
        let outs = drive(&mut env, cfg, args.seed, warm, timed, |_| {
            at_start = counts.snapshot();
        });
        device = device + (counts.snapshot() - at_start);
        let w = Window::of(outs);
        report.tally.merge(w.tally);
        windows.push(w);
        report.tally.merge(read_back(&mut env, cfg, args.seed));
        if segment == 0 {
            // The server's lifetime; the cycle's store comes after it.
            report.set("rss_peak_mib", crate::rss_peak_mib());
        }
        drop(env);
        let (store_s, cycle) =
            cycles_on_fresh_store(&shape, args.seed, segment, args.segment_timed(0.1));
        setups.push(server_s + store_s);
        report.tally.merge(cycle.tally);
        cycles.push(cycle);
    }

    // Every put in the window was acknowledged unless it is counted failed,
    // and gets neither write nor flush on a healthy array.
    let puts: usize = windows.iter().map(|w| w.put_us.len()).sum();
    let ops: usize = windows.iter().map(Window::ops).sum();
    let rates: Vec<f64> = windows.iter().map(Window::ops_per_s).collect();
    let block = cfg.server().shard.block_size;
    report.set("setup_s", stats::median(&setups));
    report.set_n("ops_per_s", stats::median(&rates), ops);
    let (mut put, mut get): (Vec<_>, Vec<_>) = windows
        .iter_mut()
        .map(|w| (&mut w.put_us, &mut w.get_us))
        .unzip();
    report.set_latencies(&mut put, &mut get);
    report.set("flushes_per_put", device.flushes as f64 / puts as f64);
    report.set(
        "device_bytes_per_user_byte",
        (device.writes as usize * block) as f64 / (puts * cfg.value_len) as f64,
    );
    set_cycle_metrics(&mut report, &mut cycles);
    report.detail(format!(
        "device_reads_per_op = {} count",
        device.reads as f64 / ops as f64
    ));
    let busy: u64 = windows.iter().map(|w| w.busy).sum();
    report.detail(format!("busy_replies = {busy} count"));
    report
}

type TracedStore = ObjectStore<TracedIo<ResilientArray<TracedBackend<MemBackend>>>>;

/// What `build_store(.., fresh = true)` builds, with the two traced seams
/// in place of the boxed backend.
fn traced_store(shard: &ShardConfig, tracer: &Tracer) -> TracedStore {
    let array = ResilientArray::format_journaled(
        shard.layout.clone(),
        shard.block_size,
        shard.stripes,
        shard.rotation,
        TracedBackend::new(mem_backend(shard), tracer.clone()),
        shard.policy,
        shard.fail_threshold,
    );
    let io = TracedIo::new(array, tracer.clone(), shard.meta_elements);
    ObjectStore::format(io, shard.meta_elements).expect("format store")
}

/// Server-side enqueue→completion `(count, summed µs)` per op kind, from
/// the `STAT` document. The mean is whole microseconds, so a windowed mean
/// from two readings is good to about a microsecond.
fn stat_sums(server: &Server) -> [(f64, f64); 2] {
    let doc = json::parse(&server.stat_json()).expect("STAT is JSON");
    ["put", "get"].map(|kind| {
        let field = |f: &str| {
            doc.path(&["latency_us", kind, f])
                .and_then(json::Value::num)
                .expect("STAT latency field")
        };
        (field("count"), field("count") * field("mean_us"))
    })
}

/// What the wire part measured.
struct Wire {
    window: Window,
    /// Server-side enqueue→completion mean over the window, `[put, get]`.
    stat_mean_us: [f64; 2],
    recordings: Vec<Vec<Span>>,
}

/// The real server over traced backends, a `client.request` span per
/// request, `STAT` read at both ends of the window.
fn wire_part(
    cfg: &KvConfig,
    args: &Args,
    warm: Duration,
    part: Duration,
    tally: &mut Tally,
) -> Wire {
    let shard = cfg.server().shard;
    let shard_tracers: Vec<Tracer> = (0..SHARDS).map(|_| Tracer::new()).collect();
    let backends = shard_tracers
        .iter()
        .map(|t| Box::new(TracedBackend::new(mem_backend(&shard), t.clone())) as ShardBackend)
        .collect();
    let mut env = setup(cfg, args.seed, 0, backends);
    for conn in &mut env.conns {
        conn.tracer = Some(Tracer::new());
    }
    let mut stat_start = [(0.0, 0.0); 2];
    let outs = drive(&mut env, cfg, args.seed, warm, part, |server| {
        stat_start = stat_sums(server);
        for t in &shard_tracers {
            t.set_enabled(true);
        }
    });
    let stat_end = stat_sums(&env.server);
    let window = Window::of(outs);
    tally.merge(window.tally);
    tally.merge(read_back(&mut env, cfg, args.seed));
    let mut recordings: Vec<_> = env
        .conns
        .iter()
        .map(|c| c.tracer.as_ref().expect("set above").take())
        .collect();
    drop(env);
    recordings.extend(shard_tracers.iter().map(Tracer::take));
    let stat_mean_us = [0, 1].map(|k| {
        let ops = stat_end[k].0 - stat_start[k].0;
        if ops > 0.0 {
            (stat_end[k].1 - stat_start[k].1) / ops
        } else {
            0.0
        }
    });
    Wire {
        window,
        stat_mean_us,
        recordings,
    }
}

/// What the stack part measured.
struct Stack {
    put: RootTotals,
    get: RootTotals,
    /// `[put, get]`.
    kinds: [StatsDelta; 2],
    index_bytes: u64,
    schedule_hit_rate: f64,
    recording: Vec<Span>,
}

/// The same seeded ops replayed on one thread into
/// `ObjectStore<TracedIo<ResilientArray<TracedBackend<MemBackend>>>>`, one
/// store per shard, routed as the server routes.
fn stack_part(
    cfg: &KvConfig,
    args: &Args,
    warm: Duration,
    part: Duration,
    tally: &mut Tally,
) -> Stack {
    let shard = cfg.server().shard;
    let tracer = Tracer::new();
    let mut stores: Vec<TracedStore> = (0..SHARDS).map(|_| traced_store(&shard, &tracer)).collect();
    let mut value = Vec::new();
    let mut ledgers = Vec::new();
    let mut streams = Vec::new();
    for conn in 0..CONNS {
        for key in 0..cfg.keys_per_conn {
            let name = key_name(conn, key);
            fill_value(
                &mut value,
                args.seed,
                key_id(cfg, conn, key),
                0,
                cfg.value_len,
            );
            stores[shard_of(&name, SHARDS)]
                .upsert(&name, &value)
                .expect("prefill");
        }
        ledgers.push(Ledger::new(cfg.keys_per_conn));
        streams.push(op_stream(cfg, args.seed, 0, conn));
    }
    let mut kinds = [StatsDelta::default(), StatsDelta::default()];
    let replay_start = Instant::now();
    let mut traced_since = None;
    let mut seq = 0u64;
    loop {
        if traced_since.is_none() && replay_start.elapsed() >= warm {
            tracer.set_enabled(true);
            for s in &mut stores {
                s.array_mut().index_bytes = 0;
            }
            kinds = [StatsDelta::default(), StatsDelta::default()];
            traced_since = Some(Instant::now());
        }
        if traced_since.is_some_and(|t| t.elapsed() >= part) {
            break;
        }
        let conn = (seq % CONNS as u64) as usize;
        tracer.set_op(seq);
        seq += 1;
        let (kind, key) = streams[conn].next_op();
        let name = key_name(conn, key);
        let store = &mut stores[shard_of(&name, SHARDS)];
        let before = store.array().inner().stats().clone();
        let version = ledgers[conn].acked(key) + u64::from(kind == OpKind::Put);
        fill_value(
            &mut value,
            args.seed,
            key_id(cfg, conn, key),
            version,
            cfg.value_len,
        );
        let ok = match kind {
            OpKind::Put => {
                ledgers[conn].ack(key, version);
                tracer
                    .span("objstore.upsert", || store.upsert(&name, &value))
                    .is_ok()
            }
            OpKind::Get => tracer
                .span("objstore.get", || store.get(&name))
                .is_ok_and(|bytes| bytes == value),
        };
        tally.record(ok);
        kinds[usize::from(kind == OpKind::Get)].add(store.array().inner().stats(), &before);
    }
    tracer.set_enabled(false);
    let recording = tracer.take();
    let mut roll = rollup(&recording);
    let (mut hits, mut misses) = (0u64, 0u64);
    for s in &stores {
        let c = s.array().inner().schedule_stats();
        hits += c.hits;
        misses += c.misses;
    }
    Stack {
        put: roll.remove("objstore.upsert").unwrap_or_default(),
        get: roll.remove("objstore.get").unwrap_or_default(),
        kinds,
        index_bytes: stores.iter().map(|s| s.array().index_bytes).sum(),
        schedule_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        recording,
    }
}

/// The traced run: every per-layer metric. Four parts share one seeded op
/// sequence: an untraced wire baseline, the traced wire part, the
/// single-threaded stack replay, and the probes.
pub fn run_traced(cfg: &KvConfig, args: &Args, workload: &str) -> Report {
    let mut report = Report::default();
    let shard = cfg.server().shard;
    let (warm, part) = (args.timed(0.05), args.timed(0.25));

    // Untraced wire baseline, for the tracing overhead.
    let counts = Arc::new(Counts::default());
    let mut env = setup(cfg, args.seed, 0, counting_backends(cfg, &counts));
    let base = Window::of(drive(&mut env, cfg, args.seed, warm, part, |_| ()));
    report.tally.merge(base.tally);
    drop(env);

    let wire = wire_part(cfg, args, warm, part, &mut report.tally);
    let stack = stack_part(cfg, args, warm, part, &mut report.tally);
    let (put, get, w) = (&stack.put, &stack.get, &wire.window);
    let [stat_put, stat_get] = wire.stat_mean_us;
    let (client_put, client_get) = (stats::mean(&w.put_us), stats::mean(&w.get_us));
    let (put_span, get_span) = (put.dur_us("objstore."), get.dur_us("objstore."));

    report.set_n("client.put_mean_us", client_put, w.put_us.len());
    report.set_n("client.get_mean_us", client_get, w.get_us.len());
    report.set("server.put_wire_us", client_put - stat_put);
    report.set("server.get_wire_us", client_get - stat_get);
    report.set("server.put_queue_wait_us", stat_put - put_span);
    report.set("server.get_queue_wait_us", stat_get - get_span);
    report.set(
        "server.busy_frac",
        w.busy as f64 / (w.ops() as u64 + w.busy).max(1) as f64,
    );
    report.set_stack(put, get);
    let [on_put, on_get] = &stack.kinds;
    report.set_stats(on_put, on_get);
    report.set(
        "objstore.index_bytes_per_put",
        stack.index_bytes as f64 / put.roots.max(1) as f64,
    );
    report.set("array.schedule_hit_rate", stack.schedule_hit_rate);
    report.set(
        "backend.bytes_written_per_user_byte",
        put.calls_per_root("backend.write_block") * shard.block_size as f64 / cfg.value_len as f64,
    );

    // Probes of public functions the wrappers cannot separate.
    let budget = args.timed(0.03);
    report.set(
        "server.protocol_codec_us",
        probe::protocol_codec_us(cfg.value_len, budget),
    );
    report.set_put_estimates(
        put,
        probe::crc32_block_us(shard.block_size, budget),
        probe::encode_stripe_us(&shard.layout, shard.block_size, budget),
        on_put.per_op(|s| s.journal_records),
    );
    report.set(
        "codec.xors_per_data_element",
        probe::xors_per_data_element(&shard.layout),
    );
    report.set(
        "codec.schedule_compile_ms",
        probe::schedule_compile_ms(&shard.layout),
    );
    report.set(
        "trace.overhead_frac",
        1.0 - w.ops_per_s() / base.ops_per_s(),
    );

    for (op, span, stat, client) in [
        ("put", put_span, stat_put, client_put),
        ("get", get_span, stat_get, client_get),
    ] {
        report.detail(format!(
            "{op}: wire {:.1} + queue wait {:.1} + span mean {span:.1} us = client mean {client:.1} us",
            client - stat,
            stat - span,
        ));
    }
    report.detail(format!(
        "ops_per_s untraced {:.1}, traced {:.1}",
        base.ops_per_s(),
        w.ops_per_s()
    ));
    let mut recordings = wire.recordings;
    recordings.push(stack.recording);
    crate::write_trace(workload, &recordings);
    report
}
