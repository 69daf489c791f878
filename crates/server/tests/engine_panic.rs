//! A panicking engine kills only its shard. The unwind drops the engine,
//! so its slot in the gate stays empty: the turn still advances, the
//! requester and every later request to that shard are answered
//! `shard N terminated` promptly instead of hanging, no lock is poisoned
//! (the engine runs outside all of them), STAT keeps answering, the other
//! shards keep serving, and shutdown returns.

use dcode_faults::{silence_crash_panics, FaultInjector, FaultPlan, MemBackend, SharedInjector};
use dcode_server::{
    shard_blocks, shard_of, Client, Response, Server, ServerConfig, ServerMetrics, Shard,
    ShardBackend, ShardConfig, ShardEngine, ShardOp, ShardSnapshot,
};
use std::sync::Arc;

/// An engine whose PUT path panics — standing in for a storage-layer
/// bug — while GET and snapshots behave.
struct BombEngine;

impl ShardEngine for BombEngine {
    fn execute(&mut self, op: &ShardOp<'_>) -> Response {
        match op {
            ShardOp::Put { .. } => panic!("injected storage panic"),
            _ => Response::NotFound,
        }
    }

    fn snapshot(&self, ops_done: u64) -> ShardSnapshot {
        ShardSnapshot {
            ops_done,
            ..ShardSnapshot::default()
        }
    }
}

fn terminated(shard: usize) -> Response {
    Response::Err(format!("shard {shard} terminated"))
}

#[test]
fn a_panicking_engine_empties_its_slot_and_the_turn_moves_on() {
    let shard = Shard::new(5, BombEngine, 8, Arc::new(ServerMetrics::new()));
    assert_eq!(shard.run(&ShardOp::Get { name: "k" }), Response::NotFound);

    // The bomb goes off with two handlers parked behind it: each gets its
    // turn and the typed answer — nobody hangs on a turn that never ends.
    shard.set_stalled(true);
    std::thread::scope(|scope| {
        let shard = &shard;
        let bomb = scope.spawn(move || {
            shard.run(&ShardOp::Put {
                name: "k",
                value: &[1],
            })
        });
        while shard.depth() < 1 {
            std::thread::yield_now();
        }
        let behind: Vec<_> = (0..2)
            .map(|_| scope.spawn(move || shard.run(&ShardOp::Get { name: "k" })))
            .collect();
        while shard.depth() < 3 {
            std::thread::yield_now();
        }
        shard.set_stalled(false);
        assert_eq!(bomb.join().expect("the panic is stopped"), terminated(5));
        for handle in behind {
            assert_eq!(handle.join().unwrap(), terminated(5));
        }
    });

    // Later requests too, and the STAT ingredients still answer: live
    // depth and the last published snapshot (from before the bomb).
    assert_eq!(shard.run(&ShardOp::Get { name: "k" }), terminated(5));
    assert_eq!(shard.depth(), 0);
    let json = shard.snapshot().to_json(shard.depth());
    assert!(json.contains("\"ops_done\":1"), "{json}");
}

const SHARDS: usize = 3;
const DOOMED: usize = 1;

#[test]
fn only_the_panicking_shard_dies_behind_a_running_server() {
    silence_crash_panics();
    let cfg = ServerConfig {
        shards: SHARDS,
        max_conns: 4,
        shard: ShardConfig {
            block_size: 64,
            stripes: 16,
            meta_elements: 4,
            ..ShardConfig::default()
        },
        ..ServerConfig::default()
    };
    let mem = || {
        MemBackend::new(
            cfg.shard.layout.disks(),
            shard_blocks(&cfg.shard),
            cfg.shard.block_size,
        )
    };
    let doomed = SharedInjector::new(FaultInjector::new(mem(), FaultPlan::quiet(3)));
    let backends: Vec<ShardBackend> = (0..SHARDS)
        .map(|shard| -> ShardBackend {
            if shard == DOOMED {
                Box::new(doomed.clone())
            } else {
                Box::new(mem())
            }
        })
        .collect();
    let mut server = Server::start(&cfg, backends, true).expect("server starts");
    let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");

    // Two keys per shard, all stored while every shard is healthy.
    let keys: Vec<Vec<String>> = (0..SHARDS)
        .map(|shard| {
            (0..1000)
                .map(|i| format!("key-{i}"))
                .filter(|k| shard_of(k, SHARDS) == shard)
                .take(2)
                .collect()
        })
        .collect();
    for key in keys.iter().flatten() {
        assert_eq!(
            client.put(key, key.as_bytes()).expect("put io"),
            Response::Ok
        );
    }

    // The doomed shard's next backend write panics inside the engine.
    doomed.lock().arm_crash(0);
    assert_eq!(
        client.put(&keys[DOOMED][0], b"boom").expect("put io"),
        terminated(DOOMED),
        "the requester is answered on its own, still open, connection"
    );
    // That shard now answers promptly, gets and puts alike…
    assert_eq!(
        client.get(&keys[DOOMED][1]).expect("get io"),
        terminated(DOOMED)
    );
    assert_eq!(
        client.put(&keys[DOOMED][1], b"again").expect("put io"),
        terminated(DOOMED)
    );
    // …the other shards keep serving puts and gets…
    for shard in (0..SHARDS).filter(|&s| s != DOOMED) {
        let key = &keys[shard][0];
        assert_eq!(client.put(key, b"after").expect("put io"), Response::Ok);
        assert_eq!(
            client.get(key).expect("get io"),
            Response::Value(b"after".to_vec())
        );
        assert_eq!(
            client.get(&keys[shard][1]).expect("get io"),
            Response::Value(keys[shard][1].as_bytes().to_vec())
        );
    }
    // …a scrub reports the dead shard instead of hanging on it…
    assert_eq!(client.scrub().expect("scrub io"), terminated(DOOMED));
    // …and STAT answers, with nothing left admitted anywhere.
    let Response::Report(stat) = client.stat().expect("stat io") else {
        panic!("stat must report");
    };
    assert_eq!(stat.matches("\"queue_depth\":0").count(), SHARDS, "{stat}");
    server.shutdown();
}
