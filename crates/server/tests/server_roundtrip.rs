//! End-to-end server test over a real TCP socket: concurrent clients,
//! one shard running on a fault-injected backend (transient errors, a
//! mid-run disk death, silent corruption), deterministic backpressure,
//! and the invariant the whole stack exists to keep — **every
//! acknowledged PUT reads back**, including through the degraded shard.

use dcode_faults::{
    FaultInjector, FaultKind, FaultPlan, MemBackend, ScheduledFault, SharedInjector,
};
use dcode_server::{
    shard_blocks, shard_of, Client, Response, Server, ServerConfig, ShardBackend, ShardConfig,
    MAX_FRAME,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

const SHARDS: usize = 4;
const FAULTY_SHARD: usize = 2;

fn test_config() -> ServerConfig {
    ServerConfig {
        port: 0,
        shards: SHARDS,
        max_conns: 16,
        shard: ShardConfig {
            block_size: 64,
            stripes: 16,
            // Two `tN-kM` records fit a 64-byte index page.
            meta_elements: 16,
            queue_cap: 4,
            ..ShardConfig::default()
        },
    }
}

/// One `MemBackend` per shard; `FAULTY_SHARD` is wrapped in a seeded
/// fault injector that retries-worth of transient errors, kills a disk
/// mid-run, and rots a block silently.
fn backends(cfg: &ServerConfig) -> Vec<ShardBackend> {
    let disks = cfg.shard.layout.disks();
    let blocks = shard_blocks(&cfg.shard);
    (0..cfg.shards)
        .map(|shard| -> ShardBackend {
            let mem = MemBackend::new(disks, blocks, cfg.shard.block_size);
            if shard == FAULTY_SHARD {
                let plan = FaultPlan {
                    p_transient_read: 0.01,
                    p_transient_write: 0.01,
                    scheduled: vec![
                        ScheduledFault {
                            at_op: 400,
                            fault: FaultKind::SilentCorrupt { disk: 1, block: 3 },
                        },
                        ScheduledFault {
                            at_op: 900,
                            fault: FaultKind::DiskFail(3),
                        },
                    ],
                    ..FaultPlan::quiet(42)
                };
                Box::new(FaultInjector::new(mem, plan))
            } else {
                Box::new(mem)
            }
        })
        .collect()
}

fn value_of(thread: usize, key: usize, version: usize) -> Vec<u8> {
    let tag = (thread * 7919 + key * 131 + version) as u8;
    vec![tag; 90 + key % 40]
}

#[test]
fn concurrent_clients_through_a_faulty_shard_lose_nothing() {
    let cfg = test_config();
    let server = Server::start(&cfg, backends(&cfg), true).expect("server starts");
    let port = server.port();

    // 4 client threads × 60 ops, overlapping key spaces within a thread
    // so upserts and re-reads happen. Each thread records what the server
    // acknowledged.
    let handles: Vec<_> = (0..4)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                let mut acked: HashMap<usize, usize> = HashMap::new();
                // Separate put/get sequence counters so every key id sees
                // both kinds of traffic (a shared `op % 12` index would
                // correlate the op mix with the key residues mod 3).
                let mut put_seq = 0;
                let mut get_seq = 0;
                for op in 0..60 {
                    if op % 3 != 2 {
                        let key_id = put_seq % 12;
                        let key = format!("t{thread}-k{key_id}");
                        let version = put_seq;
                        put_seq += 1;
                        let value = value_of(thread, key_id, version);
                        match client.put(&key, &value).expect("put io") {
                            Response::Ok => {
                                acked.insert(key_id, version);
                            }
                            Response::Busy { .. } => {} // unacked: no ledger entry
                            other => panic!("unexpected put response: {other:?}"),
                        }
                    } else {
                        let key_id = get_seq % 12;
                        let key = format!("t{thread}-k{key_id}");
                        get_seq += 1;
                        match client.get(&key).expect("get io") {
                            Response::Value(bytes) => {
                                let &version = acked.get(&key_id).expect("value implies an ack");
                                assert_eq!(
                                    bytes,
                                    value_of(thread, key_id, version),
                                    "read returned a value that was never the acked one"
                                );
                            }
                            Response::NotFound => {
                                assert!(
                                    !acked.contains_key(&key_id),
                                    "acked key {key} vanished mid-run"
                                );
                            }
                            other => panic!("unexpected get response: {other:?}"),
                        }
                    }
                }
                (thread, acked)
            })
        })
        .collect();

    let ledgers: Vec<(usize, HashMap<usize, usize>)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // Every acked write reads back through a fresh connection — including
    // keys on the fault-injected shard, which by now has a dead disk.
    let mut verifier = Client::connect(("127.0.0.1", port)).expect("connect verifier");
    let mut checked = 0;
    let mut on_faulty = 0;
    for (thread, acked) in &ledgers {
        for (&key_id, &version) in acked {
            let key = format!("t{thread}-k{key_id}");
            if shard_of(&key, SHARDS) == FAULTY_SHARD {
                on_faulty += 1;
            }
            let got = verifier.get(&key).expect("verify get");
            assert_eq!(
                got,
                Response::Value(value_of(*thread, key_id, version)),
                "acked key {key} must read back its acked value"
            );
            checked += 1;
        }
    }
    assert!(checked >= 40, "the run acked a real number of keys");
    assert!(
        on_faulty > 0,
        "key space must exercise the fault-injected shard for the test to mean anything"
    );

    // Scrub reports one entry per shard and repairs the seeded rot.
    let Response::Report(scrub) = verifier.scrub().expect("scrub io") else {
        panic!("scrub must report");
    };
    for shard in 0..SHARDS {
        assert!(scrub.contains(&format!("\"shard\":{shard}")), "{scrub}");
    }

    // Stat is served even now and carries per-shard schedule-cache and
    // resilience counters.
    let Response::Report(stat) = verifier.stat().expect("stat io") else {
        panic!("stat must report");
    };
    assert!(stat.contains("\"shards\":4"), "{stat}");
    assert!(stat.contains("\"per_shard\":["), "{stat}");
    assert!(stat.contains("\"schedule_hits\""), "{stat}");
    drop(server); // clean shutdown with clients still connected
}

#[test]
fn full_shard_queue_returns_busy_instead_of_hanging() {
    let cfg = test_config();
    let queue_cap = cfg.shard.queue_cap;
    let server = Server::start(&cfg, backends(&cfg), true).expect("server starts");
    let port = server.port();

    // Pick keys that all route to one healthy shard.
    let target = 0usize;
    let keys: Vec<String> = (0..1000)
        .map(|i| format!("busy-{i}"))
        .filter(|k| shard_of(k, SHARDS) == target)
        .take(queue_cap + 1)
        .collect();
    assert_eq!(keys.len(), queue_cap + 1);

    // Park the shard's worker, then occupy every queue slot with a
    // blocked PUT from its own connection.
    server.stall_shard(target, true);
    let blocked: Vec<_> = keys[..queue_cap]
        .iter()
        .cloned()
        .map(|key| {
            std::thread::spawn(move || {
                let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                client.put(&key, b"queued while stalled").expect("put io")
            })
        })
        .collect();
    // Wait until all four jobs are actually enqueued (the stat document
    // exposes live queue depths, so poll it instead of sleeping blind).
    let mut probe = Client::connect(("127.0.0.1", port)).expect("connect probe");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let Response::Report(stat) = probe.stat().expect("stat io") else {
            panic!("stat must report");
        };
        if stat.contains(&format!("\"queue_depth\":{queue_cap}")) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queue never filled: {stat}"
        );
        std::thread::yield_now();
    }

    // The next request to that shard is rejected immediately and typed.
    let response = probe.put(&keys[queue_cap], b"overflow").expect("put io");
    let Response::Busy { shard, depth } = response else {
        panic!("expected Busy, got {response:?}");
    };
    assert_eq!(shard as usize, target);
    assert_eq!(depth as usize, queue_cap);

    // Release the worker: every queued PUT completes and is acked…
    server.stall_shard(target, false);
    for handle in blocked {
        assert_eq!(handle.join().expect("blocked client"), Response::Ok);
    }
    // …and the rejected client retries to success. Nothing acked is lost.
    assert_eq!(
        probe.put(&keys[queue_cap], b"overflow").expect("retry io"),
        Response::Ok
    );
    for key in &keys[..queue_cap] {
        assert_eq!(
            probe.get(key).expect("get io"),
            Response::Value(b"queued while stalled".to_vec())
        );
    }
}

#[test]
fn overwrite_without_room_for_both_versions_is_an_err_reply_and_keeps_the_value() {
    let cfg = test_config();
    let server = Server::start(&cfg, backends(&cfg), true).expect("server starts");
    let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");

    // One healthy shard: 16 stripes of D-Code p = 7 are 560 elements, 16
    // of them index, so four 136-element values fill it to the last one.
    let keys: Vec<String> = (0..1000)
        .map(|i| format!("full-{i}"))
        .filter(|k| shard_of(k, SHARDS) == 0)
        .take(4)
        .collect();
    let value = |tag: u8| vec![tag; 136 * 64];
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(
            client.put(key, &value(i as u8)).expect("put io"),
            Response::Ok
        );
    }

    // An overwrite of more than one element is copy-on-write: with no
    // free extent for the new version the store refuses it (typed
    // `NoSpace`, an `Err` reply on the wire) rather than write over the
    // only copy. Only a same-length value of one element goes in place.
    let Response::Err(why) = client.put(&keys[0], &value(0xEE)).expect("put io") else {
        panic!("an overwrite with no room for both versions must be refused");
    };
    assert!(why.contains("no space for 136 elements"), "{why}");
    assert_eq!(
        client.get(&keys[0]).expect("get io"),
        Response::Value(value(0))
    );

    // Room made, the same overwrite goes through and the rest is intact.
    assert_eq!(client.delete(&keys[3]).expect("delete io"), Response::Ok);
    assert_eq!(
        client.put(&keys[0], &value(0xEE)).expect("put io"),
        Response::Ok
    );
    assert_eq!(
        client.get(&keys[0]).expect("get io"),
        Response::Value(value(0xEE))
    );
    assert_eq!(
        client.get(&keys[1]).expect("get io"),
        Response::Value(value(1))
    );
    assert_eq!(client.get(&keys[3]).expect("get io"), Response::NotFound);
}

#[test]
fn a_name_with_a_comma_and_a_newline_round_trips_and_survives_a_reopen() {
    // The index record carries the name's length: no byte of a name means
    // anything to the format.
    let cfg = ServerConfig {
        shards: 1,
        ..test_config()
    };
    let medium = SharedInjector::new(FaultInjector::new(
        MemBackend::new(
            cfg.shard.layout.disks(),
            shard_blocks(&cfg.shard),
            cfg.shard.block_size,
        ),
        FaultPlan::quiet(5),
    ));
    let name = "a,b\nc";
    let value = b"4,5\nnot an index line\n".to_vec();
    {
        let server =
            Server::start(&cfg, vec![Box::new(medium.clone())], true).expect("server starts");
        let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");
        assert_eq!(client.put(name, &value).expect("put io"), Response::Ok);
        assert_eq!(client.put("a", b"neighbour").expect("put io"), Response::Ok);
        assert_eq!(
            client.get(name).expect("get io"),
            Response::Value(value.clone())
        );
    }
    let server = Server::start(&cfg, vec![Box::new(medium)], false).expect("shard re-opens");
    let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");
    assert_eq!(client.get(name).expect("get io"), Response::Value(value));
    assert_eq!(
        client.get("a").expect("get io"),
        Response::Value(b"neighbour".to_vec())
    );
    assert_eq!(client.delete(name).expect("delete io"), Response::Ok);
    assert_eq!(client.get(name).expect("get io"), Response::NotFound);
}

#[test]
fn a_request_the_wire_cannot_carry_is_refused_and_the_connection_still_serves() {
    let cfg = test_config();
    let server = Server::start(&cfg, backends(&cfg), true).expect("server starts");
    let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");
    assert_eq!(client.put("kept", b"value").expect("put io"), Response::Ok);

    // A name too long for its u16 field, and a value too large for one
    // frame: each is refused in the client, and nothing reaches the wire.
    let long_name = "n".repeat(usize::from(u16::MAX) + 1);
    for result in [
        client.put(&long_name, b"v"),
        client.get(&long_name),
        client.delete(&long_name),
        client.put("big", &vec![0u8; MAX_FRAME]),
    ] {
        let err = result.expect_err("an oversized request must be an error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }

    // The same connection still serves.
    assert_eq!(
        client.get("kept").expect("get io"),
        Response::Value(b"value".to_vec())
    );
}

/// `max_conns` is the concurrent-connection cap, and the handler pool
/// grows on accept only up to it: a third connection against a cap of two
/// is accepted but answered only once one of the first two closes.
#[test]
fn max_conns_caps_open_connections_and_the_handler_pool() {
    let cfg = ServerConfig {
        max_conns: 2,
        ..test_config()
    };
    let plain: Vec<ShardBackend> = (0..cfg.shards)
        .map(|_| -> ShardBackend {
            Box::new(MemBackend::new(
                cfg.shard.layout.disks(),
                shard_blocks(&cfg.shard),
                cfg.shard.block_size,
            ))
        })
        .collect();
    let mut server = Server::start(&cfg, plain, true).expect("server starts");
    let port = server.port();
    assert_eq!(server.handler_workers(), 0, "no connection, no handler");

    let mut first = Client::connect(("127.0.0.1", port)).expect("connect");
    assert_eq!(first.put("cap", b"first").expect("put io"), Response::Ok);
    assert_eq!(server.handler_workers(), 1, "grown on accept");
    let mut second = Client::connect(("127.0.0.1", port)).expect("connect");
    assert_eq!(
        second.get("cap").expect("get io"),
        Response::Value(b"first".to_vec())
    );
    assert_eq!(server.handler_workers(), 2);

    // Past the cap: connected, request sent, no answer.
    let ask = |tx: mpsc::Sender<std::io::Result<Response>>| {
        move || {
            let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
            let _ = tx.send(client.get("cap"));
            client
        }
    };
    let (tx, third_reply) = mpsc::channel();
    let third = std::thread::spawn(ask(tx));
    assert!(
        third_reply
            .recv_timeout(Duration::from_millis(300))
            .is_err(),
        "a third connection was served while two were open"
    );
    assert_eq!(server.handler_workers(), 2, "the pool stops at max_conns");

    // One of the two closes: the queued connection takes its worker.
    drop(first);
    let reply = third_reply
        .recv_timeout(Duration::from_secs(10))
        .expect("the queued connection is served once a handler frees up");
    assert_eq!(reply.expect("get io"), Response::Value(b"first".to_vec()));
    let mut third = third.join().expect("third client");
    assert_eq!(server.handler_workers(), 2);

    // A fourth queues behind the second and third; shutdown unblocks all
    // three and joins every worker.
    let (tx, fourth_reply) = mpsc::channel();
    let fourth = std::thread::spawn(ask(tx));
    assert!(fourth_reply
        .recv_timeout(Duration::from_millis(300))
        .is_err());
    server.shutdown();
    assert_eq!(server.handler_workers(), 0);
    assert!(fourth_reply
        .recv_timeout(Duration::from_secs(10))
        .expect("the queued request returns")
        .is_err());
    fourth.join().expect("fourth client");
    assert!(second.get("cap").is_err(), "served connections are closed");
    assert!(third.get("cap").is_err());
}
