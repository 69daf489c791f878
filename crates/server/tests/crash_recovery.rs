//! Server crash recovery: a shard's engine is killed mid-PUT by an armed
//! crash point (the panic unwinds out of the store with the write half
//! landed, and the shard's slot stays empty), the un-flushed volatile write cache is dropped at the power
//! cycle, and the server restarts by *attaching* over the surviving
//! medium — which replays the parity-intent journal before the shard
//! accepts a single op. The invariants under test:
//!
//! * every PUT acknowledged before the crash reads back its acked value
//!   through the restarted server;
//! * a post-restart SCRUB finds zero parity-inconsistent stripes (the
//!   write hole stays closed);
//! * STAT reports the journal replay outcome for the new mount;
//! * a PUT that *overwrites* a key acknowledged in an earlier generation,
//!   killed anywhere along its length, leaves the key reading its
//!   previous value or the new one — never absent, never anything else.

use dcode_faults::{silence_crash_panics, FaultInjector, FaultPlan, MemBackend, SharedInjector};
use dcode_server::{shard_blocks, Client, Response, Server, ServerConfig, ShardConfig};
use std::collections::HashMap;

fn test_config() -> ServerConfig {
    ServerConfig {
        port: 0,
        shards: 1,
        max_conns: 4,
        shard: ShardConfig {
            block_size: 64,
            stripes: 16,
            meta_elements: 12,
            queue_cap: 16,
            ..ShardConfig::default()
        },
    }
}

fn value_of(cycle: usize, key: usize) -> Vec<u8> {
    let tag = (cycle * 131 + key * 17 + 5) as u8;
    vec![tag; 70 + (cycle * 31 + key * 13) % 60]
}

/// One shared medium for a whole test: a volatile write cache drops
/// anything un-flushed at each power cycle, so an ack-before-durable bug
/// anywhere in the PUT path shows up as lost acked data.
fn volatile_medium(cfg: &ServerConfig) -> SharedInjector<MemBackend> {
    let shard_cfg = &cfg.shard;
    let medium = MemBackend::new(
        shard_cfg.layout.disks(),
        shard_blocks(shard_cfg),
        shard_cfg.block_size,
    );
    let plan = FaultPlan {
        volatile_cache: true,
        ..FaultPlan::quiet(11)
    };
    SharedInjector::new(FaultInjector::new(medium, plan))
}

#[test]
fn shard_killed_mid_put_recovers_every_acked_write() {
    silence_crash_panics();
    let cfg = test_config();
    let handle = volatile_medium(&cfg);

    // Acked ledger across server generations: key id -> (cycle, key).
    let mut acked: HashMap<String, Vec<u8>> = HashMap::new();
    let mut replayed_mounts = 0u32;

    // Crash offsets in backend-write units, armed right before the victim
    // PUT of each cycle. A PUT here costs 31 backend writes in two
    // journaled segments — the value, then its index page — so these land
    // at different phases of both (before commit, between commit and
    // retire, mid-retire…).
    let crash_offsets = [2u64, 8, 14, 21, 28];

    for (cycle, &offset) in crash_offsets.iter().enumerate() {
        let fresh = cycle == 0;
        let server = Server::start(&cfg, vec![Box::new(handle.clone())], fresh)
            .expect("server starts over the surviving medium");
        let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");

        if !fresh {
            // Everything acked before the last crash must still be there.
            for (key, value) in &acked {
                assert_eq!(
                    client.get(key).expect("verify get"),
                    Response::Value(value.clone()),
                    "acked key {key} lost across crash + restart"
                );
            }
            // The write hole stays closed: no parity-inconsistent stripe
            // survives the journal replay.
            let Response::Report(scrub) = client.scrub().expect("scrub io") else {
                panic!("scrub must report");
            };
            assert!(
                scrub.contains("\"parity_mismatches\":0"),
                "post-crash scrub found a write hole: {scrub}"
            );
            assert!(scrub.contains("\"parity_checked\":"), "{scrub}");
            // STAT surfaces the mount's replay outcome.
            let Response::Report(stat) = client.stat().expect("stat io") else {
                panic!("stat must report");
            };
            assert!(
                stat.contains("\"journal_last_replay\":\"")
                    && !stat.contains("\"journal_last_replay\":\"none\""),
                "restarted shard must report its replay outcome: {stat}"
            );
            if stat.contains("\"journal_last_replay\":\"replayed\"") {
                replayed_mounts += 1;
            }
        }

        // A few PUTs that must survive whatever happens next.
        for key_id in 0..3 {
            let key = format!("c{cycle}-k{key_id}");
            let value = value_of(cycle, key_id);
            match client.put(&key, &value).expect("put io") {
                Response::Ok => {
                    acked.insert(key, value);
                }
                other => panic!("healthy put failed: {other:?}"),
            }
        }

        // Kill the engine mid-PUT: the armed crash point panics inside a
        // backend write, unwinding out of the store with the operation
        // half-applied. The client sees an error, never an OK — so the
        // victim write is *not* in the acked ledger.
        handle.lock().arm_crash(offset);
        let victim = format!("victim-{cycle}");
        match client.put(&victim, &value_of(99, cycle)).expect("put io") {
            Response::Ok => {
                // Offset outlived the whole PUT: it was acked (and thus
                // durable); the crash stays armed and is cleared below.
                acked.insert(victim, value_of(99, cycle));
            }
            Response::Err(_) => {} // engine died mid-PUT: unacked
            other => panic!("unexpected victim response: {other:?}"),
        }

        drop(server); // the shard may be dead; its handlers are joined
        handle.lock().power_cycle(); // un-flushed writes are gone
    }

    // Final generation: attach once more and verify the full ledger.
    let server = Server::start(&cfg, vec![Box::new(handle.clone())], false).expect("final restart");
    let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");
    for (key, value) in &acked {
        assert_eq!(
            client.get(key).expect("final get"),
            Response::Value(value.clone()),
            "acked key {key} lost"
        );
    }
    let Response::Report(scrub) = client.scrub().expect("final scrub") else {
        panic!("scrub must report");
    };
    assert!(scrub.contains("\"parity_mismatches\":0"), "{scrub}");
    assert!(
        acked.len() >= crash_offsets.len() * 3,
        "the run acked a real number of keys ({})",
        acked.len()
    );
    assert!(
        replayed_mounts >= 1,
        "at least one crash must land between commit and retire so the \
         sweep exercises actual replay (got {replayed_mounts} replayed mounts)"
    );
}

#[test]
fn overwrite_killed_mid_put_keeps_the_acked_value_or_the_new_one() {
    silence_crash_panics();
    let cfg = test_config();
    let handle = volatile_medium(&cfg);
    const CYCLES: u64 = 8;

    // What each key must read: its last acknowledged value — or, for a
    // key whose overwrite died unacknowledged, that or the in-flight one.
    let mut acked: HashMap<String, Vec<u8>> = HashMap::new();
    let mut in_flight: Option<(String, Vec<u8>)> = None;
    // Backend writes one overwrite costs, measured in generation 0; the
    // crash offsets divide it evenly so they cover the whole PUT.
    let mut put_writes = 0u64;
    let mut killed = 0u64;

    for cycle in 0..=CYCLES {
        let fresh = cycle == 0;
        let server = Server::start(&cfg, vec![Box::new(handle.clone())], fresh)
            .expect("server starts over the surviving medium");
        let mut client = Client::connect(("127.0.0.1", server.port())).expect("connect");

        if let Some((key, newer)) = in_flight.take() {
            // The killed overwrite is all or nothing, and whichever it was
            // is what the key holds from here on.
            let Response::Value(got) = client.get(&key).expect("victim get") else {
                panic!("cycle {cycle}: key {key}, acked generations ago, is gone after its overwrite was killed");
            };
            assert!(
                got == acked[&key] || got == newer,
                "cycle {cycle}: {key} reads neither its acked value nor the killed put's"
            );
            acked.insert(key, got);
        }
        for (key, value) in &acked {
            assert_eq!(
                client.get(key).expect("verify get"),
                Response::Value(value.clone()),
                "cycle {cycle}: acked key {key} lost across crash + restart"
            );
        }
        if !fresh {
            let Response::Report(scrub) = client.scrub().expect("scrub io") else {
                panic!("scrub must report");
            };
            assert!(scrub.contains("\"parity_mismatches\":0"), "{scrub}");
        }
        if cycle == CYCLES {
            break;
        }

        if fresh {
            for key_id in 0..4 {
                let key = format!("hot-{key_id}");
                assert_eq!(
                    client.put(&key, &value_of(0, key_id)).expect("put io"),
                    Response::Ok
                );
                acked.insert(key, value_of(0, key_id));
            }
            // A healthy overwrite, to learn what one costs.
            let before = handle.lock().writes_done();
            assert_eq!(
                client.put("hot-3", &value_of(1, 3)).expect("put io"),
                Response::Ok
            );
            put_writes = handle.lock().writes_done() - before;
            acked.insert("hot-3".to_string(), value_of(1, 3));
            assert!(put_writes >= CYCLES, "an overwrite is {put_writes} writes");
        }

        // Kill the engine inside an overwrite of a key acknowledged in an
        // earlier generation (generation 0 for the first victim).
        let victim = format!("hot-{}", cycle % 3);
        let newer = value_of(50 + cycle as usize, cycle as usize);
        handle.lock().arm_crash(cycle * put_writes / CYCLES);
        match client.put(&victim, &newer).expect("put io") {
            Response::Ok => {
                acked.insert(victim, newer);
            }
            Response::Err(_) => {
                killed += 1;
                in_flight = Some((victim, newer));
            }
            other => panic!("unexpected victim response: {other:?}"),
        }

        drop(server);
        handle.lock().power_cycle();
    }
    assert_eq!(killed, CYCLES, "every offset lies inside the overwrite");
}
