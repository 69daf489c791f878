#![warn(missing_docs)]
//! # dcode-server
//!
//! A sharded TCP object server over the workspace's RAID-6 stack — the
//! "dependable cloud storage" deployment the paper's introduction
//! motivates, realized end to end: clients speak a small length-prefixed
//! binary protocol to a front end that routes each object (FNV-1a of its
//! name) to one of N **shards**, each an independent
//! [`ObjectStore`](dcode_array::ObjectStore) over a
//! [`ResilientArray`](dcode_array::ResilientArray) with its own schedule
//! cache, retry policy, CRC read-repair, and hot-spare rebuild.
//!
//! The pieces:
//!
//! * [`protocol`] — the wire format: `u32`-length-prefixed frames,
//!   `PUT`/`GET`/`DELETE`/`SCRUB`/`STAT` requests, typed `BUSY`
//!   backpressure responses;
//! * [`shard`] — one FIFO gate per shard in front of the engine that owns
//!   the store; a handler holding the turn runs its op to completion, and
//!   a shard with `queue_cap` ops admitted refuses the next immediately;
//! * [`server`] — the accept loop and connection handlers, run as
//!   detached jobs on a [`minipool::WorkerPool`] that grows on accept up
//!   to the connection cap; each request runs on its connection's thread;
//! * [`metrics`] — lock-free log-linear latency histograms (buckets at
//!   most 0.78% wide) and op counters, rendered into the `STAT` JSON
//!   document alongside per-shard snapshots (queue depth, schedule-cache
//!   hit rate, degraded reads…);
//! * [`client`] — a blocking protocol client;
//! * [`loadgen`] — an open-loop load generator that records client-side
//!   latency into the same histogram type, with an acknowledged-write
//!   ledger whose read-back verification must come up lossless even with
//!   a fault-injected shard.
//!
//! ## Quick example
//!
//! ```
//! use dcode_server::{
//!     shard_blocks, Client, Response, Server, ServerConfig, ShardBackend, ShardConfig,
//! };
//! use dcode_faults::MemBackend;
//!
//! let config = ServerConfig {
//!     shards: 2,
//!     shard: ShardConfig { block_size: 64, stripes: 8, meta_elements: 4, ..ShardConfig::default() },
//!     ..ServerConfig::default()
//! };
//! let backends: Vec<ShardBackend> = (0..2)
//!     .map(|_| {
//!         Box::new(MemBackend::new(
//!             config.shard.layout.disks(),
//!             shard_blocks(&config.shard),
//!             config.shard.block_size,
//!         )) as ShardBackend
//!     })
//!     .collect();
//! let server = Server::start(&config, backends, true).unwrap();
//! let mut client = Client::connect(("127.0.0.1", server.port())).unwrap();
//! client.put("hello", b"world").unwrap();
//! assert_eq!(client.get("hello").unwrap(), Response::Value(b"world".to_vec()));
//! ```

pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::Client;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use metrics::{Histogram, Percentiles, ServerMetrics};
pub use protocol::{read_frame, write_frame, ProtoError, Request, Response, MAX_FRAME};
pub use server::{Server, ServerConfig};
pub use shard::{
    build_store, shard_blocks, shard_of, Shard, ShardBackend, ShardConfig, ShardEngine, ShardOp,
    ShardSnapshot, ShardStore, StoreEngine,
};
