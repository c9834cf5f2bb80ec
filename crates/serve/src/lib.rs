//! # relm-serve — the ReLM serving front end
//!
//! The paper frames LM validation as a *query workload*: many patterns,
//! many prefixes, repeated audits. Everything below the socket already
//! exists in this workspace — session warmth, coalesced cross-query
//! scoring, sharded frontiers. This crate adds the socket: a
//! hand-rolled, dependency-free serving layer that accepts concurrent
//! TCP connections, admits each request into **one** shared
//! [`relm_core::QueryDriver`], and pumps every live query through the
//! same coalescing rotation — so scoring requests from *different
//! clients* merge into shared model batches.
//!
//! The pieces, bottom to top:
//!
//! * [`protocol`] — length-prefixed JSON-ish frames; match scores cross
//!   the wire as exact IEEE-754 bit patterns, because the serving
//!   contract is **byte-identical results**: a served query answers with
//!   precisely the matches (f64 bits included) a solo `Relm::search`
//!   produces, no matter what else is in flight or when it was admitted.
//! * [`RelmServer`] — the sharded server: an acceptor assigns each
//!   connection to one of [`ServerConfig::shards`] shard threads
//!   (connection affinity) and gives it a reader and a writer thread.
//!   The reader blocks in `read` and sends complete request frames to
//!   its shard's inbox; the writer blocks on its own queue of response
//!   frames. Each shard owns a [`relm_core::QueryDriver`]: it blocks on
//!   its inbox while the driver is idle and otherwise alternates
//!   draining the inbox (admitting queries) with one driver tick, so
//!   nothing waits on a timer. Within a shard, concurrency comes from
//!   the *driver*: every connection's queries interleave through the
//!   same stepwise executor protocol (`step()`/`frontier_contexts()`)
//!   that `run_many` uses. Across shards, the plan memo, scoring cache,
//!   plan store, and worker pool stay shared, so warmth is global.
//!   Backpressure is enforced at admit time (per-connection quota +
//!   global in-flight cap) with typed busy frames.
//! * [`ServeClient`] — a small blocking client (tests, benches, the
//!   `relm_client` bin).
//! * [`loadgen`] — an open-loop load harness (`relm_loadgen` bin):
//!   heavy-tailed scripted arrival traces, pipelining, disconnect
//!   storms, hostile frames, and a p50/p99/p999 + achieved-QPS report.
//!
//! # Example
//!
//! ```
//! use relm_bpe::BpeTokenizer;
//! use relm_core::Relm;
//! use relm_lm::{NGramConfig, NGramLm};
//! use relm_serve::{spawn, QueryRequest, RelmServer, Request, Response, ServeClient, ServerConfig};
//!
//! let corpus = "the cat sat on the mat. the dog sat on the log.";
//! let tokenizer = BpeTokenizer::train(corpus, 60);
//! let model = NGramLm::train(
//!     &tokenizer,
//!     &["the cat sat on the mat", "the dog sat on the log"],
//!     NGramConfig::xl(),
//! );
//! let client = Relm::builder(model, tokenizer).build().unwrap();
//! let handle = spawn(
//!     RelmServer::with_config(client, ServerConfig::new()),
//!     "127.0.0.1:0",
//! )
//! .unwrap();
//!
//! let mut peer = ServeClient::connect(handle.addr()).unwrap();
//! let request = Request::Query(QueryRequest::new(1, "the ((cat)|(dog)) sat", 2));
//! let Response::Matches { matches, .. } = peer.roundtrip(&request).unwrap() else {
//!     panic!("expected matches");
//! };
//! assert_eq!(matches.len(), 2);
//! let report = handle.stop().unwrap();
//! assert_eq!(report.completed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod conn;
pub mod loadgen;
pub mod protocol;
mod server;

pub use client::ServeClient;
pub use loadgen::{LoadReport, LoadgenConfig};
pub use protocol::{
    ProtocolError, QueryRequest, Request, Response, StrategySpec, WireMatch, WireServerStats,
    MAX_FRAME_BYTES,
};
pub use server::{spawn, RelmServer, ServerConfig, ServerHandle, ServerReport, ShardReport};
