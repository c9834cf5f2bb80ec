//! [`RelmServer`]: the sharded serving event loop.
//!
//! One **acceptor** plus N **shards**. The acceptor owns the listener
//! and assigns each accepted connection to a shard (connection
//! affinity: a connection's whole pipelined query stream lives on one
//! shard for its lifetime). Each shard runs the four-phase event loop
//! on its own thread:
//!
//! 1. **adopt** — take the connections the acceptor routed here;
//! 2. **read** — pump every connection, decode complete frames, and
//!    **admit** each query request into the shard's [`QueryDriver`]
//!    (mid-flight admission: newcomers join the rotation between
//!    ticks). Admission is where backpressure bites: a connection over
//!    its in-flight quota, or a server at its global in-flight cap,
//!    gets a typed [`Response::Busy`] frame instead of unbounded queue
//!    growth;
//! 3. **drive** — one [`QueryDriver::tick`]: a coalescing tick over the
//!    union of the shard's live scoring frontiers, one bounded step of
//!    every query, and the completion notifications for queries that
//!    finished — which become response frames on their submitters'
//!    write queues (deadline-expired queries become
//!    [`Response::DeadlineExceeded`] frames);
//! 4. **write** — flush write queues; sweep closed connections,
//!    cancelling their in-flight queries.
//!
//! When a pass does none of that, the shard's [`Reactor`] parks it.
//!
//! Shards parallelize *driving*; warmth stays global. Every shard's
//! driver executes through the same [`Relm`] client, so the plan memo,
//! the shared scoring cache, the plan store, and the worker pool are
//! one instance behind all N loops — a plan compiled (or a score
//! memoized) on one shard is warm on every other.
//!
//! Why per-connection determinism survives N shards: scoring is pure
//! and memoized, so neither which shard drives a query, nor which other
//! queries share its coalesced batches, nor what the cache already
//! holds can change any traversal decision — every response carries
//! exactly the match texts and score *bits* a solo `Relm::search` of
//! the same query produces (`tests/serve.rs`, `tests/serve_sharded.rs`).

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relm_core::{PlanSource, QueryId, Relm};
use relm_lm::LanguageModel;

use crate::conn::Connection;
use crate::protocol::{
    error_response, Request, Response, WireMatch, WireServerStats, MAX_FRAME_BYTES,
};
use crate::reactor::{PollReactor, Reactor};

/// Tuning knobs for a [`RelmServer`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Hard cap on one frame's payload bytes.
    pub max_frame_bytes: usize,
    /// How long the reactor parks on an idle pass.
    pub park: Duration,
    /// Exit the serve loop after this many completed queries (`None` =
    /// serve until the shutdown flag flips). Scripted smoke tests and
    /// benches use it for deterministic shutdown.
    pub max_requests: Option<u64>,
    /// Warm-boot from the client's configured plan store before
    /// accepting connections: restore every compatible compiled plan
    /// into the plan memo and import the scoring-cache snapshot (if
    /// its generation and tokenizer still match). A no-op when the
    /// client has no store configured — best-effort, never fatal.
    pub preload_store: bool,
    /// Flush the shared scoring cache to the client's plan store when
    /// the serve loop exits, so the next replica boots score-warm.
    /// (Compiled plans need no flush: they are written back at compile
    /// time.) Best-effort, never fatal.
    pub flush_store: bool,
    /// Driver shards: independent event loops, each with its own
    /// reactor, connection table, and [`QueryDriver`]. Connections get
    /// shard affinity at accept time. Clamped to at least 1.
    pub shards: usize,
    /// Global cap on queries in flight across all shards; admissions
    /// beyond it answer [`Response::Busy`].
    pub max_inflight: usize,
    /// Per-connection cap on queries in flight; a connection pipelining
    /// past it answers [`Response::Busy`] (its admitted queries are
    /// unaffected).
    pub max_inflight_per_conn: usize,
}

impl ServerConfig {
    /// The default knobs (1 MiB frames, 500µs park, one shard, 1024 in
    /// flight globally / 64 per connection).
    pub fn new() -> Self {
        ServerConfig {
            max_frame_bytes: MAX_FRAME_BYTES,
            park: Duration::from_micros(500),
            max_requests: None,
            preload_store: false,
            flush_store: false,
            shards: 1,
            max_inflight: 1024,
            max_inflight_per_conn: 64,
        }
    }

    /// Set the frame-size cap.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Set the idle-pass park interval.
    #[must_use]
    pub fn with_park(mut self, park: Duration) -> Self {
        self.park = park;
        self
    }

    /// Exit after `n` completed queries (deterministic smoke shutdown).
    #[must_use]
    pub fn with_max_requests(mut self, n: u64) -> Self {
        self.max_requests = Some(n);
        self
    }

    /// Warm-boot from the client's plan store before serving.
    #[must_use]
    pub fn with_preload_store(mut self, preload: bool) -> Self {
        self.preload_store = preload;
        self
    }

    /// Flush the scoring cache to the client's plan store on shutdown.
    #[must_use]
    pub fn with_flush_store(mut self, flush: bool) -> Self {
        self.flush_store = flush;
        self
    }

    /// Set the driver-shard count (clamped to at least 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the global in-flight query cap.
    #[must_use]
    pub fn with_max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap;
        self
    }

    /// Set the per-connection in-flight query quota.
    #[must_use]
    pub fn with_max_inflight_per_conn(mut self, quota: usize) -> Self {
        self.max_inflight_per_conn = quota;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// One shard's slice of the work, inside [`ServerReport::shards`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct ShardReport {
    /// This shard's index (0-based).
    pub shard: usize,
    /// Connections the acceptor assigned here.
    pub connections: u64,
    /// Queries admitted to this shard's driver.
    pub admitted: u64,
    /// Queries completed and answered.
    pub completed: u64,
    /// Queries cancelled because their connection closed mid-flight.
    pub cancelled: u64,
    /// Queries stopped because their deadline elapsed.
    pub expired: u64,
    /// Requests rejected (bad pattern, malformed frame payload).
    pub rejected: u64,
    /// Admissions refused by backpressure (per-connection quota or
    /// global in-flight cap).
    pub busy_rejections: u64,
    /// Plans this shard's admissions restored from the warm-artifact
    /// store (memo misses answered by disk instead of compilation).
    pub store_hits: u64,
    /// Idle passes parked by this shard's reactor.
    pub parks: u64,
    /// Mean contexts per model batch in this shard's engine.
    pub mean_batch_fill: f64,
    /// This shard's model batches that mixed two or more queries'
    /// contexts.
    pub cross_query_batches: u64,
    /// Model batches this shard's engine issued (the denominator of
    /// [`ShardReport::mean_batch_fill`]).
    pub batches: u64,
    /// Contexts across those batches (the numerator).
    pub batched_contexts: u64,
    /// Coalescing ticks run / skipped by the adaptive quantum.
    pub ticks_run: u64,
    /// See [`ShardReport::ticks_run`].
    pub ticks_skipped: u64,
}

/// What a serve loop did, returned when it exits: server-wide totals
/// plus one [`ShardReport`] per shard.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct ServerReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Queries admitted across all shards.
    pub admitted: u64,
    /// Queries completed and answered.
    pub completed: u64,
    /// Queries cancelled because their connection closed mid-flight.
    pub cancelled: u64,
    /// Queries stopped because their deadline elapsed.
    pub expired: u64,
    /// Requests rejected (bad pattern, malformed frame payload).
    pub rejected: u64,
    /// Admissions refused by backpressure (per-connection quota or
    /// global in-flight cap).
    pub busy_rejections: u64,
    /// Plan-store hits attributed to admissions (across shards).
    pub store_hits: u64,
    /// Idle passes parked (acceptor + every shard reactor).
    pub parks: u64,
    /// Mean contexts per model batch, weighted across shard engines.
    pub mean_batch_fill: f64,
    /// Model batches that mixed two or more queries' contexts — the
    /// cross-connection coalescing the server exists to produce.
    pub cross_query_batches: u64,
    /// Coalescing ticks run / skipped by the adaptive quantum (summed).
    pub ticks_run: u64,
    /// See [`ServerReport::ticks_run`].
    pub ticks_skipped: u64,
    /// Compiled plans restored from the warm-artifact store at boot
    /// ([`ServerConfig::preload_store`]).
    pub plans_preloaded: u64,
    /// Scoring-cache distributions imported from the store's snapshot
    /// at boot ([`ServerConfig::preload_store`]).
    pub cache_entries_preloaded: u64,
    /// Bytes flushed to the store on shutdown
    /// ([`ServerConfig::flush_store`]).
    pub store_flush_bytes: u64,
    /// Per-shard sections, indexed by shard id.
    pub shards: Vec<ShardReport>,
}

/// Counters every shard (and the acceptor) shares. Relaxed ordering
/// throughout: these are monotone gauges and tallies, never used to
/// publish data between threads.
#[derive(Default)]
struct SharedCounters {
    accepted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    busy_rejections: AtomicU64,
    /// Queries in flight across all shards — the global-cap gauge.
    in_flight: AtomicUsize,
    /// The acceptor's stop signal to the shards (shutdown flag flipped,
    /// request cap reached, or a fatal listener error).
    stop: AtomicBool,
}

/// Reserve one slot of the global in-flight budget, failing (without
/// any change) when the cap is already met.
fn try_reserve(gauge: &AtomicUsize, cap: usize) -> bool {
    gauge
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok()
}

/// A ReLM serving front end over one [`Relm`] client. See the module
/// docs for the loop structure.
#[derive(Debug)]
pub struct RelmServer<M> {
    client: Relm<M>,
    config: ServerConfig,
}

impl<M: LanguageModel> RelmServer<M> {
    /// A server over `client` with default knobs.
    pub fn new(client: Relm<M>) -> Self {
        RelmServer {
            client,
            config: ServerConfig::default(),
        }
    }

    /// A server with explicit knobs.
    pub fn with_config(client: Relm<M>, config: ServerConfig) -> Self {
        RelmServer { client, config }
    }

    /// The client this server executes through.
    pub fn client(&self) -> &Relm<M> {
        &self.client
    }

    /// The server's knobs.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Run the server on `listener` until `shutdown` flips (or
    /// `max_requests` is reached): the calling thread becomes the
    /// acceptor, and [`ServerConfig::shards`] shard loops run on scoped
    /// threads. Blocks the calling thread; spawn it (or use [`spawn`])
    /// to serve in the background.
    ///
    /// # Errors
    ///
    /// Listener setup failures (`set_nonblocking`) and fatal `accept`
    /// errors. Per-connection IO errors close that connection only.
    pub fn serve(
        &self,
        listener: TcpListener,
        shutdown: &AtomicBool,
    ) -> std::io::Result<ServerReport> {
        listener.set_nonblocking(true)?;
        let mut report = ServerReport::default();
        // Warm boot once, before any shard runs: best-effort — a
        // replica with a missing or corrupt store must still come up
        // cold and serve.
        if self.config.preload_store {
            report.plans_preloaded = self.client.preload_plans().unwrap_or(0) as u64;
            report.cache_entries_preloaded = self.client.load_scoring_cache().unwrap_or(0) as u64;
        }

        let shard_count = self.config.shards.max(1);
        let shared = SharedCounters::default();
        // One mailbox per shard: the acceptor pushes `(token, stream)`,
        // the shard loop adopts. A Mutex'd Vec, not a channel — both
        // sides are non-blocking and the critical section is a push or
        // a take.
        let inboxes: Vec<Mutex<Vec<(u64, TcpStream)>>> =
            (0..shard_count).map(|_| Mutex::new(Vec::new())).collect();

        let mut acceptor_parks = 0u64;
        let shard_reports = std::thread::scope(|scope| -> std::io::Result<Vec<ShardReport>> {
            let shared = &shared;
            let handles: Vec<_> = (0..shard_count)
                .map(|shard| {
                    let inbox = &inboxes[shard];
                    scope.spawn(move || self.shard_loop(shard, shard_count, inbox, shared))
                })
                .collect();

            // The acceptor loop. Its only jobs: accept, assign a shard
            // (round-robin over the connection token — deterministic
            // affinity), and watch the exit conditions.
            let accept_result: std::io::Result<()> = 'accept: loop {
                if shutdown.load(Ordering::Relaxed) {
                    break Ok(());
                }
                if let Some(cap) = self.config.max_requests {
                    if shared.completed.load(Ordering::Relaxed) >= cap {
                        break Ok(());
                    }
                }
                let mut progressed = false;
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let token = shared.accepted.fetch_add(1, Ordering::Relaxed);
                            let shard = (token % shard_count as u64) as usize;
                            if let Ok(mut inbox) = inboxes[shard].lock() {
                                inbox.push((token, stream));
                            }
                            progressed = true;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => break 'accept Err(e),
                    }
                }
                if !progressed {
                    std::thread::sleep(self.config.park);
                    acceptor_parks += 1;
                }
            };

            shared.stop.store(true, Ordering::Relaxed);
            let mut reports = Vec::with_capacity(shard_count);
            for handle in handles {
                let report = handle
                    .join()
                    .map_err(|_| std::io::Error::other("shard thread panicked"))?;
                reports.push(report);
            }
            accept_result.map(|()| reports)
        })?;

        report.accepted = shared.accepted.load(Ordering::Relaxed);
        report.admitted = shared.admitted.load(Ordering::Relaxed);
        report.completed = shared.completed.load(Ordering::Relaxed);
        report.cancelled = shared.cancelled.load(Ordering::Relaxed);
        report.expired = shared.expired.load(Ordering::Relaxed);
        report.busy_rejections = shared.busy_rejections.load(Ordering::Relaxed);
        report.parks = acceptor_parks;
        let (mut batches, mut contexts) = (0u64, 0u64);
        for shard in &shard_reports {
            report.rejected += shard.rejected;
            report.store_hits += shard.store_hits;
            report.parks += shard.parks;
            report.cross_query_batches += shard.cross_query_batches;
            report.ticks_run += shard.ticks_run;
            report.ticks_skipped += shard.ticks_skipped;
            batches += shard.batches;
            contexts += shard.batched_contexts;
        }
        // Batch fill weighted by batches, not a mean of shard means —
        // a near-idle shard's handful of batches must not dilute it.
        report.mean_batch_fill = if batches == 0 {
            0.0
        } else {
            contexts as f64 / batches as f64
        };
        report.shards = shard_reports;
        if self.config.flush_store {
            // Plans were written back at compile time, but a re-persist
            // captures the walk tables materialized since; the cache
            // snapshot makes the next boot score-warm.
            report.store_flush_bytes = self.client.persist_plans().unwrap_or(0)
                + self.client.save_scoring_cache().unwrap_or(0);
        }
        Ok(report)
    }

    /// One shard: the four-phase event loop over the connections the
    /// acceptor assigned here, with its own reactor and driver. Runs
    /// until the shared stop flag flips, then drains queued responses.
    fn shard_loop(
        &self,
        shard: usize,
        shard_count: usize,
        inbox: &Mutex<Vec<(u64, TcpStream)>>,
        shared: &SharedCounters,
    ) -> ShardReport {
        let mut reactor = PollReactor::new();
        let mut driver = self.client.driver();
        let mut conns: HashMap<u64, Connection> = HashMap::new();
        // In-flight query -> (connection token, request id to echo).
        let mut routes: HashMap<QueryId, (u64, u64)> = HashMap::new();
        let mut report = ShardReport {
            shard,
            ..ShardReport::default()
        };

        loop {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            let mut progressed = false;

            // Phase 1: adopt newly assigned connections.
            let adopted: Vec<(u64, TcpStream)> = match inbox.lock() {
                Ok(mut inbox) => std::mem::take(&mut *inbox),
                Err(_) => Vec::new(),
            };
            for (token, stream) in adopted {
                if let Ok(conn) = Connection::new(stream) {
                    conns.insert(token, conn);
                    report.connections += 1;
                    progressed = true;
                }
            }

            // Phase 2: read + admit (quotas first — rejecting is
            // cheaper than planning).
            for (&token, conn) in conns.iter_mut() {
                if conn.read_closed {
                    continue;
                }
                for frame in conn.pump_read(self.config.max_frame_bytes) {
                    progressed = true;
                    match Request::decode(&frame) {
                        Ok(Request::Stats) => {
                            let scoring = driver.scoring();
                            conn.queue_frame(
                                &Response::Stats(WireServerStats {
                                    accepted: shared.accepted.load(Ordering::Relaxed),
                                    admitted: shared.admitted.load(Ordering::Relaxed),
                                    completed: shared.completed.load(Ordering::Relaxed),
                                    cancelled: shared.cancelled.load(Ordering::Relaxed),
                                    expired: shared.expired.load(Ordering::Relaxed),
                                    busy_rejections: shared.busy_rejections.load(Ordering::Relaxed),
                                    in_flight: shared.in_flight.load(Ordering::Relaxed) as u64,
                                    mean_batch_fill: scoring.mean_batch_size(),
                                    cross_query_batches: scoring.cross_query_batches,
                                    shard: shard as u64,
                                    shards: shard_count as u64,
                                })
                                .encode(),
                            );
                        }
                        Ok(Request::Query(request)) => {
                            if conn.inflight >= self.config.max_inflight_per_conn {
                                report.busy_rejections += 1;
                                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                                conn.queue_frame(
                                    &Response::Busy {
                                        id: request.id,
                                        message: format!(
                                            "connection quota: {} queries already in flight",
                                            conn.inflight
                                        ),
                                    }
                                    .encode(),
                                );
                                continue;
                            }
                            if !try_reserve(&shared.in_flight, self.config.max_inflight) {
                                report.busy_rejections += 1;
                                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                                conn.queue_frame(
                                    &Response::Busy {
                                        id: request.id,
                                        message: format!(
                                            "server at capacity: {} queries in flight",
                                            self.config.max_inflight
                                        ),
                                    }
                                    .encode(),
                                );
                                continue;
                            }
                            let deadline = request
                                .deadline_ms
                                .map(|ms| Instant::now() + Duration::from_millis(ms));
                            let query = request.to_search_query();
                            let admitted = self.client.session().plan_traced(&query).and_then(
                                |(plan, source)| {
                                    if source == PlanSource::Store {
                                        report.store_hits += 1;
                                    }
                                    driver.admit_plan_with_deadline(
                                        &plan,
                                        request.max_results,
                                        deadline,
                                    )
                                },
                            );
                            match admitted {
                                Ok(id) => {
                                    routes.insert(id, (token, request.id));
                                    conn.inflight += 1;
                                    report.admitted += 1;
                                    shared.admitted.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(error) => {
                                    // Release the reserved global slot.
                                    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                                    report.rejected += 1;
                                    conn.queue_frame(&error_response(request.id, &error).encode());
                                }
                            }
                        }
                        Err(error) => {
                            report.rejected += 1;
                            conn.queue_frame(
                                &Response::Error {
                                    id: 0,
                                    message: error.to_string(),
                                }
                                .encode(),
                            );
                        }
                    }
                }
            }

            // Phase 3: drive. One rotation: coalescing tick over every
            // live frontier, one bounded step per query, completions out.
            if !driver.is_idle() {
                progressed = true;
                for completion in driver.tick() {
                    let Some((token, request_id)) = routes.remove(&completion.id) else {
                        continue;
                    };
                    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                    if completion.expired {
                        report.expired += 1;
                        shared.expired.fetch_add(1, Ordering::Relaxed);
                    } else {
                        report.completed += 1;
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.inflight = conn.inflight.saturating_sub(1);
                        if conn.write_dead {
                            continue;
                        }
                        if completion.expired {
                            conn.queue_frame(
                                &Response::DeadlineExceeded { id: request_id }.encode(),
                            );
                            continue;
                        }
                        let matches = completion
                            .outcome
                            .matches
                            .iter()
                            .map(|m| WireMatch {
                                text: m.text.clone(),
                                score_bits: m.log_prob.to_bits(),
                                canonical: m.canonical,
                                num_tokens: m.tokens.len(),
                            })
                            .collect();
                        conn.queue_frame(
                            &Response::Matches {
                                id: request_id,
                                matches,
                            }
                            .encode(),
                        );
                    }
                }
            }

            // Phase 4: write; cancel the in-flight queries of
            // connections whose read side closed (the protocol
            // contract: a peer that stops reading requests-in abandons
            // its outstanding queries, so one disappearing auditor
            // cannot pin server work forever — responses already queued
            // still drain); sweep connections once defunct.
            for conn in conns.values_mut() {
                if !conn.write_dead && conn.wants_write() {
                    progressed |= conn.pump_write();
                }
            }
            for (&token, conn) in conns.iter() {
                if !conn.read_closed {
                    continue;
                }
                // `routes.remove` makes this idempotent across passes.
                let orphaned: Vec<QueryId> = routes
                    .iter()
                    .filter(|(_, &(t, _))| t == token)
                    .map(|(&id, _)| id)
                    .collect();
                for id in orphaned {
                    routes.remove(&id);
                    if driver.cancel(id) {
                        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                        report.cancelled += 1;
                        shared.cancelled.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    }
                }
            }
            let before = conns.len();
            conns.retain(|_, conn| !conn.defunct());
            progressed |= conns.len() < before;

            if !progressed {
                reactor.park(self.config.park);
            }
        }

        // Final drain: the loop can exit (shutdown flag, request cap)
        // with response frames still queued — a pipelined client that
        // was slow to read would otherwise lose answers the server
        // counted as completed. Bounded: flush until every queue is
        // empty or dead, or the deadline passes.
        let drain_deadline = Instant::now() + Duration::from_millis(250);
        while conns
            .values()
            .any(|conn| !conn.write_dead && conn.wants_write())
        {
            let mut progressed = false;
            for conn in conns.values_mut() {
                if !conn.write_dead && conn.wants_write() {
                    progressed |= conn.pump_write();
                }
            }
            if Instant::now() >= drain_deadline {
                break;
            }
            if !progressed {
                reactor.park(self.config.park);
            }
        }

        let scoring = driver.scoring();
        report.mean_batch_fill = scoring.mean_batch_size();
        report.cross_query_batches = scoring.cross_query_batches;
        report.batches = scoring.batches;
        report.batched_contexts = scoring.batched_contexts;
        let (ticks_run, ticks_skipped) = driver.tick_counts();
        report.ticks_run = ticks_run;
        report.ticks_skipped = ticks_skipped;
        report.parks = reactor.parks();
        report
    }
}

/// A running background server: its address plus the handle to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<std::io::Result<ServerReport>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Flip the shutdown flag and join the serve thread.
    ///
    /// # Errors
    ///
    /// The serve loop's IO error, if it exited with one — or a synthetic
    /// one if the serve thread itself panicked.
    pub fn stop(self) -> std::io::Result<ServerReport> {
        self.shutdown.store(true, Ordering::Relaxed);
        self.join
            .join()
            .map_err(|_| std::io::Error::other("serve thread panicked"))?
    }
}

/// Bind `addr` and serve `server` on a background thread. The common
/// test/bench entry: `spawn(server, "127.0.0.1:0")` picks a free port,
/// [`ServerHandle::addr`] says which.
///
/// # Errors
///
/// Bind failures.
pub fn spawn<M: LanguageModel + 'static>(
    server: RelmServer<M>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let join = std::thread::spawn(move || server.serve(listener, &flag));
    Ok(ServerHandle {
        addr,
        shutdown,
        join,
    })
}
