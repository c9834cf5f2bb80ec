//! [`RelmServer`]: the sharded serving loop.
//!
//! One **acceptor**, N **shards**, and a **reader** and a **writer** per
//! connection; every thread blocks until it has work, so nothing waits
//! on a timer. The acceptor blocks in `accept` and assigns each
//! connection to one shard for its lifetime (connection affinity). The
//! reader blocks in `read` and sends each complete frame to the shard's
//! inbox; the writer blocks on its own channel of response frames.
//!
//! A shard is the only thread that touches its [`QueryDriver`]. Idle, it
//! blocks on its inbox; with queries live it drains the inbox between
//! [`QueryDriver::tick`]s, so deadlines need no timer. Draining admits
//! queries mid-flight — where backpressure bites: a connection over its
//! quota, or a server at its global cap, gets a typed [`Response::Busy`]
//! — and cancels the in-flight queries of a connection whose reader
//! ended. A tick coalesces the live frontiers into shared batches, steps
//! every query once, and sends completions to their writers
//! ([`Response::DeadlineExceeded`] for expired ones). Shards never write
//! to a socket, so a client that stops reading stalls nobody else.
//!
//! To stop, [`ServerHandle::stop`] (or the shard that reaches
//! [`ServerConfig::with_max_requests`]) sets the stop flag and wakes the
//! acceptor with one connection to its own address; the acceptor stops
//! every shard, and a stopped shard drops its writers' channels. Each
//! writer flushes (giving up on a socket that takes nothing for 250 ms)
//! and shuts its socket down, which ends the blocked reader; the
//! acceptor joins both before the server's own thread exits.
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
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use relm_core::{PlanSource, QueryDriver, QueryId, Relm};
use relm_lm::LanguageModel;

use crate::protocol::{
    decode_frame, encode_frame, error_response, Request, Response, WireMatch, WireServerStats,
    MAX_FRAME_BYTES,
};

/// How long a stopping server's writer waits on a socket that accepts
/// nothing before it gives up the rest of its queue.
const DRAIN_BOUND: Duration = Duration::from_millis(250);

/// Bytes a reader asks the socket for per `read` (frames reassemble
/// across reads, so this bounds only syscall granularity).
const READ_CHUNK: usize = 4096;

/// Tuning knobs for a [`RelmServer`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Exit the serve loop after this many completed queries (`None` =
    /// serve until the shutdown flag flips). Scripted smoke tests and
    /// benches use it for deterministic shutdown.
    pub(crate) max_requests: Option<u64>,
    /// Warm-boot from the client's configured plan store before
    /// accepting connections: restore every compatible compiled plan
    /// into the plan memo and import the scoring-cache snapshot (if
    /// its generation and tokenizer still match). A no-op when the
    /// client has no store configured — best-effort, never fatal.
    pub(crate) preload_store: bool,
    /// Flush the shared scoring cache to the client's plan store when
    /// the serve loop exits, so the next replica boots score-warm.
    /// (Compiled plans need no flush: they are written back at compile
    /// time.) Best-effort, never fatal.
    pub(crate) flush_store: bool,
    /// Driver shards: independent threads, each with its own
    /// connection table and [`QueryDriver`]. Connections get
    /// shard affinity at accept time. Clamped to at least 1.
    pub shards: usize,
    /// Global cap on queries in flight across all shards; admissions
    /// beyond it answer [`Response::Busy`].
    pub(crate) max_inflight: usize,
    /// Per-connection cap on queries in flight; a connection pipelining
    /// past it answers [`Response::Busy`] (its admitted queries are
    /// unaffected).
    pub(crate) max_inflight_per_conn: usize,
}

impl ServerConfig {
    /// The default knobs (1 MiB frames, one shard, 1024 in flight
    /// globally / 64 per connection).
    pub fn new() -> Self {
        ServerConfig {
            max_requests: None,
            preload_store: false,
            flush_store: false,
            shards: 1,
            max_inflight: 1024,
            max_inflight_per_conn: 64,
        }
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
// lint: allow(dead_pub, "the element type of ServerReport::shards, which relm_server's per-shard report lines and tests/serve_sharded.rs read")
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
    /// Always 0 since the serve loop stopped parking on a timer; the
    /// frozen benchmark still reads it, and the next bench PR drops it
    /// with its `server.parks` row.
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
    /// ([`ServerConfig::with_preload_store`]).
    pub plans_preloaded: u64,
    /// Scoring-cache distributions imported from the store's snapshot
    /// at boot ([`ServerConfig::with_preload_store`]).
    pub cache_entries_preloaded: u64,
    /// Bytes flushed to the store on shutdown
    /// ([`ServerConfig::with_flush_store`]).
    pub store_flush_bytes: u64,
    /// Per-shard sections, indexed by shard id.
    pub shards: Vec<ShardReport>,
}

/// Counters every shard (and the acceptor) shares. Relaxed ordering
/// throughout: these are monotone gauges, tallies and a stop flag,
/// never used to publish data between threads (the inboxes do that).
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
    /// Set once the server is stopping: by the acceptor (shutdown flag
    /// flipped, or a fatal listener error) or by the shard whose
    /// completion reaches the request cap.
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
/// docs for the thread structure.
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
    /// `max_requests` is reached): the calling thread runs shard 0, and
    /// the acceptor, the other [`ServerConfig::shards`] and every
    /// connection's reader and writer run on scoped threads. Blocks the
    /// calling thread; spawn it (or use [`spawn`]) to serve in the
    /// background.
    ///
    /// The acceptor blocks in `accept` and reads `shutdown` once per
    /// accepted connection, so a flip takes effect at the next connect;
    /// [`ServerHandle::stop`] flips the flag and connects once itself.
    ///
    /// # Errors
    ///
    /// Listener errors (`local_addr`, a fatal `accept`). Per-connection
    /// IO errors close that connection only.
    pub fn serve(
        &self,
        listener: TcpListener,
        shutdown: &AtomicBool,
    ) -> std::io::Result<ServerReport> {
        let addr = listener.local_addr()?;
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
        let shard_reports = std::thread::scope(|scope| -> std::io::Result<Vec<ShardReport>> {
            let shared = &shared;
            let run_shard = move |shard: usize, events: Receiver<Event>| {
                let report = ShardReport {
                    shard,
                    ..ShardReport::default()
                };
                Shard {
                    server: self,
                    shared,
                    shard_count,
                    addr,
                    driver: self.client.driver(),
                    peers: HashMap::new(),
                    routes: HashMap::new(),
                    report,
                }
                .run(&events)
            };
            let (inboxes, mut events): (Vec<Sender<Event>>, Vec<Receiver<Event>>) =
                (0..shard_count).map(|_| mpsc::channel()).unzip();
            let first = events.remove(0);
            let others: Vec<_> = (1..)
                .zip(events)
                .map(|(shard, events)| scope.spawn(move || run_shard(shard, events)))
                .collect();

            // The acceptor: accept, assign a shard (round-robin over the
            // connection token — deterministic affinity), start the
            // connection's reader and writer; on stop, stop every shard,
            // then join every connection thread. Joined, not left to the
            // scope: the scope waits only for a thread's closure, and a
            // thread still exiting when this server's own thread does
            // would race it for the head of glibc's free-arena list.
            let acceptor = scope.spawn(move || -> std::io::Result<()> {
                let mut connections = Vec::new();
                let mut panicked = false;
                let mut join_finished = |connections: &mut Vec<ScopedJoinHandle<'_, ()>>,
                                         all: bool| {
                    let (done, running) = std::mem::take(connections)
                        .into_iter()
                        .partition(|thread| all || thread.is_finished());
                    *connections = running;
                    for thread in done {
                        panicked |= thread.join().is_err();
                    }
                };
                let accept_result = loop {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => break Err(e),
                    };
                    join_finished(&mut connections, false);
                    // The stop wake-up, or a client that raced it.
                    if shutdown.load(Ordering::Relaxed) || shared.stop.load(Ordering::Relaxed) {
                        break Ok(());
                    }
                    let token = shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let inbox = &inboxes[(token % shard_count as u64) as usize];
                    // Responses are single small frames; Nagle only adds latency.
                    let _ = stream.set_nodelay(true);
                    let Ok(reader) = stream.try_clone() else {
                        continue;
                    };
                    let (out, frames) = mpsc::channel();
                    let Ok(writer) = std::thread::Builder::new()
                        .spawn_scoped(scope, move || write_frames(stream, &frames, &shared.stop))
                    else {
                        continue;
                    };
                    connections.push(writer);
                    if inbox.send(Event::Open { token, out }).is_err() {
                        continue;
                    }
                    let events = inbox.clone();
                    let reader = std::thread::Builder::new().spawn_scoped(scope, move || {
                        read_frames(reader, token, &events);
                    });
                    match reader {
                        Ok(reader) => connections.push(reader),
                        Err(_) => {
                            let _ = inbox.send(Event::Closed { token });
                        }
                    }
                };
                shared.stop.store(true, Ordering::Relaxed);
                for inbox in &inboxes {
                    let _ = inbox.send(Event::Stop);
                }
                join_finished(&mut connections, true);
                if panicked {
                    return Err(std::io::Error::other("connection thread panicked"));
                }
                accept_result
            });

            // Shard 0 runs here, on the thread that allocates first and
            // exits last (it joins the acceptor, which joined every
            // connection thread): glibc hands a new thread the most
            // recently released malloc arena, so a server started after
            // this one reuses the memory its busiest thread left free
            // instead of growing a second arena beside it.
            let mut reports = vec![run_shard(0, first)];
            for handle in others {
                let report = handle
                    .join()
                    .map_err(|_| std::io::Error::other("shard thread panicked"))?;
                reports.push(report);
            }
            let accept_result = acceptor
                .join()
                .map_err(|_| std::io::Error::other("acceptor thread panicked"))?;
            accept_result.map(|()| reports)
        })?;

        report.accepted = shared.accepted.load(Ordering::Relaxed);
        report.admitted = shared.admitted.load(Ordering::Relaxed);
        report.completed = shared.completed.load(Ordering::Relaxed);
        report.cancelled = shared.cancelled.load(Ordering::Relaxed);
        report.expired = shared.expired.load(Ordering::Relaxed);
        report.busy_rejections = shared.busy_rejections.load(Ordering::Relaxed);
        let (mut batches, mut contexts) = (0u64, 0u64);
        for shard in &shard_reports {
            report.rejected += shard.rejected;
            report.store_hits += shard.store_hits;
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
}

/// What reaches a shard's inbox.
enum Event {
    /// The acceptor assigned a connection here; `out` feeds its writer.
    Open { token: u64, out: Sender<Vec<u8>> },
    /// One complete request frame from a connection's reader.
    Frame { token: u64, frame: Vec<u8> },
    /// A connection's reader ended: EOF, a read error, or an oversized
    /// frame (the stream cannot resynchronize after one).
    Closed { token: u64 },
    /// The server is stopping.
    Stop,
}

/// One connection, as its shard sees it.
struct Peer {
    /// Response payloads for the connection's writer.
    out: Sender<Vec<u8>>,
    /// Queries in flight — the gauge the per-connection quota is
    /// enforced against.
    inflight: usize,
}

/// One shard: its driver and the connections assigned to it. Only the
/// shard's own thread touches it.
struct Shard<'a, M: LanguageModel> {
    server: &'a RelmServer<M>,
    shared: &'a SharedCounters,
    shard_count: usize,
    /// The listener's address, to wake the acceptor at the request cap.
    addr: SocketAddr,
    driver: QueryDriver<'a, M>,
    peers: HashMap<u64, Peer>,
    /// In-flight query -> (connection token, request id to echo).
    routes: HashMap<QueryId, (u64, u64)>,
    report: ShardReport,
}

impl<M: LanguageModel> Shard<'_, M> {
    /// Serve inbox events until the server stops. Dropping the shard
    /// afterwards closes every writer's channel, so queued frames flush.
    fn run(mut self, events: &Receiver<Event>) -> ShardReport {
        'serve: while !self.shared.stop.load(Ordering::Relaxed) {
            // Block only while nothing is in flight: a shard with live
            // queries must keep ticking (which is also how it notices
            // deadlines).
            if self.driver.is_idle() {
                match events.recv() {
                    Ok(event) => {
                        if !self.handle(event) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            // A busy shard can keep its own readers off the CPU: give
            // them a turn before each tick, so what already arrived is
            // admitted now and shares this tick's batch.
            std::thread::yield_now();
            while let Ok(event) = events.try_recv() {
                if !self.handle(event) || self.shared.stop.load(Ordering::Relaxed) {
                    break 'serve;
                }
            }
            if !self.driver.is_idle() {
                self.tick();
            }
        }

        let scoring = self.driver.scoring();
        self.report.mean_batch_fill = scoring.mean_batch_size();
        self.report.cross_query_batches = scoring.cross_query_batches;
        self.report.batches = scoring.batches;
        self.report.batched_contexts = scoring.batched_contexts;
        let (ticks_run, ticks_skipped) = self.driver.tick_counts();
        self.report.ticks_run = ticks_run;
        self.report.ticks_skipped = ticks_skipped;
        self.report
    }

    /// Apply one inbox event; `false` once the server is stopping.
    fn handle(&mut self, event: Event) -> bool {
        match event {
            Event::Open { token, out } => {
                self.peers.insert(token, Peer { out, inflight: 0 });
                self.report.connections += 1;
            }
            Event::Frame { token, frame } => self.request(token, &frame),
            Event::Closed { token } => self.close(token),
            Event::Stop => return false,
        }
        true
    }

    /// Queue `response` on connection `token`'s writer. A writer that
    /// already exited (its socket failed) drops it.
    fn answer(&self, token: u64, response: &Response) {
        if let Some(peer) = self.peers.get(&token) {
            let _ = peer.out.send(response.encode());
        }
    }

    fn busy(&mut self, token: u64, id: u64, message: String) {
        self.report.busy_rejections += 1;
        self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
        self.answer(token, &Response::Busy { id, message });
    }

    /// Answer or admit one request frame (quotas first — rejecting is
    /// cheaper than planning).
    fn request(&mut self, token: u64, frame: &[u8]) {
        let config = &self.server.config;
        let request = match Request::decode(frame) {
            Ok(Request::Query(request)) => request,
            Ok(Request::Stats) => {
                let scoring = self.driver.scoring();
                let shared = self.shared;
                let stats = Response::Stats(WireServerStats {
                    accepted: shared.accepted.load(Ordering::Relaxed),
                    admitted: shared.admitted.load(Ordering::Relaxed),
                    completed: shared.completed.load(Ordering::Relaxed),
                    cancelled: shared.cancelled.load(Ordering::Relaxed),
                    expired: shared.expired.load(Ordering::Relaxed),
                    busy_rejections: shared.busy_rejections.load(Ordering::Relaxed),
                    in_flight: shared.in_flight.load(Ordering::Relaxed) as u64,
                    mean_batch_fill: scoring.mean_batch_size(),
                    cross_query_batches: scoring.cross_query_batches,
                    shard: self.report.shard as u64,
                    shards: self.shard_count as u64,
                });
                self.answer(token, &stats);
                return;
            }
            Err(error) => {
                self.report.rejected += 1;
                let message = error.to_string();
                self.answer(token, &Response::Error { id: 0, message });
                return;
            }
        };
        let inflight = self.peers.get(&token).map_or(0, |peer| peer.inflight);
        if inflight >= config.max_inflight_per_conn {
            let message = format!("connection quota: {inflight} queries already in flight");
            return self.busy(token, request.id, message);
        }
        if !try_reserve(&self.shared.in_flight, config.max_inflight) {
            let message = format!(
                "server at capacity: {} queries in flight",
                config.max_inflight
            );
            return self.busy(token, request.id, message);
        }
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let query = request.to_search_query();
        let admitted = self
            .server
            .client
            .plan_traced(&query)
            .and_then(|(plan, source)| {
                if source == PlanSource::Store {
                    self.report.store_hits += 1;
                }
                self.driver
                    .admit_plan_with_deadline(&plan, request.max_results, deadline)
            });
        match admitted {
            Ok(id) => {
                self.routes.insert(id, (token, request.id));
                if let Some(peer) = self.peers.get_mut(&token) {
                    peer.inflight += 1;
                }
                self.report.admitted += 1;
                self.shared.admitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(error) => {
                // Release the reserved global slot.
                self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                self.report.rejected += 1;
                self.answer(token, &error_response(request.id, &error));
            }
        }
    }

    /// One driver tick; completions go to their submitters' writers.
    fn tick(&mut self) {
        for completion in self.driver.tick() {
            let Some((token, request_id)) = self.routes.remove(&completion.id) else {
                continue;
            };
            self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            let response = if completion.expired {
                self.report.expired += 1;
                self.shared.expired.fetch_add(1, Ordering::Relaxed);
                Response::DeadlineExceeded { id: request_id }
            } else {
                self.report.completed += 1;
                let completed = self.shared.completed.fetch_add(1, Ordering::Relaxed) + 1;
                if self
                    .server
                    .config
                    .max_requests
                    .is_some_and(|cap| completed >= cap)
                    && !self.shared.stop.swap(true, Ordering::Relaxed)
                {
                    wake(self.addr);
                }
                let matches = completion
                    .outcome
                    .matches
                    .into_iter()
                    .map(|m| WireMatch {
                        num_tokens: m.tokens.len(),
                        text: m.text,
                        score_bits: m.log_prob.to_bits(),
                        canonical: m.canonical,
                    })
                    .collect();
                Response::Matches {
                    id: request_id,
                    matches,
                }
            };
            if let Some(peer) = self.peers.get_mut(&token) {
                peer.inflight = peer.inflight.saturating_sub(1);
            }
            self.answer(token, &response);
        }
    }

    /// Connection `token` sends no more requests. Per the protocol
    /// contract it abandons its in-flight queries (a vanished auditor
    /// must not pin server work); answers already queued still flush,
    /// because dropping the channel only ends the writer once it drained.
    fn close(&mut self, token: u64) {
        self.peers.remove(&token);
        let orphaned: Vec<QueryId> = self
            .routes
            .iter()
            .filter(|(_, &(t, _))| t == token)
            .map(|(&id, _)| id)
            .collect();
        for id in orphaned {
            self.routes.remove(&id);
            if self.driver.cancel(id) {
                self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                self.report.cancelled += 1;
                self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A connection's reader: block in `read`, send each complete frame to
/// the shard, and tell it when the read side ends.
fn read_frames(mut stream: TcpStream, token: u64, events: &Sender<Event>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    'read: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            match decode_frame(&mut buf, MAX_FRAME_BYTES) {
                Ok(Some(frame)) => {
                    if events.send(Event::Frame { token, frame }).is_err() {
                        // The shard is gone: the server is stopping.
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => break 'read,
            }
        }
    }
    let _ = events.send(Event::Closed { token });
}

/// A connection's writer: frame and write every payload the shard sends
/// until the shard drops the channel or the socket fails, then shut the
/// socket down, which ends the reader too (on a failed socket that is
/// how the shard learns to cancel the connection's queries).
///
/// A write waits at most [`DRAIN_BOUND`] for a full socket to take
/// bytes; while the server runs it simply waits again, so a slow reader
/// costs a wake-up per bound, and once it stops it gives up.
fn write_frames(mut stream: TcpStream, payloads: &Receiver<Vec<u8>>, stop: &AtomicBool) {
    let _ = stream.set_write_timeout(Some(DRAIN_BOUND));
    let mut wire = Vec::new();
    'payloads: for payload in payloads {
        wire.clear();
        encode_frame(&payload, &mut wire);
        let mut rest = &wire[..];
        while !rest.is_empty() {
            match stream.write(rest) {
                Ok(0) => break 'payloads,
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !stop.load(Ordering::Relaxed) => {}
                Err(_) => break 'payloads,
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Wake an acceptor blocked in `accept` on `addr` with one connection;
/// it reads the stop flags on every accepted stream.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
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

    /// Flip the shutdown flag, wake the acceptor, and join the serve
    /// thread.
    ///
    /// # Errors
    ///
    /// The serve loop's IO error, if it exited with one — or a synthetic
    /// one if the serve thread itself panicked.
    pub fn stop(self) -> std::io::Result<ServerReport> {
        self.shutdown.store(true, Ordering::Relaxed);
        wake(self.addr);
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
