//! `serve_mixed` — serving-bound.
//!
//! An in-process `RelmServer` (shipped `ServerConfig`, one shard, real
//! loopback TCP) with hot plans and hot scores, driven by one
//! non-blocking thread over two connections that speaks the wire
//! protocol directly. Nine requests in ten are light (a cloze-style
//! shortest path, take 1, from a pool of patterns), one is heavy (URL
//! shortest path or bias sampling, take 8, fresh seeds), and every
//! twentieth is a `stats` op, so the codec, the connection pump, the
//! reactor turn, admission and the driver tick are a large share of
//! each request.
//!
//! The measured phase is an **open loop**: seeded Poisson arrivals at
//! the fixed rate [`RATE_MID`], each request timed from the instant it
//! was *due*, so a stall is charged to every request it delays. Its
//! throughput is the goodput at that offered rate, which falls only
//! when the server stops keeping up. Capacity at saturation (a **closed
//! loop**, two connections, eight requests in flight on each) is taken
//! in the traced run as `serve.closed_qps` and is not gated: on the host
//! this was built on it moved between 1750 and 4700 req/s with what the
//! neighbours were doing to the memory system, run to run.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use relm_serve::protocol::{decode_frame, encode_frame, MAX_FRAME_BYTES};
use relm_serve::{
    spawn, QueryRequest, RelmServer, Request, Response, ServerConfig, ServerHandle, WireMatch,
};

use crate::exec::search;
use crate::harness::{Args, Layers, Measured, Traced, Workload};
use crate::stats::{median, percentile, poisson_schedule, sorted, Fnv, Rng};
use crate::trace::Tracer;
use crate::world::{ServePools, Sizes, World};

/// Open-loop arrival rates, requests per second, frozen when the
/// benchmark was defined. Closed-loop goodput on that host ran from
/// 1750 (its slow spells) to 4700 with a median near 2800, so the
/// middle rate is 45 % of the *slowest* goodput seen: the gated
/// latencies then stay left of the knee whatever the host is doing.
/// The other two, a half and a double, only locate the knee.
const RATE_LOW: f64 = 400.0;
const RATE_MID: f64 = 800.0;
const RATE_HIGH: f64 = 1600.0;

/// The latency limit `serve.rate_ok_max` holds each rate to.
const LIMIT_P95_MS: f64 = 20.0;

const CONNECTIONS: usize = 2;
const PIPELINE_DEPTH: usize = 8;

/// Most requests the open loop keeps in flight on one connection, under
/// the server's shipped quota of 64. A request that finds the window
/// full leaves late, and its latency, taken from when it was due, says
/// so; it is not thrown at the server to be refused.
const OPEN_WINDOW: usize = 56;

/// Length of each open-loop phase and requests in the closed-loop
/// phase of a traced run, and their smoke sizes.
const FIXED_OPEN_S: f64 = 4.0;
const FIXED_CLOSED_REQUESTS: u64 = 6_000;
const SMOKE_OPEN_S: f64 = 0.5;
const SMOKE_CLOSED_REQUESTS: u64 = 400;

/// Open-loop seconds and closed-loop requests of a traced or smoke run.
fn fixed_sizes(smoke: bool) -> (f64, u64) {
    if smoke {
        (SMOKE_OPEN_S, SMOKE_CLOSED_REQUESTS)
    } else {
        (FIXED_OPEN_S, FIXED_CLOSED_REQUESTS)
    }
}

/// Requests in each one-at-a-time probe of a traced run.
const ROUNDTRIPS: usize = 300;

/// Request numbers, counted from the end of warm-up, whose kept
/// answers make up the digest: few enough that every run sends them.
const DIGEST_REQUESTS: u64 = 256;

/// Served answers kept for comparison with a solo client: one request
/// in sixteen, up to this many.
const VERIFY_CAP: usize = 512;

/// How long a phase waits for answers still owed once it has sent its
/// last request.
const DRAIN: Duration = Duration::from_secs(10);

/// One client connection: non-blocking, framed by the protocol's own
/// `encode_frame` / `decode_frame`.
struct Conn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    /// Payload bytes of the frames decoded so far.
    received: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbox: Vec::new(),
            outbox: Vec::new(),
            received: 0,
        })
    }

    fn queue(&mut self, request: &Request) {
        encode_frame(&request.encode(), &mut self.outbox);
    }

    /// Write what the socket takes, read what it has, and decode every
    /// complete frame into `responses`.
    fn pump(&mut self, responses: &mut Vec<Response>) -> std::io::Result<()> {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => drop(self.outbox.drain(..n)),
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbox.extend_from_slice(&chunk[..n]),
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        while let Some(payload) =
            decode_frame(&mut self.inbox, MAX_FRAME_BYTES).map_err(std::io::Error::other)?
        {
            self.received += payload.len() as u64;
            responses.push(Response::decode(&payload).map_err(std::io::Error::other)?);
        }
        Ok(())
    }
}

/// A request in flight.
struct Pending {
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    /// Kept when the answer is to be compared with a solo client's.
    verify: Option<QueryRequest>,
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    sent: u64,
    /// Refused, expired, errored, or never answered.
    failed: u64,
    /// Answered requests in order of arrival: when due (open loop) or
    /// sent (closed loop), when answered, and the request's number.
    answered: Vec<(Instant, Instant, u64)>,
    /// How late each request left, against its schedule.
    lag_ms: Vec<f64>,
    started: Option<Instant>,
    /// How long requests were being sent.
    wall_s: f64,
    /// Requests outstanding at the schedule's midpoint and at its end.
    backlog: (usize, usize),
    response_bytes: u64,
}

impl Phase {
    fn begin() -> Phase {
        Phase {
            started: Some(Instant::now()),
            ..Phase::default()
        }
    }

    fn started(&self) -> Instant {
        self.started.expect("phases are made by `begin`")
    }

    fn p(&self, p: f64) -> f64 {
        let ms = |&(due, done, _): &(Instant, Instant, u64)| (done - due).as_secs_f64() * 1e3;
        percentile(&sorted(self.answered.iter().map(ms).collect()), p)
    }

    /// Whether the server kept up: nothing failed, the tail is inside
    /// the limit and the backlog did not grow over the phase.
    fn kept_up(&self) -> bool {
        self.failed == 0 && self.p(95.0) <= LIMIT_P95_MS && self.backlog.1 <= 2 * self.backlog.0 + 8
    }

    /// The latencies, in milliseconds, of the requests answered while
    /// requests were being sent, grouped by the half-second window they
    /// were answered in, and each window's width in seconds.
    fn windows(&self) -> (Vec<Vec<f64>>, f64) {
        let windows = ((self.wall_s / 0.5) as usize).max(1);
        let width = self.wall_s / windows as f64;
        let mut out = vec![Vec::new(); windows];
        for &(due, done, _) in &self.answered {
            let at = (done - self.started()).as_secs_f64();
            if at <= self.wall_s {
                out[((at / width) as usize).min(windows - 1)]
                    .push((done - due).as_secs_f64() * 1e3);
            }
        }
        (out, width)
    }

    /// Requests answered per second in each window.
    fn window_rates(&self) -> Vec<f64> {
        let (windows, width) = self.windows();
        windows.iter().map(|w| w.len() as f64 / width).collect()
    }
}

pub struct ServeMixed {
    world: World,
    pools: ServePools,
    seed: u64,
    server: Option<ServerHandle>,
    conns: Vec<Conn>,
    /// Query requests in flight, by id, and `stats` requests in flight,
    /// oldest first, per connection (their answers carry no id).
    pending: HashMap<u64, Pending>,
    pending_stats: Vec<VecDeque<(Instant, u64)>>,
    next_request: u64,
    kept: Vec<(QueryRequest, Vec<WireMatch>)>,
    /// Sum of the digests of the kept answers to the first
    /// [`DIGEST_REQUESTS`] requests; a sum, because answers on two
    /// connections arrive in no fixed order.
    digest: u64,
    digest_until: u64,
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            let _ = server.stop();
        }
    }
}

impl ServeMixed {
    /// Request number `i` of this seed's stream: every twentieth a
    /// `stats` op, and of the queries between them every tenth heavy.
    fn request(&self, i: u64) -> Request {
        if i % 20 == 19 {
            return Request::Stats;
        }
        let query_number = i - i / 20;
        let mut rng = Rng::lane(self.seed, 0x5e7e_0000 + i);
        let mut query = if query_number % 10 == 9 {
            // Seeds cross the wire as JSON numbers: keep them in 2^52.
            self.pools.heavy(rng.below(2), rng.next_u64() >> 12)
        } else {
            self.pools.light(rng.below(usize::MAX))
        };
        query.id = i;
        Request::Query(query)
    }

    /// Queue the next request of the stream on connection `conn`, as
    /// due at `due`.
    fn send(&mut self, conn: usize, due: Instant, phase: &mut Phase) {
        let i = self.next_request;
        self.next_request += 1;
        let request = self.request(i);
        self.conns[conn].queue(&request);
        match request {
            Request::Stats => self.pending_stats[conn].push_back((due, i)),
            Request::Query(query) => {
                let verify = (i % 16 == 5 && self.kept.len() < VERIFY_CAP).then_some(query);
                self.pending.insert(i, Pending { due, verify });
            }
        }
        phase.sent += 1;
    }

    /// Move bytes on every connection and settle the answers that
    /// arrived. Returns how many requests were settled on each.
    fn settle(&mut self, phase: &mut Phase) -> [usize; CONNECTIONS] {
        let mut settled = [0; CONNECTIONS];
        let mut responses = Vec::new();
        for (conn, settled) in settled.iter_mut().enumerate() {
            responses.clear();
            let received = self.conns[conn].received;
            if self.conns[conn].pump(&mut responses).is_err() {
                // A dead connection answers nothing more; the drain
                // deadline turns what it owed into failures.
                continue;
            }
            phase.response_bytes += self.conns[conn].received - received;
            let now = Instant::now();
            for response in responses.drain(..) {
                let (due, id) = match &response {
                    Response::Stats(_) => match self.pending_stats[conn].pop_front() {
                        Some(sent) => sent,
                        None => continue,
                    },
                    Response::Matches { id, .. }
                    | Response::Error { id, .. }
                    | Response::Busy { id, .. }
                    | Response::DeadlineExceeded { id } => match self.pending.remove(id) {
                        Some(pending) => {
                            if let (Some(query), Response::Matches { matches, .. }) =
                                (pending.verify, &response)
                            {
                                self.kept.push((query, matches.clone()));
                            }
                            (pending.due, *id)
                        }
                        None => continue,
                    },
                };
                *settled += 1;
                match &response {
                    Response::Matches { matches, .. } => {
                        if id % 16 == 5 && id < self.digest_until {
                            let mut one = Fnv::new();
                            one.u64(id);
                            one.answer(matches.iter().map(|m| (m.text.as_str(), m.score_bits)));
                            self.digest = self.digest.wrapping_add(one.0);
                        }
                    }
                    Response::Stats(_) => {}
                    _ => {
                        phase.failed += 1;
                        continue;
                    }
                }
                phase.answered.push((due, now, id));
            }
        }
        settled
    }

    fn outstanding(&self) -> usize {
        self.pending.len() + self.pending_stats.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whatever is still owed when a phase gives up waiting has failed.
    fn abandon(&mut self, phase: &mut Phase) {
        phase.failed += self.outstanding() as u64;
        self.pending.clear();
        self.pending_stats.iter_mut().for_each(VecDeque::clear);
    }

    /// Poisson arrivals at `rate` for `seconds`, each request sent when
    /// due whatever the server has answered so far.
    fn open_loop(&mut self, rate: f64, seconds: f64) -> Phase {
        let schedule = poisson_schedule(self.seed ^ self.next_request, rate, seconds);
        let mut phase = Phase::begin();
        let started = phase.started();
        let mut next = 0;
        let mut in_flight = [0usize; CONNECTIONS];
        loop {
            let now = Instant::now();
            while next < schedule.len() && in_flight[next % CONNECTIONS] < OPEN_WINDOW {
                let due = started + Duration::from_secs_f64(schedule[next]);
                if due > now {
                    break;
                }
                phase
                    .lag_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                in_flight[next % CONNECTIONS] += 1;
                self.send(next % CONNECTIONS, due, &mut phase);
                next += 1;
                if next == schedule.len() / 2 {
                    phase.backlog.0 = self.outstanding();
                }
                if next == schedule.len() {
                    phase.backlog.1 = self.outstanding();
                }
            }
            let settled = self.settle(&mut phase);
            for (have, got) in in_flight.iter_mut().zip(settled) {
                *have -= got;
            }
            if next == schedule.len() && self.outstanding() == 0 {
                break;
            }
            if started.elapsed() > Duration::from_secs_f64(seconds) + DRAIN {
                self.abandon(&mut phase);
                break;
            }
            if settled == [0; CONNECTIONS] {
                let until_due = schedule
                    .get(next)
                    .map_or(Duration::from_micros(100), |&at| {
                        (started + Duration::from_secs_f64(at))
                            .saturating_duration_since(Instant::now())
                    });
                std::thread::sleep(
                    until_due.clamp(Duration::from_micros(20), Duration::from_micros(100)),
                );
            }
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        phase
    }

    /// Saturation: every connection keeps `depth` requests in flight
    /// until `requests` have been sent or `seconds` have passed,
    /// whichever comes first; then the rest drains.
    fn closed_loop(&mut self, depth: usize, requests: u64, seconds: f64) -> Phase {
        let mut phase = Phase::begin();
        let started = phase.started();
        let mut in_flight = [0usize; CONNECTIONS];
        let mut stopped_at = None;
        loop {
            if stopped_at.is_none()
                && (phase.sent == requests || started.elapsed().as_secs_f64() >= seconds)
            {
                stopped_at = Some(Instant::now());
                phase.wall_s = started.elapsed().as_secs_f64();
            }
            if stopped_at.is_none() {
                for (conn, have) in in_flight.iter_mut().enumerate() {
                    while *have < depth && phase.sent < requests {
                        *have += 1;
                        self.send(conn, Instant::now(), &mut phase);
                    }
                }
            }
            let settled = self.settle(&mut phase);
            for (have, got) in in_flight.iter_mut().zip(settled) {
                *have -= got;
            }
            match stopped_at {
                Some(_) if self.outstanding() == 0 => break,
                Some(at) if at.elapsed() > DRAIN => {
                    self.abandon(&mut phase);
                    break;
                }
                _ => {}
            }
            if settled == [0; CONNECTIONS] {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        phase
    }

    /// Send `requests` on one connection, each only when the one
    /// before is answered, polling without sleeping. Returns the round
    /// trips in microseconds and how many were not answered properly.
    fn one_at_a_time(&mut self, requests: &[Request]) -> (Vec<f64>, u64) {
        let mut micros = Vec::with_capacity(requests.len());
        let mut failed = 0;
        let mut responses = Vec::new();
        for request in requests {
            let at = Instant::now();
            self.conns[0].queue(request);
            while responses.is_empty() && at.elapsed() < DRAIN {
                if self.conns[0].pump(&mut responses).is_err() {
                    return (micros, failed + 1);
                }
                std::thread::yield_now();
            }
            micros.push(at.elapsed().as_secs_f64() * 1e6);
            if !matches!(
                responses.pop(),
                Some(Response::Matches { .. } | Response::Stats(_))
            ) {
                failed += 1;
            }
        }
        (micros, failed)
    }

    /// Compare every kept answer with the same query on a solo client.
    /// Returns how many differ.
    fn verify(&mut self) -> u64 {
        let solo = self.world.client();
        let mut differing = 0;
        for (request, served) in self.kept.drain(..) {
            let same = search(&solo, &request.to_search_query(), request.max_results).is_ok_and(
                |matches| {
                    matches.len() == served.len()
                        && matches.iter().zip(&served).all(|(m, w)| {
                            m.text == w.text
                                && m.log_prob.to_bits() == w.score_bits
                                && m.canonical == w.canonical
                                && m.tokens.len() == w.num_tokens
                        })
                },
            );
            differing += u64::from(!same);
        }
        differing
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    const GOLDEN: &'static str = include_str!("../golden/serve_mixed.txt");

    fn setup(args: &Args) -> Self {
        let world = World::build();
        let pools = ServePools::draw(&world, args.seed, Sizes::of(args.smoke));
        let client = world.client();
        for request in pools.all() {
            client
                .plan(&request.to_search_query())
                .expect("pool patterns compile");
        }
        let server = spawn(
            RelmServer::with_config(client, ServerConfig::new()),
            "127.0.0.1:0",
        )
        .expect("loopback binds");
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(server.addr()).expect("loopback connects"))
            .collect();
        let mut state = ServeMixed {
            world,
            pools,
            seed: args.seed,
            server: Some(server),
            conns,
            pending: HashMap::new(),
            pending_stats: vec![VecDeque::new(); CONNECTIONS],
            next_request: 0,
            kept: Vec::new(),
            digest: 0,
            digest_until: 0,
        };
        // Warm-up: enough of the stream that every pool pattern has
        // been served and its scores are cached.
        let warm_up = 20 * Sizes::of(args.smoke).light_pool as u64;
        let phase = state.closed_loop(PIPELINE_DEPTH, warm_up, f64::INFINITY);
        assert_eq!(phase.failed, 0, "warm-up requests are answered");
        state.kept.clear();
        state.digest = 0;
        state.digest_until = state.next_request + DIGEST_REQUESTS;
        state
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn measure(&mut self, args: &Args) -> Measured {
        let seconds = if args.fixed_blocks() {
            fixed_sizes(args.smoke).0
        } else {
            args.seconds
        };
        let open = self.open_loop(RATE_MID, seconds);
        Measured {
            attempted: open.sent,
            failed: open.failed + self.verify(),
            block_rates: open.window_rates(),
            block_latencies_ms: open.windows().0,
            digest: self.digest,
        }
    }

    fn trace(&mut self, args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
        let (open_s, closed_requests) = fixed_sizes(args.smoke);
        let plain = self.open_loop(RATE_MID, open_s);
        let digest = self.digest;
        tracer.set_op(0);
        let parent = tracer.begin("serve.open_loop");
        let open = self.open_loop(RATE_MID, open_s);
        tracer.end(parent);
        for &(due, done, request) in &open.answered {
            tracer.record("serve.request", due, done, parent, request as u32);
        }

        // On the side: saturation, the other two rates, then one
        // request at a time: `stats` (a reactor turn and the codec, no
        // query), light queries, and the mix without `stats`, which a
        // solo client then answers too.
        let closed = self.closed_loop(PIPELINE_DEPTH, closed_requests, f64::INFINITY);
        let low = self.open_loop(RATE_LOW, open_s);
        let high = self.open_loop(RATE_HIGH, open_s);
        let n = if args.smoke {
            ROUNDTRIPS / 10
        } else {
            ROUNDTRIPS
        };
        let (stats_us, stats_failed) = self.one_at_a_time(&vec![Request::Stats; n]);
        let light: Vec<Request> = (0..n)
            .map(|k| Request::Query(self.pools.light(k)))
            .collect();
        let (light_us, light_failed) = self.one_at_a_time(&light);
        let mix: Vec<Request> = (self.next_request..)
            .map(|i| self.request(i))
            .filter(|r| *r != Request::Stats)
            .take(n)
            .collect();
        let (mix_us, mix_failed) = self.one_at_a_time(&mix);
        let solo = self.world.client();
        let solo_us: Vec<f64> = mix
            .iter()
            .filter_map(|request| match request {
                Request::Query(query) => {
                    let at = Instant::now();
                    drop(search(&solo, &query.to_search_query(), query.max_results));
                    Some(at.elapsed().as_secs_f64() * 1e6)
                }
                Request::Stats => None,
            })
            .collect();

        // The other two rates only inform `serve.rate_ok_max`: a refusal
        // at a rate the server cannot hold is an answer, not a failure.
        let failed = plain.failed
            + open.failed
            + closed.failed
            + stats_failed
            + light_failed
            + mix_failed
            + self.verify();
        let report = self
            .server
            .take()
            .expect("the server runs until now")
            .stop()
            .expect("server stops cleanly");

        layers.set("serve.open_ms_p99", open.p(99.0));
        layers.set("serve.open_ms_p999", open.p(99.9));
        layers.set(
            "serve.gen_lag_ms_p99",
            percentile(&sorted(open.lag_ms.clone()), 99.0),
        );
        layers.set("serve.rate_low_ms_p50", low.p(50.0));
        layers.set("serve.rate_low_ms_p95", low.p(95.0));
        layers.set("serve.rate_high_ms_p50", high.p(50.0));
        layers.set("serve.rate_high_ms_p95", high.p(95.0));
        let rate_ok_max = [(RATE_HIGH, &high), (RATE_MID, &open), (RATE_LOW, &low)]
            .into_iter()
            .find(|(_, phase)| phase.kept_up())
            .map_or(0.0, |(rate, _)| rate);
        layers.set("serve.rate_ok_max", rate_ok_max);
        layers.set("server.stats_roundtrip_us_p50", median(&stats_us));
        layers.set("server.light_roundtrip_us_p50", median(&light_us));
        // Warm on both sides: the solo client has planned the pool by
        // its median request.
        layers.set(
            "server.overhead_ms_p50",
            (median(&mix_us) - median(&solo_us)) / 1e3,
        );
        layers.set("serve.closed_qps", closed.sent as f64 / closed.wall_s);
        layers.set(
            "protocol.response_bytes_mean",
            open.response_bytes as f64 / open.answered.len().max(1) as f64,
        );
        layers.set("server.admitted", report.admitted as f64);
        layers.set("server.completed", report.completed as f64);
        layers.set("server.busy_rejections", report.busy_rejections as f64);
        layers.set("server.expired", report.expired as f64);
        layers.set("server.parks", report.parks as f64);
        layers.set("server.ticks_run", report.ticks_run as f64);
        layers.set("server.mean_batch_fill", report.mean_batch_fill);
        layers.set(
            "server.cross_query_batches",
            report.cross_query_batches as f64,
        );

        Traced {
            attempted: plain.sent + open.sent,
            failed,
            digest,
            plain_wall_s: plain.wall_s,
            traced_wall_s: open.wall_s,
        }
    }
}
