//! The serving layer's contract: results served over the socket are
//! **byte-identical** (f64 bits included) to solo `Relm::search`
//! execution — under concurrent clients, for queries admitted while
//! others are mid-flight, and whatever queries step beside them — and
//! a client that disconnects cancels its in-flight queries instead of
//! pinning server work. A client that never reads its answers stalls
//! nobody else on its shard, stopping the server stays bounded with
//! clients still connected, and a client that half-closes its write
//! side still receives what it asked for.
//!
//! Every expected answer is produced by running
//! [`QueryRequest::to_search_query`]'s output through a solo client over
//! an identically trained model: the *same* wire-to-engine mapping the
//! server uses, so the reference and the served query can never drift.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use relm::serve::protocol::{decode_frame, encode_frame, MAX_FRAME_BYTES};
use relm::serve::{
    spawn, QueryRequest, RelmServer, Request, Response, ServeClient, ServerConfig, StrategySpec,
};
use relm::{BpeTokenizer, NGramConfig, NGramLm, Relm};

const DOCS: [&str; 4] = [
    "the cat sat on the mat",
    "the cat sat on the mat",
    "the dog sat on the log",
    "the cow ate the grass",
];

/// Deterministic model + tokenizer; training twice yields identical
/// artifacts, which is what lets the solo reference and the server hold
/// separate (but equal) model instances.
fn fixture() -> (BpeTokenizer, NGramLm) {
    let corpus = DOCS.join(". ");
    let tok = BpeTokenizer::train(&corpus, 80);
    let lm = NGramLm::train(&tok, &DOCS, NGramConfig::xl());
    (tok, lm)
}

fn solo_client() -> Relm<NGramLm> {
    let (tok, lm) = fixture();
    Relm::new(lm, tok).unwrap()
}

fn start_server() -> relm::serve::ServerHandle {
    let (tok, lm) = fixture();
    let client = Relm::new(lm, tok).unwrap();
    spawn(
        RelmServer::with_config(client, ServerConfig::new()),
        "127.0.0.1:0",
    )
    .unwrap()
}

/// The identity currency: `(text, exact score bits)` per match.
fn solo_bits(client: &Relm<NGramLm>, request: &QueryRequest) -> Vec<(String, u64)> {
    client
        .search(&request.to_search_query())
        .unwrap()
        .take(request.max_results)
        .map(|m| (m.text, m.log_prob.to_bits()))
        .collect()
}

fn served_bits(response: &Response) -> Vec<(String, u64)> {
    match response {
        Response::Matches { matches, .. } => matches
            .iter()
            .map(|m| (m.text.clone(), m.score_bits))
            .collect(),
        other => panic!("expected matches, got {other:?}"),
    }
}

/// The mixed workload: fig5-style extraction (Dijkstra + beam over one
/// pattern family) and fig7-style distribution sampling, as wire
/// requests.
fn mixed_requests(id_base: u64, seed: u64) -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(id_base, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 3),
        QueryRequest::new(id_base + 1, "the ((cat)|(dog)) sat on the ((mat)|(log))", 2)
            .with_strategy(StrategySpec::Beam { width: 8 }),
        QueryRequest::new(id_base + 2, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 4)
            .with_strategy(StrategySpec::Sampling { seed })
            .with_max_tokens(16),
        QueryRequest::new(id_base + 3, "the cow ate the grass", 1).with_top_k(40),
    ]
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let solo = solo_client();
    let handle = start_server();
    let addr = handle.addr();

    type ClientAnswers = Vec<(QueryRequest, Vec<(String, u64)>)>;
    // Three concurrent connections, each pipelining a mixed workload
    // (requests all sent before any response is read, so the server's
    // driver interleaves every query round-robin through one engine).
    let collected: Vec<ClientAnswers> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0u64..3)
            .map(|t| {
                scope.spawn(move || {
                    let requests = mixed_requests(10 * t, 7 + t);
                    let mut client = ServeClient::connect(addr).unwrap();
                    for request in &requests {
                        client.send(&Request::Query(request.clone())).unwrap();
                    }
                    let mut by_id: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
                    for _ in 0..requests.len() {
                        let response = client.recv().unwrap();
                        let Response::Matches { id, .. } = &response else {
                            panic!("expected matches, got {response:?}");
                        };
                        by_id.insert(*id, served_bits(&response));
                    }
                    requests
                        .into_iter()
                        .map(|request| {
                            let bits = by_id.remove(&request.id).expect("every request answered");
                            (request, bits)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for per_client in &collected {
        for (request, served) in per_client {
            assert_eq!(
                served,
                &solo_bits(&solo, request),
                "served results must be bit-identical to solo for {request:?}"
            );
        }
    }

    let report = handle.stop().unwrap();
    assert_eq!(report.accepted, 3);
    assert_eq!(report.admitted, 12);
    assert_eq!(report.completed, 12);
    assert_eq!(report.cancelled, 0);
}

#[test]
fn queries_admitted_mid_flight_are_bit_identical() {
    let solo = solo_client();
    let handle = start_server();
    let addr = handle.addr();

    // Connection A admits a long sampling stream; while it is ticking,
    // connection B joins with fresh queries. (The deterministic
    // driver-level version of this schedule lives in relm-core's unit
    // tests; here the real server takes the same path over sockets.)
    let slow = QueryRequest::new(1, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 40)
        .with_strategy(StrategySpec::Sampling { seed: 123 })
        .with_max_tokens(16);
    let mut conn_a = ServeClient::connect(addr).unwrap();
    conn_a.send(&Request::Query(slow.clone())).unwrap();

    // Give A's query time to be admitted and get mid-flight.
    std::thread::sleep(Duration::from_millis(30));
    let late = mixed_requests(100, 99);
    let mut conn_b = ServeClient::connect(addr).unwrap();
    for request in &late {
        conn_b.send(&Request::Query(request.clone())).unwrap();
    }
    let mut late_answers: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
    for _ in 0..late.len() {
        let response = conn_b.recv().unwrap();
        let Response::Matches { id, .. } = &response else {
            panic!("expected matches, got {response:?}");
        };
        late_answers.insert(*id, served_bits(&response));
    }
    let slow_served = served_bits(&conn_a.recv().unwrap());

    assert_eq!(slow_served, solo_bits(&solo, &slow), "the early query");
    for request in &late {
        assert_eq!(
            late_answers.remove(&request.id).unwrap(),
            solo_bits(&solo, request),
            "mid-flight admitted query {request:?}"
        );
    }
    let report = handle.stop().unwrap();
    assert_eq!(report.completed, 5);
}

#[test]
fn client_disconnect_cancels_its_queries() {
    let handle = start_server();
    let addr = handle.addr();

    // A client submits an effectively unbounded sampling stream (the
    // language is tiny, so every episode emits and the stream only ends
    // at the absurd cap), then vanishes without reading a byte.
    {
        let mut doomed = ServeClient::connect(addr).unwrap();
        doomed
            .send(&Request::Query(
                QueryRequest::new(1, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 1_000_000)
                    .with_strategy(StrategySpec::Sampling { seed: 5 })
                    .with_max_tokens(16),
            ))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // Dropped here: the connection closes with the query in flight.
    }

    // The server must notice, cancel the orphan, and stay available.
    let mut observer = ServeClient::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let cancelled = loop {
        let Response::Stats(stats) = observer.roundtrip(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        if stats.cancelled >= 1 {
            break stats.cancelled;
        }
        assert!(
            Instant::now() < deadline,
            "server never cancelled the orphaned query: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(cancelled, 1);

    // Availability after the cancel: a fresh query still answers.
    let solo = solo_client();
    let request = QueryRequest::new(9, "the cow ate the grass", 1);
    let served = served_bits(
        &observer
            .roundtrip(&Request::Query(request.clone()))
            .unwrap(),
    );
    assert_eq!(served, solo_bits(&solo, &request));

    let report = handle.stop().unwrap();
    assert_eq!(report.cancelled, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn bad_patterns_answer_errors_without_killing_the_connection() {
    let handle = start_server();
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    let bad = client
        .roundtrip(&Request::Query(QueryRequest::new(4, "a(", 1)))
        .unwrap();
    let Response::Error { id, message } = bad else {
        panic!("expected an error, got {bad:?}");
    };
    assert_eq!(id, 4);
    assert!(!message.is_empty());

    // The same connection still serves good queries afterwards.
    let good = client
        .roundtrip(&Request::Query(QueryRequest::new(5, "the cow ate", 1)))
        .unwrap();
    assert_eq!(served_bits(&good).len(), 1);

    let report = handle.stop().unwrap();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.completed, 1);
}

/// The facade-level driver admits mid-flight deterministically — the
/// socket-free twin of the serve tests above, pinning the exact
/// schedule: admit, tick three times, admit again.
#[test]
fn facade_driver_mid_flight_admission_is_deterministic() {
    let solo = solo_client();
    let early = QueryRequest::new(0, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 3);
    let late = QueryRequest::new(1, "the ((cat)|(dog)) sat on the ((mat)|(log))", 2)
        .with_strategy(StrategySpec::Beam { width: 8 });
    let expected_early = solo_bits(&solo, &early);
    let expected_late = solo_bits(&solo, &late);

    let (tok, lm) = fixture();
    let client = Relm::new(lm, tok).unwrap();
    let mut driver = client.driver();
    let early_id = driver
        .admit(&early.to_search_query(), early.max_results)
        .unwrap();
    let mut completions = Vec::new();
    for _ in 0..3 {
        completions.extend(driver.tick());
    }
    let late_id = driver
        .admit(&late.to_search_query(), late.max_results)
        .unwrap();
    while !driver.is_idle() {
        completions.extend(driver.tick());
    }
    let by_id: HashMap<_, _> = completions.into_iter().map(|c| (c.id, c.outcome)).collect();
    let bits = |id| {
        by_id[&id]
            .matches
            .iter()
            .map(|m| (m.text.clone(), m.log_prob.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(early_id), expected_early);
    assert_eq!(bits(late_id), expected_late);
}

/// `n` stats requests back to back, framed for the wire.
fn pipelined_stats(n: usize) -> Vec<u8> {
    let payload = Request::Stats.encode();
    let mut wire = Vec::with_capacity(n * (4 + payload.len()));
    for _ in 0..n {
        encode_frame(&payload, &mut wire);
    }
    wire
}

/// Connect a client that pipelines 50,000 stats requests and never
/// reads an answer: several MB of responses, more than loopback socket
/// buffers hold, so the server can only keep them queued. Returns once
/// every request left the client (bounded, so a server that stops
/// reading fails the test instead of hanging it).
fn connect_slow_reader(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    let mut sender = stream.try_clone().unwrap();
    let (sent, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = sent.send(sender.write_all(&pipelined_stats(50_000)).is_ok());
    });
    assert_eq!(
        done.recv_timeout(Duration::from_secs(5)),
        Ok(true),
        "the server must keep reading a client that does not read"
    );
    stream
}

#[test]
fn slow_reader_does_not_stall_its_shard() {
    let solo = solo_client();
    let handle = start_server();
    let addr = handle.addr();

    let slow = connect_slow_reader(addr);
    // Let the one shard work into the backlog: a shard that ever
    // blocks on the slow reader's full socket is wedged by now.
    std::thread::sleep(Duration::from_millis(200));

    let request = QueryRequest::new(1, "the ((cat)|(dog)) sat", 2);
    let mut polite = ServeClient::connect(addr).unwrap();
    polite.send(&Request::Query(request.clone())).unwrap();
    let (answered, answer) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = answered.send(polite.recv().map(|r| served_bits(&r)));
    });
    let served = answer
        .recv_timeout(Duration::from_secs(5))
        .expect("a client sharing a shard with a slow reader must still be answered")
        .unwrap();
    assert_eq!(served, solo_bits(&solo, &request));

    // Stopping with the slow reader still connected, its answers still
    // queued, is bounded too.
    let start = Instant::now();
    let report = handle.stop().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "stop took {:?} with a slow reader connected",
        start.elapsed()
    );
    assert_eq!(report.completed, 1);
    drop(slow);
}

#[test]
fn stop_is_bounded_with_an_idle_client_connected() {
    let handle = start_server();
    let idle = ServeClient::connect(handle.addr()).unwrap();
    // Make sure the connection was adopted before stopping.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    let report = handle.stop().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "stop took {:?} with an idle client connected",
        start.elapsed()
    );
    assert_eq!(report.accepted, 1);
    drop(idle);
}

#[test]
fn half_closed_client_still_receives_its_answer() {
    let handle = start_server();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&pipelined_stats(1)).unwrap();
    // Done sending: the server sees EOF right behind the request.
    stream.shutdown(Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let frame = loop {
        if let Some(frame) = decode_frame(&mut buf, MAX_FRAME_BYTES).unwrap() {
            break frame;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the server closed before answering");
        buf.extend_from_slice(&chunk[..n]);
    };
    let Response::Stats(stats) = Response::decode(&frame).unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stats.accepted, 1);
    handle.stop().unwrap();
}
