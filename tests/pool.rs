//! The persistent worker pool's contract: pooled execution must be
//! invisible in every output, and visible only in the thread ledger.
//!
//! * pool-backed scoring ([`pooled_scores`]) is **byte-identical** (f64
//!   bits) to the serial loop — fixed fixtures and proptest over random
//!   batch sizes and thread counts;
//! * serial and pool-backed clients return byte-identical results for
//!   all three executors, solo, under `run_many`, and over the TCP
//!   serving path;
//! * steady-state batches spawn **zero** new threads (the pool's spawn
//!   counter stays flat), and dropping a pool drains every queued job.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use relm::serve::{spawn, QueryRequest, RelmServer, Request, Response, ServeClient, ServerConfig};
use relm::{
    pooled_scores, BpeTokenizer, DecodingPolicy, LanguageModel, MatchResult, NGramConfig, NGramLm,
    Parallelism, QuerySet, QueryString, Relm, SearchQuery, SearchStrategy, SessionConfig, TokenId,
    TokenizationStrategy, WorkerPool,
};

fn fixture() -> (BpeTokenizer, NGramLm) {
    let docs = [
        "see https://www.example.com/articles today",
        "see https://www.example.com/articles today",
        "see https://www.example.org/posts now",
        "the cat sat on the mat",
        "the dog sat on the log",
        "the cow ate the grass",
    ];
    let corpus = docs.join(". ");
    let tok = BpeTokenizer::train(&corpus, 120);
    let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
    (tok, lm)
}

fn url_query() -> SearchQuery {
    SearchQuery::new(QueryString::new("https://www\\.([a-z]|\\.|/)+").with_prefix("https://www\\."))
        .with_policy(DecodingPolicy::top_k(40))
        .with_max_tokens(16)
        .with_max_expansions(3_000)
}

/// A batch of scoring contexts with shared prefixes and varied lengths.
fn contexts(tok: &BpeTokenizer, n: usize) -> Vec<Vec<TokenId>> {
    let texts = [
        "the cat",
        "the cat sat",
        "the dog sat on",
        "the cow",
        "see https://www.example",
        "the",
    ];
    (0..n)
        .map(|i| {
            let mut ctx = tok.encode(texts[i % texts.len()]);
            ctx.truncate(1 + i % 5);
            ctx
        })
        .collect()
}

fn assert_rows_bit_identical(label: &str, a: &[Vec<f64>], b: &[Vec<f64>]) {
    assert_eq!(a.len(), b.len(), "{label}: row counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{label}[{i}]: row widths differ");
        for (j, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{label}[{i}][{j}]: {p} vs {q}");
        }
    }
}

fn assert_bit_identical(label: &str, a: &[MatchResult], b: &[MatchResult]) {
    assert_eq!(a.len(), b.len(), "{label}: match counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.text, y.text, "{label}[{i}]: text");
        assert_eq!(x.tokens, y.tokens, "{label}[{i}]: tokens");
        assert_eq!(
            x.log_prob.to_bits(),
            y.log_prob.to_bits(),
            "{label}[{i}]: log_prob bits"
        );
    }
}

#[test]
fn pooled_scores_match_serial() {
    let (tok, lm) = fixture();
    let ctxs = contexts(&tok, 64);
    let refs: Vec<&[TokenId]> = ctxs.iter().map(Vec::as_slice).collect();
    let serial: Vec<Vec<f64>> = refs.iter().map(|c| lm.next_log_probs(c)).collect();
    for workers in [2usize, 3, 4, 7] {
        let pooled = pooled_scores(&lm, &refs, Parallelism::sharded(workers))
            .expect("batch large enough to pool");
        assert_rows_bit_identical(&format!("pooled w={workers}"), &serial, &pooled);
    }
}

#[test]
fn serial_and_pooled_clients_are_byte_identical_for_all_executors() {
    let (tok, lm) = fixture();
    let serial = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::Serial))
        .build()
        .unwrap();
    let pooled = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::sharded(4)))
        .build()
        .unwrap();
    for (label, query, take) in [
        ("dijkstra", url_query(), 5),
        (
            "dijkstra_full_encodings",
            url_query().with_tokenization(TokenizationStrategy::All),
            5,
        ),
        (
            "beam64",
            url_query().with_strategy(SearchStrategy::Beam { width: 64 }),
            5,
        ),
        (
            "sampling",
            url_query().with_strategy(SearchStrategy::RandomSampling { seed: 13 }),
            8,
        ),
    ] {
        let a: Vec<MatchResult> = serial.search(&query).unwrap().take(take).collect();
        let b: Vec<MatchResult> = pooled.search(&query).unwrap().take(take).collect();
        assert!(!a.is_empty(), "{label}: no matches");
        assert_bit_identical(label, &a, &b);
    }
    // And under the coalescing multi-query driver.
    let set: QuerySet = QuerySet::new()
        .with_query(url_query(), 4)
        .with_query(
            url_query().with_strategy(SearchStrategy::Beam { width: 16 }),
            4,
        )
        .with_query(
            url_query().with_strategy(SearchStrategy::RandomSampling { seed: 11 }),
            6,
        );
    let a = serial.run_many(&set).unwrap();
    let b = pooled.run_many(&set).unwrap();
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_bit_identical(&format!("run_many[{i}]"), &x.matches, &y.matches);
    }
}

#[test]
fn served_path_on_a_pooled_client_is_byte_identical_to_solo_serial() {
    let (tok, lm) = fixture();
    let solo = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::Serial))
        .build()
        .unwrap();
    let (tok2, lm2) = fixture();
    let pooled = Relm::builder(lm2, tok2)
        .config(SessionConfig::new().with_parallelism(Parallelism::sharded(4)))
        .build()
        .unwrap();
    let handle = spawn(
        RelmServer::with_config(pooled, ServerConfig::new()),
        "127.0.0.1:0",
    )
    .unwrap();
    let requests = vec![
        QueryRequest::new(0, "https://www\\.([a-z]|\\.|/)+", 4),
        QueryRequest::new(1, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 3),
        QueryRequest::new(2, "the ((cat)|(dog)|(cow)) ((sat)|(ate))", 4)
            .with_strategy(relm::serve::StrategySpec::Sampling { seed: 5 })
            .with_max_tokens(16),
    ];
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    for request in &requests {
        client.send(&Request::Query(request.clone())).unwrap();
    }
    let mut served: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
    for _ in 0..requests.len() {
        let response = client.recv().unwrap();
        let Response::Matches { id, matches, .. } = &response else {
            panic!("expected matches, got {response:?}");
        };
        served.insert(
            *id,
            matches
                .iter()
                .map(|m| (m.text.clone(), m.score_bits))
                .collect(),
        );
    }
    for request in &requests {
        let expected: Vec<(String, u64)> = solo
            .search(&request.to_search_query())
            .unwrap()
            .take(request.max_results)
            .map(|m| (m.text, m.log_prob.to_bits()))
            .collect();
        assert_eq!(
            served.remove(&request.id).unwrap(),
            expected,
            "served-vs-solo for {request:?}"
        );
    }
    handle.stop().unwrap();
}

#[test]
fn steady_state_batches_spawn_no_threads() {
    let (tok, lm) = fixture();
    let par = Parallelism::sharded(3);
    let pool = WorkerPool::for_parallelism(par);
    let ctxs = contexts(&tok, 40);
    let refs: Vec<&[TokenId]> = ctxs.iter().map(Vec::as_slice).collect();
    // Warm the pool with one batch, then hammer it: the spawn counter
    // must stay flat — every later batch reuses the parked workers.
    let _ = pooled_scores(&lm, &refs, par).expect("pooled");
    let spawned = pool.spawn_count();
    assert_eq!(spawned, pool.workers() as u64);
    for _ in 0..20 {
        let out = pooled_scores(&lm, &refs, par).expect("pooled");
        assert_eq!(out.len(), refs.len());
    }
    // Whole searches route through the same registry pool.
    let client = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(par))
        .build()
        .unwrap();
    for seed in 0..4 {
        let _ = client
            .search(&url_query().with_strategy(SearchStrategy::RandomSampling { seed }))
            .unwrap()
            .take(4)
            .count();
    }
    assert_eq!(
        pool.spawn_count(),
        spawned,
        "steady-state batches must not spawn threads"
    );
}

#[test]
fn dropping_a_pool_drains_queued_jobs() {
    let done = Arc::new(AtomicUsize::new(0));
    let total = 64;
    {
        let pool = WorkerPool::new(2);
        for _ in 0..total {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Dropped here with jobs still queued: shutdown must drain.
    }
    assert_eq!(done.load(Ordering::SeqCst), total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random batch sizes and worker counts: pooled and serial scoring
    /// agree bit for bit (when the batch is big enough to pool).
    #[test]
    fn proptest_pooled_scoring_is_bit_identical(
        batch in 1usize..80,
        workers in 1usize..6,
    ) {
        let (tok, lm) = fixture();
        let ctxs = contexts(&tok, batch);
        let refs: Vec<&[TokenId]> = ctxs.iter().map(Vec::as_slice).collect();
        let serial: Vec<Vec<f64>> = refs.iter().map(|c| lm.next_log_probs(c)).collect();
        if let Some(pooled) = pooled_scores(&lm, &refs, Parallelism::sharded(workers)) {
            prop_assert_eq!(serial.len(), pooled.len());
            for (x, y) in serial.iter().zip(&pooled) {
                for (p, q) in x.iter().zip(y) {
                    prop_assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

}
