//! Integration tests for the batched scoring path: every executor must
//! produce **byte-identical results** to a serial reference — the
//! brute-force enumeration of `oracle/reference.rs`, which scores each
//! admissible match with the bare model one context at a time — while
//! scoring through the batched, cache-aware `ScoringEngine`, and the
//! engine's counters must surface in `ExecutionStats` so benchmarks have
//! a cost model.

#![forbid(unsafe_code)]

#[path = "oracle/reference.rs"]
mod reference;

use relm::{
    BpeTokenizer, DecodingPolicy, MatchResult, NGramConfig, NGramLm, QueryString, Relm,
    SearchQuery, SearchStrategy, TokenizationStrategy,
};

use reference::{check_exact, check_members, reference};

fn fixture() -> (BpeTokenizer, NGramLm) {
    let docs = [
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the dog sat on the log",
        "the cow ate the grass",
        "my phone number is 555 555 5555",
        "my phone number is 555 867 5309",
    ];
    let corpus = docs.join(". ");
    let tok = BpeTokenizer::train(&corpus, 120);
    let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
    (tok, lm)
}

/// The six texts of `pinned_query()`'s language.
fn pinned_texts() -> Vec<String> {
    let mut texts = Vec::new();
    for animal in ["cat", "dog", "cow"] {
        for verb in ["sat", "ate"] {
            texts.push(format!("the {animal} {verb}"));
        }
    }
    texts
}

/// Run `query` cold and return its first `take` results, the batched
/// run's stats, and the reference set for the query's policy.
fn run_against_reference(
    tok: &BpeTokenizer,
    lm: &NGramLm,
    query: &SearchQuery,
    take: usize,
) -> (
    Vec<MatchResult>,
    relm::ExecutionStats,
    std::collections::BTreeSet<reference::Scored>,
) {
    let client = Relm::new(lm, tok.clone()).expect("client");
    let mut iter = client.search(query).expect("search");
    let results: Vec<MatchResult> = (&mut iter).take(take).collect();
    let stats = iter.stats();
    let expected = reference(
        lm,
        tok,
        &pinned_texts(),
        Some("the"),
        TokenizationStrategy::Canonical,
        query.policy,
    );
    (results, stats, expected)
}

#[test]
fn shortest_path_batched_is_byte_identical_to_serial() {
    let (tok, lm) = fixture();
    let query = pinned_query().with_policy(DecodingPolicy::top_k(40));
    let (batched, stats, expected) = run_against_reference(&tok, &lm, &query, 10);
    assert!(!batched.is_empty());
    check_exact("dijkstra", &batched, &expected).unwrap();
    assert!(
        stats.batches > 0,
        "frontier batching must engage: {stats:?}"
    );
    assert!(stats.cache_hits > 0, "prefetched contexts must be reused");
}

#[test]
fn beam_batched_is_byte_identical_to_serial() {
    let (tok, lm) = fixture();
    let query = pinned_query().with_strategy(SearchStrategy::Beam { width: 16 });
    let (batched, stats, expected) = run_against_reference(&tok, &lm, &query, 10);
    assert!(!batched.is_empty());
    check_exact("beam 16", &batched, &expected).unwrap();
    assert!(stats.batches > 0, "{stats:?}");
    assert!(
        stats.batched_contexts >= stats.batches,
        "each batch holds at least one context: {stats:?}"
    );
}

#[test]
fn sampling_batched_is_byte_identical_to_serial() {
    let (tok, lm) = fixture();
    let query = pinned_query().with_strategy(SearchStrategy::RandomSampling { seed: 41 });
    let (batched, stats, expected) = run_against_reference(&tok, &lm, &query, 25);
    assert_eq!(batched.len(), 25);
    check_members("sampling 41", &batched, &expected).unwrap();
    assert!(stats.batches > 0, "{stats:?}");
    assert!(
        stats.cache_hits > 0,
        "episodes share prefixes; the walk must hit the memo table: {stats:?}"
    );
}

#[test]
fn quickstart_query_reports_batching_and_cache_hits() {
    // The acceptance query: the crate-level quickstart (phone-number
    // extraction) must show the batched cost model in its stats.
    let (tok, lm) = fixture();
    let query = SearchQuery::new(
        QueryString::new("my phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})")
            .with_prefix("my phone number is"),
    )
    .with_policy(DecodingPolicy::top_k(40));
    let client = Relm::new(&lm, tok).expect("client");
    let mut results = client.search(&query).expect("search");
    let first = (&mut results).take(1).next().expect("a match");
    assert!(first.text.starts_with("my phone number is "));
    let stats = results.stats();
    assert!(stats.batches > 0, "{stats:?}");
    assert!(stats.cache_hits > 0, "{stats:?}");
    assert!(stats.cache_misses > 0, "{stats:?}");
    assert_eq!(
        stats.batched_contexts, stats.cache_misses,
        "every miss is evaluated in exactly one batch: {stats:?}"
    );
}

#[test]
fn batched_mode_does_strictly_less_model_work() {
    // The systems claim: caching + dedup means the engine evaluates
    // fewer distinct contexts than the traversal requests, on a
    // traversal that revisits prefixes.
    let (tok, lm) = fixture();
    let client = Relm::new(&lm, tok).expect("client");
    let mut results = client.search(&pinned_query()).expect("search");
    let _ = (&mut results).take(6).count();
    let stats = results.stats();
    assert!(
        stats.cache_misses < stats.lm_calls,
        "model evaluations {} should undercut scoring requests {}",
        stats.cache_misses,
        stats.lm_calls
    );
}

/// The work one fixed query does, reduced to what a rewrite of the
/// per-expansion code must leave untouched: which nodes are expanded,
/// which contexts are requested, how they split into hits, misses and
/// batches, and the score bits of what comes out.
fn pinned_work(query: &SearchQuery, take: usize) -> ([u64; 6], Vec<u64>) {
    let (tok, lm) = fixture();
    // An explicit worker count: `Parallelism::auto()` widens Dijkstra's
    // frontier prefetch with the host's cores, and with it the batch and
    // hit counts.
    let client = Relm::builder(&lm, tok)
        .config(relm::SessionConfig::new().with_parallelism(relm::Parallelism::Serial))
        .build()
        .expect("client");
    let mut results = client.search(query).expect("search");
    let bits = (&mut results)
        .take(take)
        .map(|m| m.log_prob.to_bits())
        .collect();
    let s = results.stats();
    let counts = [
        s.expansions,
        s.lm_calls,
        s.emitted,
        s.cache_hits,
        s.cache_misses,
        s.batches,
    ];
    (counts, bits)
}

fn pinned_query() -> SearchQuery {
    SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"))
}

// Counts are `[expansions, lm_calls, emitted, cache_hits, cache_misses,
// batches]`.

#[test]
fn shortest_path_work_counts_are_pinned() {
    let query = pinned_query().with_policy(DecodingPolicy::top_k(2));
    let (counts, bits) = pinned_work(&query, 10);
    assert_eq!(counts, [9, 9, 2, 2, 8, 7]);
    assert_eq!(bits, [0xbfef6f8be16d64ed, 0xc000d86357c8fd90]);
}

#[test]
fn beam_work_counts_are_pinned() {
    let query = pinned_query().with_strategy(SearchStrategy::Beam { width: 4 });
    let (counts, bits) = pinned_work(&query, 10);
    assert_eq!(counts, [21, 21, 5, 1, 20, 8]);
    assert_eq!(
        bits,
        [
            0xbfef6f8be16d64ed,
            0xc000d86357c8fd90,
            0xc000fa0f2350d7dd,
            0xc027e57c9285db74,
            0xc02c212f0740a14f,
        ]
    );
}

#[test]
fn sampling_work_counts_are_pinned() {
    let query = pinned_query().with_strategy(SearchStrategy::RandomSampling { seed: 41 });
    // The three most probable matches, as the beam ranks them above.
    const A: u64 = 0xbfef6f8be16d64ed;
    const B: u64 = 0xc000d86357c8fd90;
    const C: u64 = 0xc000fa0f2350d7dd;
    let (counts, bits) = pinned_work(&query, 12);
    assert_eq!(counts, [48, 96, 12, 98, 14, 14]);
    assert_eq!(bits, [A, C, A, A, A, A, A, A, B, A, B, C]);
}

#[test]
fn beam_checks_only_the_matches_pulled() {
    let (tok, lm) = fixture();
    let client = Relm::new(&lm, tok).expect("client");
    let query = pinned_query().with_strategy(SearchStrategy::Beam { width: 16 });
    let pull = |take: usize| -> (Vec<(String, u64)>, relm::ExecutionStats) {
        let mut results = client.search(&query).expect("search");
        let got = (&mut results)
            .take(take)
            .map(|m| (m.text, m.log_prob.to_bits()))
            .collect();
        (got, results.stats())
    };
    let (_, one) = pull(1);
    assert_eq!(one.emitted, 1, "one pull, one checked match: {one:?}");
    let (all, _) = pull(usize::MAX);
    assert_eq!(all.len(), pinned_texts().len());
    for n in 0..=all.len() {
        assert_eq!(pull(n).0, all[..n], "take({n}) is a prefix of the drain");
    }
}
