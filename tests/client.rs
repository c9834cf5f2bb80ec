//! Integration tests for the `Relm` client — the redesigned public
//! entry point. Two invariants are enforced **bit-for-bit** (including
//! the f64 score bits):
//!
//! 1. `Relm::search` produces results byte-identical to
//!    `RelmSession::search`, cold and warm, for all three executor
//!    types;
//! 2. `Relm::run_many` produces, per query, results byte-identical to
//!    running the same queries sequentially — even under scoring-cache
//!    eviction pressure and across model swaps — while its shared
//!    engine records cross-query coalesced batches that sequential
//!    execution can never produce.

#![forbid(unsafe_code)]

use relm::{
    BpeTokenizer, DecodingPolicy, LanguageModel, MatchResult, NGramConfig, NGramLm, QuerySet,
    QueryString, Relm, RelmSession, SearchQuery, SearchStrategy, SessionConfig,
};

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

/// Exact comparison including the f64 score bits: "byte-identical".
fn assert_identical(a: &[MatchResult], b: &[MatchResult], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.tokens, y.tokens, "{label}: tokens differ");
        assert_eq!(x.text, y.text, "{label}: text differs");
        assert_eq!(x.prefix_len, y.prefix_len, "{label}: prefix_len differs");
        assert_eq!(x.canonical, y.canonical, "{label}: canonical differs");
        assert_eq!(
            x.log_prob.to_bits(),
            y.log_prob.to_bits(),
            "{label}: log_prob bits differ ({} vs {})",
            x.log_prob,
            y.log_prob
        );
    }
}

fn strategies() -> [(&'static str, SearchStrategy); 3] {
    [
        ("dijkstra", SearchStrategy::ShortestPath),
        ("beam", SearchStrategy::Beam { width: 16 }),
        ("sampling", SearchStrategy::RandomSampling { seed: 41 }),
    ]
}

fn mixed_set() -> QuerySet {
    let mut set = QuerySet::new();
    // Fig5-style structured extraction (Dijkstra).
    set.push(
        SearchQuery::new(
            QueryString::new("my phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})")
                .with_prefix("my phone number is"),
        )
        .with_policy(DecodingPolicy::top_k(40)),
        3,
    );
    // Fig7-style template sampling.
    set.push(
        SearchQuery::new(
            QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
        )
        .with_strategy(SearchStrategy::RandomSampling { seed: 9 }),
        8,
    );
    // Beam over the same family plus a distinct pattern.
    set.push(
        SearchQuery::new(
            QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
        )
        .with_strategy(SearchStrategy::Beam { width: 16 }),
        4,
    );
    set.push(
        SearchQuery::new(QueryString::new("the cow ate the grass")),
        1,
    );
    set
}

/// Sequential ground truth for a set: each query alone via take(n).
fn run_sequentially<M: relm::LanguageModel>(
    client: &Relm<M>,
    set: &QuerySet,
) -> Vec<Vec<MatchResult>> {
    set.specs()
        .iter()
        .map(|spec| {
            client
                .search(&spec.query)
                .unwrap()
                .take(spec.max_results)
                .collect()
        })
        .collect()
}

#[test]
fn client_search_is_byte_identical_to_session() {
    let (tok, lm) = fixture();
    let client = Relm::new(&lm, tok.clone()).unwrap();
    let session = RelmSession::new(&lm, tok.clone());
    for (label, strategy) in strategies() {
        let query = SearchQuery::new(
            QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
        )
        .with_policy(DecodingPolicy::top_k(40))
        .with_strategy(strategy);
        let via_session: Vec<MatchResult> = session.search(&query).unwrap().take(10).collect();
        let via_client: Vec<MatchResult> = client.search(&query).unwrap().take(10).collect();
        // And a warm client pass (plan memo + scoring cache now hot).
        let warm: Vec<MatchResult> = client.search(&query).unwrap().take(10).collect();
        assert!(
            !via_session.is_empty(),
            "{label}: fixture must produce matches"
        );
        assert_identical(
            &via_session,
            &via_client,
            &format!("{label} session-vs-client"),
        );
        assert_identical(
            &via_session,
            &warm,
            &format!("{label} session-vs-warm-client"),
        );
    }
    assert!(client.stats().plan_hits > 0, "client memoized the plan");
}

#[test]
fn run_many_is_byte_identical_to_sequential_per_query() {
    let (tok, lm) = fixture();
    let set = mixed_set();
    // Sequential ground truth on one fresh client...
    let sequential_client = Relm::new(&lm, tok.clone()).unwrap();
    let expected = run_sequentially(&sequential_client, &set);
    // ...vs the coalescing driver on another fresh client.
    let client = Relm::new(&lm, tok).unwrap();
    let report = client.run_many(&set).unwrap();
    assert_eq!(report.outcomes.len(), set.len());
    for (i, (outcome, exp)) in report.outcomes.iter().zip(&expected).enumerate() {
        assert_identical(&outcome.matches, exp, &format!("query {i}"));
    }
    // The whole point: scoring was shared across queries.
    assert!(
        report.scoring.cross_query_batches > 0,
        "expected cross-query shared batches: {:?}",
        report.scoring
    );
    assert!(report.scoring.mean_batch_size() >= 1.0);
    // ...by coalescing ticks that really ran (the warm-up ticks always
    // do), and every outcome carries the same driver-wide tick counters.
    let first = report.outcomes[0].stats;
    assert!(first.coalesce_ticks > 0, "{first:?}");
    for outcome in &report.outcomes {
        assert_eq!(outcome.stats.coalesce_ticks, first.coalesce_ticks);
        assert_eq!(
            outcome.stats.coalesce_ticks_skipped,
            first.coalesce_ticks_skipped
        );
    }
}

#[test]
fn run_many_is_byte_identical_under_eviction_pressure() {
    let (tok, lm) = fixture();
    let set = mixed_set();
    let expected = run_sequentially(&Relm::new(&lm, tok.clone()).unwrap(), &set);
    // A scoring cache so small that eviction churns constantly (one
    // distribution is vocab_size * 8 bytes), plus a tiny plan memo.
    let tiny = SessionConfig::new()
        .with_scoring_cache_bytes((lm.vocab_size() * 8 + 256) * 4)
        .with_plan_memo_capacity(2);
    let client = Relm::builder(&lm, tok).config(tiny).build().unwrap();
    for round in 0..3 {
        let report = client.run_many(&set).unwrap();
        for (i, (outcome, exp)) in report.outcomes.iter().zip(&expected).enumerate() {
            assert_identical(&outcome.matches, exp, &format!("round {round} query {i}"));
        }
    }
    let stats = client.stats();
    assert!(
        stats.scoring.evictions > 0,
        "the tiny budget must force evictions: {stats:?}"
    );
}

#[test]
fn run_many_is_byte_identical_across_model_swaps() {
    let (tok, _) = fixture();
    let cat_docs = ["the cat sat on the mat", "the cat sat on the mat"];
    let dog_docs = ["the dog sat on the log", "the dog sat on the log"];
    let cat_lm = NGramLm::train(&tok, &cat_docs, NGramConfig::xl());
    let dog_lm = NGramLm::train(&tok, &dog_docs, NGramConfig::xl());
    let mut set = QuerySet::new();
    set.push(
        SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat").with_prefix("the")),
        2,
    );
    set.push(
        SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat").with_prefix("the"))
            .with_strategy(SearchStrategy::RandomSampling { seed: 3 }),
        5,
    );

    let mut client = Relm::new(&cat_lm, tok.clone()).unwrap();
    let before = client.run_many(&set).unwrap();
    let expected_cat = run_sequentially(&Relm::new(&cat_lm, tok.clone()).unwrap(), &set);
    for (outcome, exp) in before.outcomes.iter().zip(&expected_cat) {
        assert_identical(&outcome.matches, exp, "pre-swap");
    }

    // Swap to the dog model: the generation bump must prevent any
    // cat-model distribution from leaking into the new run.
    client.swap_model(&dog_lm).unwrap();
    let after = client.run_many(&set).unwrap();
    let expected_dog = run_sequentially(&Relm::new(&dog_lm, tok).unwrap(), &set);
    for (outcome, exp) in after.outcomes.iter().zip(&expected_dog) {
        assert_identical(&outcome.matches, exp, "post-swap");
    }
    assert_eq!(after.outcomes[0].matches[0].text, "the dog sat");
    assert_eq!(before.outcomes[0].matches[0].text, "the cat sat");
}
