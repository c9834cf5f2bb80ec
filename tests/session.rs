//! Integration and property tests for the state a `Relm` client keeps
//! across queries: warm-client results must be **byte-identical** to
//! cold results (a fresh client per run) for all three executors,
//! the plan memo and shared scoring cache must report their reuse, and
//! neither eviction pressure nor a model swap (generation bump) may ever
//! serve a stale or cross-model distribution.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use relm::{
    BpeTokenizer, DecodingPolicy, MatchResult, NGramConfig, NGramLm, Preprocessor, QueryString,
    Relm, SearchQuery, SearchStrategy, SessionConfig,
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

/// The cold reference: a fresh client, nothing memoized.
fn cold_client<'m>(lm: &'m NGramLm, tok: &BpeTokenizer) -> Relm<&'m NGramLm> {
    Relm::new(lm, tok.clone()).unwrap()
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

#[test]
fn warm_session_is_byte_identical_to_cold_for_all_executors() {
    let (tok, lm) = fixture();
    let session = Relm::new(&lm, tok.clone()).unwrap();
    for (label, strategy) in strategies() {
        let query = SearchQuery::new(
            QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
        )
        .with_policy(DecodingPolicy::top_k(40))
        .with_strategy(strategy);
        let cold: Vec<MatchResult> = cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(10)
            .collect();
        // First session pass: plans compile, cache fills.
        let first: Vec<MatchResult> = session.search(&query).unwrap().take(10).collect();
        // Second pass: plan memo hit + warm scoring cache.
        let mut warm_iter = session.search(&query).unwrap();
        let warm: Vec<MatchResult> = (&mut warm_iter).take(10).collect();
        assert!(!cold.is_empty(), "{label}: fixture must produce matches");
        assert_identical(&cold, &first, &format!("{label} cold-vs-first"));
        assert_identical(&cold, &warm, &format!("{label} cold-vs-warm"));
        let stats = warm_iter.stats();
        assert!(
            stats.plan_cache_hits > 0,
            "{label}: warm pass must hit the plan memo: {stats:?}"
        );
    }
    let stats = session.stats();
    // The traversal strategy is an execution flag, not part of the plan
    // key: all three executors share ONE compilation of this pattern.
    assert_eq!(stats.plan_misses, 1, "{stats:?}");
    assert_eq!(stats.plan_hits, 5, "{stats:?}");
    assert!(stats.scoring.hits > 0, "{stats:?}");
}

#[test]
fn warm_session_matches_cold_under_preprocessors_and_all_encodings() {
    let (tok, lm) = fixture();
    let session = Relm::new(&lm, tok.clone()).unwrap();
    let query = SearchQuery::new(QueryString::new("the cat"))
        .with_tokenization(relm::TokenizationStrategy::All)
        .with_preprocessor(Preprocessor::levenshtein(1))
        .with_max_tokens(12);
    let cold: Vec<MatchResult> = cold_client(&lm, &tok)
        .search(&query)
        .unwrap()
        .take(15)
        .collect();
    let _ = session.search(&query).unwrap().take(15).count();
    let warm: Vec<MatchResult> = session.search(&query).unwrap().take(15).collect();
    assert!(!cold.is_empty());
    assert_identical(&cold, &warm, "levenshtein+all-encodings");
    assert_eq!(session.stats().plan_hits, 1);
}

#[test]
fn eviction_pressure_never_changes_results() {
    let (tok, lm) = fixture();
    // A scoring cache so small that eviction churns constantly (one
    // distribution is vocab_size * 8 bytes).
    let tiny = SessionConfig::new()
        .with_scoring_cache_bytes((lm.vocab_size() * 8 + 256) * 4)
        .with_plan_memo_capacity(2);
    let session = Relm::builder(&lm, tok.clone())
        .config(tiny)
        .build()
        .unwrap();
    for (label, strategy) in strategies() {
        let query = SearchQuery::new(
            QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
        )
        .with_strategy(strategy);
        let cold: Vec<MatchResult> = cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(10)
            .collect();
        for round in 0..3 {
            let warm: Vec<MatchResult> = session.search(&query).unwrap().take(10).collect();
            assert_identical(&cold, &warm, &format!("{label} round {round}"));
        }
    }
    let stats = session.stats();
    assert!(
        stats.scoring.evictions > 0,
        "the tiny budget must force evictions: {stats:?}"
    );
    assert!(
        stats.scoring.bytes <= stats.scoring.max_bytes,
        "budget respected: {stats:?}"
    );
}

#[test]
fn model_swap_never_serves_cross_model_distributions() {
    let (tok, _) = fixture();
    let cat_docs = ["the cat sat on the mat", "the cat sat on the mat"];
    let dog_docs = ["the dog sat on the log", "the dog sat on the log"];
    let cat_lm = NGramLm::train(&tok, &cat_docs, NGramConfig::xl());
    let dog_lm = NGramLm::train(&tok, &dog_docs, NGramConfig::xl());
    let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat").with_prefix("the"));

    let mut session = Relm::new(&cat_lm, tok.clone()).unwrap();
    let warm_cat: Vec<MatchResult> = session.search(&query).unwrap().take(2).collect();
    // Warm the cache thoroughly, then swap models.
    let _ = session.search(&query).unwrap().take(2).count();
    let old = session.swap_model(&dog_lm).unwrap();
    assert!(std::ptr::eq(old, &cat_lm));

    let after_swap: Vec<MatchResult> = session.search(&query).unwrap().take(2).collect();
    // Ground truth: a fresh session over the dog model.
    let fresh = Relm::new(&dog_lm, tok.clone()).unwrap();
    let expected: Vec<MatchResult> = fresh.search(&query).unwrap().take(2).collect();
    assert_identical(&expected, &after_swap, "post-swap vs fresh dog session");
    assert_eq!(after_swap[0].text, "the dog sat");
    assert_eq!(warm_cat[0].text, "the cat sat");
    // Plans survived the swap (they depend only on the tokenizer).
    assert!(session.stats().plan_hits >= 2, "{:?}", session.stats());
}

#[test]
fn swapped_out_models_do_not_squat_the_scoring_cache_budget() {
    // Regression: a swap only moved the cache's generation tag, so each
    // outgoing model's rows stayed resident and charged until the clock
    // hand got to them, and a session swapping per query grew to its
    // whole budget in rows nothing could read.
    let (tok, _) = fixture();
    let cat_lm = NGramLm::train(&tok, &["the cat sat on the mat"], NGramConfig::xl());
    let dog_lm = NGramLm::train(&tok, &["the dog sat on the log"], NGramConfig::xl());
    let query = SearchQuery::new(
        QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
    )
    .with_strategy(SearchStrategy::RandomSampling { seed: 9 });

    let mut session = Relm::new(&cat_lm, tok.clone()).unwrap();
    let mut first_round = 0;
    for round in 0..20 {
        let model = if round % 2 == 0 { &dog_lm } else { &cat_lm };
        session.swap_model(model).unwrap();
        assert_eq!(session.stats().scoring.bytes, 0, "round {round}");
        assert!(session.search(&query).unwrap().take(6).count() > 0);
        let bytes = session.stats().scoring.bytes;
        assert!(bytes > 0, "round {round} cached nothing");
        if round == 0 {
            first_round = bytes;
        }
        assert!(
            bytes < 2 * first_round,
            "round {round}: {bytes} bytes against {first_round} in the first"
        );
    }
}

#[test]
fn plan_and_execute_split_reuses_one_compilation() {
    let (tok, lm) = fixture();
    let session = Relm::new(&lm, tok.clone()).unwrap();
    let query = SearchQuery::new(
        QueryString::new("my phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})")
            .with_prefix("my phone number is"),
    )
    .with_policy(DecodingPolicy::top_k(40));
    let plan = session.plan(&query).unwrap();
    assert!(plan.body_states() > 1);
    let a: Vec<MatchResult> = session.execute(&plan).unwrap().take(3).collect();
    let b: Vec<MatchResult> = session.execute(&plan).unwrap().take(3).collect();
    assert!(!a.is_empty());
    assert_identical(&a, &b, "repeated execute of one plan");
    // A cold client's plan/execute pair agrees too.
    let fresh = cold_client(&lm, &tok);
    let fresh_plan = fresh.plan(&query).unwrap();
    let c: Vec<MatchResult> = fresh.execute(&fresh_plan).unwrap().take(3).collect();
    assert_identical(&a, &c, "session vs cold plan/execute");
    assert_eq!(session.stats().plan_misses, 1);
}

#[test]
fn stale_plan_is_rejected_after_tokenizer_swap() {
    let (tok, lm) = fixture();
    let retrained = BpeTokenizer::train("completely different corpus text here", 40);
    let mut session = Relm::new(&lm, tok.clone()).unwrap();
    let query = SearchQuery::new(QueryString::new("the cat"));
    let plan = session.plan(&query).unwrap();
    assert!(session.execute(&plan).is_ok(), "plan valid before the swap");
    let _ = session.swap_tokenizer(retrained).unwrap();
    let err = session.execute(&plan);
    assert!(
        err.is_err(),
        "a plan compiled over the old tokenizer's ids must be refused"
    );
}

#[test]
fn tokenizer_swap_counts_the_dropped_plans_as_evictions() {
    // Regression: the swap replaced the plan memo with a fresh one, so
    // plan_evictions (and plan_recoveries) fell back to 0 and the plans
    // it dropped were never counted.
    let (tok, lm) = fixture();
    let retrained = BpeTokenizer::train("the cat sat on the mat. the dog sat.", 40);
    let config = SessionConfig::new().with_plan_memo_capacity(2);
    let mut session = Relm::builder(&lm, tok).config(config).build().unwrap();
    for pattern in ["the cat", "the dog", "the cow"] {
        session
            .plan(&SearchQuery::new(QueryString::new(pattern)))
            .unwrap();
    }
    let before = session.stats();
    assert_eq!((before.plan_entries, before.plan_evictions), (2, 1));
    session.swap_tokenizer(retrained).unwrap();
    let after = session.stats();
    assert_eq!((after.plan_entries, after.plan_bytes), (0, 0));
    assert!(after.plan_evictions >= before.plan_evictions, "{after:?}");
    assert_eq!(
        after.plan_evictions,
        before.plan_evictions + before.plan_entries as u64,
        "each dropped plan counts as an eviction"
    );
}

#[test]
fn vocab_mismatch_swaps_are_refused() {
    let (tok, lm) = fixture();
    let mut session = Relm::new(&lm, tok.clone()).unwrap();
    // A tokenizer with more merges than the model was trained against
    // has a larger vocabulary: compiled automata would emit token ids
    // the model has no distribution entry for. (Built from an explicit
    // merge table — training on a small corpus exhausts useful merges.)
    let merges: Vec<(relm::TokenId, relm::TokenId)> =
        (0..200u32).map(|i| (i % 256, i / 256)).collect();
    let bigger = BpeTokenizer::from_merges(&merges);
    assert!(bigger.vocab_size() > lm.vocab_size());
    assert!(session.swap_tokenizer(bigger).is_err());
    // Session still works with its original pairing.
    let query = SearchQuery::new(QueryString::new("the cat"));
    assert!(session.search(&query).is_ok());
    // A model with a smaller vocabulary than the tokenizer is refused.
    let tiny_tok = BpeTokenizer::train("ab", 2);
    let tiny_lm = NGramLm::train(&tiny_tok, &["ab"], NGramConfig::xl());
    assert!(tiny_lm.vocab_size() < tok.vocab_size());
    let mut borrowed = Relm::new(&lm, tok.clone()).unwrap();
    assert!(borrowed.swap_model(&tiny_lm).is_err());
}

#[test]
fn max_tokens_sweep_shares_one_walk_table_and_stays_identical() {
    let (tok, lm) = fixture();
    let session = Relm::new(&lm, tok.clone()).unwrap();
    // Sampling queries over one memoized plan with varying budgets: the
    // walk table is rebuilt only when the budget grows, and results
    // still match a cold run exactly.
    for budget in [24usize, 8, 16, 24, 12] {
        let query = SearchQuery::new(
            QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))").with_prefix("the"),
        )
        .with_strategy(SearchStrategy::RandomSampling { seed: 9 })
        .with_max_tokens(budget);
        let cold: Vec<MatchResult> = cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(6)
            .collect();
        let warm: Vec<MatchResult> = session.search(&query).unwrap().take(6).collect();
        assert_identical(&cold, &warm, &format!("budget {budget}"));
    }
    assert_eq!(
        session.stats().plan_misses,
        1,
        "one compilation for the sweep"
    );
}

use relm::LanguageModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random pattern family × every executor: a warm session pass is
    /// byte-identical to a cold run.
    #[test]
    fn warm_equals_cold_for_random_queries(
        animal_a in prop_oneof![Just("cat"), Just("dog"), Just("cow")],
        animal_b in prop_oneof![Just("cat"), Just("dog"), Just("cow")],
        verb in prop_oneof![Just("sat"), Just("ate")],
        k in prop_oneof![Just(5usize), Just(40usize)],
        strategy_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (tok, lm) = fixture();
        let strategy = match strategy_idx {
            0 => SearchStrategy::ShortestPath,
            1 => SearchStrategy::Beam { width: 8 },
            _ => SearchStrategy::RandomSampling { seed },
        };
        let pattern = format!("the (({animal_a})|({animal_b})) {verb}");
        let query = SearchQuery::new(QueryString::new(pattern).with_prefix("the"))
            .with_policy(DecodingPolicy::top_k(k))
            .with_strategy(strategy);
        let cold: Vec<MatchResult> = cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(8)
            .collect();
        let session = Relm::new(&lm, tok.clone()).unwrap();
        let _ = session.search(&query).unwrap().take(8).count(); // fill
        let warm: Vec<MatchResult> = session.search(&query).unwrap().take(8).collect();
        prop_assert_eq!(cold.len(), warm.len());
        for (x, y) in cold.iter().zip(&warm) {
            prop_assert_eq!(&x.tokens, &y.tokens);
            prop_assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits());
        }
    }
}
