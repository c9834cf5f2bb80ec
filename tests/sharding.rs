//! Plan-memo byte accounting of execute-time artifacts: a walk table
//! built after a plan was memoized is charged to it on the next memo
//! hit, and the memo's byte budget still holds by eviction.

#![forbid(unsafe_code)]

use relm::{
    BpeTokenizer, DecodingPolicy, NGramConfig, NGramLm, QueryString, Relm, SearchQuery,
    SearchStrategy, SessionConfig,
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

#[test]
fn plan_memo_eviction_still_triggers_with_walk_table_accounting() {
    // Regression for the plan memo's byte accounting: executing a
    // sampling plan materializes the walk table *after* the memo
    // insert; the re-cost on the next memo hit must charge it and still
    // enforce the configured budget with evictions.
    let (tok, lm) = fixture();
    let probe = Relm::builder(&lm, tok.clone()).build().unwrap();
    let sampling = url_query().with_strategy(SearchStrategy::RandomSampling { seed: 3 });
    probe.plan(&sampling).unwrap();
    let at_insert = probe.stats().plan_bytes;
    let _ = probe.search(&sampling).unwrap().take(3).count();
    probe.plan(&sampling).unwrap(); // memo hit: re-costs the entry
    let recharged = probe.stats().plan_bytes;
    assert!(
        recharged > at_insert,
        "execute-time artifacts must be charged on the next hit: {at_insert} -> {recharged}"
    );

    // A budget sized for ~1.5 recharged plans: compiling and executing
    // three query families must evict rather than blow the budget.
    let budget = recharged + recharged / 2;
    let (tok, lm) = fixture();
    let client = Relm::builder(&lm, tok)
        .config(SessionConfig::new().with_plan_memo_bytes(budget))
        .build()
        .unwrap();
    for pattern in [
        "https://www\\.([a-z]|\\.|/)+",
        "see https://www\\.([a-z]|\\.|/)+",
        "the ((cat)|(dog)|(cow)) ((sat)|(ate))",
    ] {
        let q = SearchQuery::new(QueryString::new(pattern).with_prefix(&pattern[..3]))
            .with_strategy(SearchStrategy::RandomSampling { seed: 9 })
            .with_max_tokens(16);
        // Some prefixes may not be valid prefixes of the language; only
        // valid plans exercise the memo.
        if let Ok(mut results) = client.search(&q) {
            let _ = (&mut results).take(2).count();
        }
        let _ = client.plan(&q); // hit: re-cost under the budget
        let stats = client.stats();
        assert!(
            stats.plan_bytes <= budget,
            "budget violated: {} > {budget}",
            stats.plan_bytes
        );
    }
}
