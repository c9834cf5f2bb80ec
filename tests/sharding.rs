//! Sharding determinism: the parallel compile and parallel frontier
//! paths must be invisible in every output.
//!
//! * sharded compilation (subset-construction waves, quotient
//!   determinization, the shortcut-edge vocabulary scan, the canonical
//!   encode) produces **structurally identical** automata to the serial
//!   reference path — checked both on fixed patterns and under proptest;
//! * `Parallelism::Serial` and `Parallelism::Sharded(n)` clients return
//!   **byte-identical** results (f64-bit comparison on scores) for all
//!   three executors, one query at a time and under `run_many`.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use relm::{
    BpeTokenizer, DecodingPolicy, MatchResult, NGramConfig, NGramLm, Parallelism, QuerySet,
    QueryString, Regex, Relm, SearchQuery, SearchStrategy, SessionConfig, TokenizationStrategy,
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

/// f64-bit equality on whole match lists: text, tokens, prefix split,
/// canonicity, and the score's exact bit pattern.
fn assert_bit_identical(label: &str, a: &[MatchResult], b: &[MatchResult]) {
    assert_eq!(a.len(), b.len(), "{label}: match counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.text, y.text, "{label}[{i}]: text");
        assert_eq!(x.tokens, y.tokens, "{label}[{i}]: tokens");
        assert_eq!(x.prefix_len, y.prefix_len, "{label}[{i}]: prefix_len");
        assert_eq!(x.canonical, y.canonical, "{label}[{i}]: canonical");
        assert_eq!(
            x.log_prob.to_bits(),
            y.log_prob.to_bits(),
            "{label}[{i}]: log_prob bits ({} vs {})",
            x.log_prob,
            y.log_prob
        );
    }
}

#[test]
fn serial_and_sharded_executors_are_byte_identical() {
    let (tok, lm) = fixture();
    let serial = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::Serial))
        .build()
        .unwrap();
    let sharded = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::sharded(4)))
        .build()
        .unwrap();
    let workloads: Vec<(&str, SearchQuery, usize)> = vec![
        ("dijkstra", url_query(), 5),
        (
            "dijkstra_full_encodings",
            url_query().with_tokenization(TokenizationStrategy::All),
            5,
        ),
        (
            "beam16",
            url_query().with_strategy(SearchStrategy::Beam { width: 16 }),
            5,
        ),
        (
            // Wide enough (64 paths x ~376-token vocabulary) to clear
            // the beam executor's level-work spawn gate, so the sharded
            // client really fans the expansion across workers.
            "beam64_full_encodings",
            url_query()
                .with_tokenization(TokenizationStrategy::All)
                .with_strategy(SearchStrategy::Beam { width: 64 }),
            5,
        ),
        (
            "sampling",
            url_query().with_strategy(SearchStrategy::RandomSampling { seed: 7 }),
            8,
        ),
    ];
    for (label, query, take) in &workloads {
        let a: Vec<MatchResult> = serial.search(query).unwrap().take(*take).collect();
        let b: Vec<MatchResult> = sharded.search(query).unwrap().take(*take).collect();
        assert!(!a.is_empty(), "{label}: no matches");
        assert_bit_identical(label, &a, &b);
    }
}

#[test]
fn serial_and_sharded_run_many_are_byte_identical() {
    let (tok, lm) = fixture();
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
    let serial = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::Serial))
        .build()
        .unwrap();
    let sharded = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::sharded(3)))
        .build()
        .unwrap();
    let a = serial.run_many(&set).unwrap();
    let b = sharded.run_many(&set).unwrap();
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_bit_identical(&format!("run_many[{i}]"), &x.matches, &y.matches);
    }
    // And run_many matches one-at-a-time execution under both settings.
    for (client, report) in [(&serial, &a), (&sharded, &b)] {
        for (spec, outcome) in set.specs().iter().zip(&report.outcomes) {
            let alone: Vec<MatchResult> = client
                .search(&spec.query)
                .unwrap()
                .take(spec.max_results)
                .collect();
            assert_bit_identical("run_many_vs_alone", &outcome.matches, &alone);
        }
    }
}

#[test]
fn plan_memo_eviction_still_triggers_with_walk_table_accounting() {
    // Regression for the plan memo's byte accounting: executing a
    // sampling plan under a parallel setting materializes the walk
    // table *after* the memo insert; the re-cost on the next memo hit
    // must charge it and still enforce the configured budget with
    // evictions.
    let (tok, lm) = fixture();
    let probe = Relm::builder(&lm, tok.clone())
        .config(SessionConfig::new().with_parallelism(Parallelism::sharded(4)))
        .build()
        .unwrap();
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
        .config(
            SessionConfig::new()
                .with_parallelism(Parallelism::sharded(4))
                .with_plan_memo_bytes(budget),
        )
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

#[test]
fn sharded_compile_produces_structurally_identical_dfas() {
    let (tok, _lm) = fixture();
    use relm::compiler::{
        compile_canonical, compile_canonical_with, compile_full, compile_full_with, CanonicalLimits,
    };
    let char_dfa = Regex::compile("see https://www\\.([a-z]|\\.|/)+ ((cat)|(dog))")
        .unwrap()
        .dfa()
        .clone();
    let serial = compile_full(&char_dfa, &tok);
    for threads in [2usize, 4, 7] {
        assert_eq!(
            serial,
            compile_full_with(&char_dfa, &tok, Parallelism::sharded(threads)),
            "compile_full threads={threads}"
        );
    }
    let finite = Regex::compile("[a-z][a-z][0-9]").unwrap().dfa().clone();
    let a = compile_canonical(&finite, &tok, CanonicalLimits::default());
    let b = compile_canonical_with(
        &finite,
        &tok,
        CanonicalLimits::default(),
        Parallelism::sharded(4),
    );
    assert_eq!(a.automaton, b.automaton);
    assert_eq!(a.needs_canonical_check, b.needs_canonical_check);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random word-alternation patterns compile to structurally
    /// identical token automata under every worker count.
    #[test]
    fn proptest_sharded_compile_matches_serial(
        words in proptest::collection::vec("[a-z]{2,8}", 2..8),
        threads in 2usize..6,
    ) {
        let corpus = words.join(" ");
        let tok = BpeTokenizer::train(&corpus, 60);
        let pattern = words
            .iter()
            .map(|w| format!("({w})"))
            .collect::<Vec<_>>()
            .join("|");
        let char_dfa = Regex::compile(&pattern).unwrap().dfa().clone();
        let serial = relm::compiler::compile_full(&char_dfa, &tok);
        let sharded = relm::compiler::compile_full_with(
            &char_dfa,
            &tok,
            Parallelism::sharded(threads),
        );
        prop_assert_eq!(serial, sharded);
    }

    /// Random alternation queries return byte-identical shortest-path
    /// results under serial and sharded clients.
    #[test]
    fn proptest_serial_vs_sharded_search(
        words in proptest::collection::vec("[a-z]{2,6}", 2..6),
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        let docs: Vec<String> = words.iter().map(|w| format!("{w} end")).collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 50);
        let lm = NGramLm::train(&tok, &doc_refs, NGramConfig::small());
        let pattern = words
            .iter()
            .map(|w| format!("({w})"))
            .collect::<Vec<_>>()
            .join("|");
        let query = SearchQuery::new(QueryString::new(format!("({pattern}) end")))
            .with_max_tokens(12);
        let sampling = query
            .clone()
            .with_strategy(SearchStrategy::RandomSampling { seed });
        let serial = Relm::builder(&lm, tok.clone())
            .config(SessionConfig::new().with_parallelism(Parallelism::Serial))
            .build()
            .unwrap();
        let sharded = Relm::builder(&lm, tok.clone())
            .config(SessionConfig::new().with_parallelism(Parallelism::sharded(threads)))
            .build()
            .unwrap();
        for q in [&query, &sampling] {
            let a: Vec<MatchResult> = serial.search(q).unwrap().take(4).collect();
            let b: Vec<MatchResult> = sharded.search(q).unwrap().take(4).collect();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.text, &y.text);
                prop_assert_eq!(x.log_prob.to_bits(), y.log_prob.to_bits());
            }
        }
    }
}
