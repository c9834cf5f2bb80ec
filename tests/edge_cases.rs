//! Failure-injection and edge-case tests across the public API: weird
//! patterns, degenerate corpora, adversarial query configurations. The
//! client must degrade with clean errors or empty results — never panic,
//! hang, or emit out-of-language strings.

#![forbid(unsafe_code)]

use relm::compiler::{compile_canonical, CanonicalLimits};
use relm::{
    explain, BpeTokenizer, DecodingPolicy, NGramConfig, NGramLm, Preprocessor, QueryString, Regex,
    Relm, RelmError, SearchQuery, SearchStrategy, TokenId, TokenizationStrategy,
};

fn tiny() -> Relm<NGramLm> {
    let corpus = "hello world. goodbye world.";
    let tok = BpeTokenizer::train(corpus, 30);
    let lm = NGramLm::train(
        &tok,
        &["hello world", "goodbye world"],
        NGramConfig::small(),
    );
    Relm::new(lm, tok).expect("tiny fixture builds")
}

#[test]
fn invalid_patterns_surface_as_errors() {
    let client = tiny();
    for bad in ["a(", "a)", "[z-a]", "a{3,1}", "*a", "a{", "ab\\"] {
        let err = client
            .search(&SearchQuery::new(QueryString::new(bad)))
            .err()
            .unwrap_or_else(|| panic!("{bad:?} should fail to parse"));
        assert!(matches!(err, RelmError::Regex(_)), "{bad:?}: {err}");
        assert_eq!(
            err.kind(),
            relm::RelmErrorKind::Pattern,
            "{bad:?} classifies as a pattern error"
        );
    }
}

#[test]
fn empty_pattern_matches_empty_string() {
    let client = tiny();
    let results: Vec<_> = client
        .search(&SearchQuery::new(QueryString::new("")))
        .unwrap()
        .take(2)
        .collect();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].text, "");
    assert!(results[0].tokens.is_empty());
}

#[test]
fn zero_max_tokens_is_rejected() {
    let client = tiny();
    let query = SearchQuery::new(QueryString::new("hello")).with_max_tokens(0);
    assert!(matches!(
        client.search(&query),
        Err(RelmError::InvalidQuery(_))
    ));
}

#[test]
fn pattern_longer_than_model_window_yields_nothing_gracefully() {
    let client = tiny();
    // 500 letters — far beyond max_sequence_len.
    let long = "x".repeat(500);
    let query = SearchQuery::new(QueryString::new(relm::escape(&long)));
    let results: Vec<_> = client.search(&query).unwrap().take(1).collect();
    assert!(results.is_empty());
}

#[test]
fn untrained_model_still_searches() {
    // A model trained on nothing: pure uniform floor.
    let tok = BpeTokenizer::train("", 0);
    let lm = NGramLm::train(&tok, &[], NGramConfig::small());
    let client = Relm::new(lm, tok).unwrap();
    let query = SearchQuery::new(QueryString::new("(a)|(b)"));
    let results: Vec<_> = client.search(&query).unwrap().take(5).collect();
    assert_eq!(
        results.len(),
        2,
        "uniform model still enumerates the language"
    );
}

#[test]
fn non_ascii_bytes_round_trip_through_queries() {
    // UTF-8 multibyte text goes through as raw bytes.
    let corpus = "caf\u{e9} au lait. caf\u{e9} noir.";
    let tok = BpeTokenizer::train(corpus, 40);
    let lm = NGramLm::train(
        &tok,
        &["caf\u{e9} au lait", "caf\u{e9} noir"],
        NGramConfig::xl(),
    );
    let client = Relm::new(lm, tok).unwrap();
    let query = SearchQuery::new(QueryString::new(relm::escape("caf\u{e9} noir")));
    let m = client.search(&query).unwrap().next().expect("match");
    assert_eq!(m.text, "caf\u{e9} noir");
}

#[test]
fn top_k_one_on_flat_model_prunes_everything_but_one_path() {
    let tok = BpeTokenizer::train("", 0);
    let lm = NGramLm::train(&tok, &[], NGramConfig::small());
    let client = Relm::new(lm, tok).unwrap();
    // Uniform distribution + greedy: ties break by token id, so exactly
    // one byte survives each step; the language {a, b} may be fully
    // pruned or keep one member, never both.
    let query = SearchQuery::new(QueryString::new("(a)|(b)")).with_policy(DecodingPolicy::greedy());
    let results: Vec<_> = client.search(&query).unwrap().take(5).collect();
    assert!(results.len() <= 1);
}

#[test]
fn conflicting_filters_empty_the_language_cleanly() {
    let client = tiny();
    let all = Regex::compile("(hello)|(world)").unwrap().dfa().clone();
    let query = SearchQuery::new(QueryString::new("(hello)|(world)"))
        .with_preprocessor(Preprocessor::filter(all));
    assert_eq!(client.search(&query).err(), Some(RelmError::EmptyLanguage));
}

#[test]
fn deferred_filter_that_rejects_everything_exhausts_attempts() {
    let client = tiny();
    let all = Regex::compile("[a-z ]*").unwrap().dfa().clone();
    let query = SearchQuery::new(QueryString::new("hello( world)?"))
        .with_strategy(SearchStrategy::RandomSampling { seed: 1 })
        .with_preprocessor(Preprocessor::deferred_filter(all));
    // Every sample is filtered; the iterator must terminate empty.
    let results: Vec<_> = client.search(&query).unwrap().take(3).collect();
    assert!(results.is_empty());
}

#[test]
fn beam_width_one_terminates_on_infinite_languages() {
    let client = tiny();
    let query = SearchQuery::new(QueryString::new("h[a-z]*"))
        .with_strategy(SearchStrategy::Beam { width: 1 })
        .with_max_tokens(8);
    let results: Vec<_> = client.search(&query).unwrap().collect();
    let re = Regex::compile("h[a-z]*").unwrap();
    for m in &results {
        assert!(re.is_match(&m.text));
    }
}

#[test]
fn explain_matches_execution_reality() {
    let client = tiny();
    let query = SearchQuery::new(QueryString::new("hello( world)?").with_prefix("hello"));
    let plan = explain(&query, client.tokenizer(), 128).unwrap();
    assert!(plan.prefix_machine.is_some());
    // The plan compiled, so the search must too.
    let results: Vec<_> = client.search(&query).unwrap().take(4).collect();
    assert!(!results.is_empty());
}

#[test]
fn all_encodings_of_multibyte_language_stay_sound() {
    let client = tiny();
    let query = SearchQuery::new(QueryString::new("(hello)|(world)"))
        .with_tokenization(TokenizationStrategy::All)
        .with_distinct_texts(false);
    let results: Vec<_> = client.search(&query).unwrap().take(40).collect();
    assert!(
        results.len() > 2,
        "ambiguous encodings should multiply results"
    );
    for m in &results {
        assert!(m.text == "hello" || m.text == "world", "{:?}", m.text);
        assert_eq!(client.tokenizer().decode(&m.tokens), m.text);
    }
    // Every token sequence distinct even when texts repeat.
    let mut seen = std::collections::HashSet::new();
    for m in &results {
        assert!(seen.insert(m.tokens.clone()), "duplicate token path");
    }
}

#[test]
fn levenshtein_of_empty_pattern_is_inserts_only() {
    let client = tiny();
    let query = SearchQuery::new(QueryString::new(""))
        .with_preprocessor(Preprocessor::levenshtein(1))
        .with_max_tokens(4);
    // Within 1 edit of ε = ε plus every single character.
    let results: Vec<_> = client.search(&query).unwrap().take(50).collect();
    assert!(results.iter().any(|m| m.text.is_empty()));
    assert!(results.iter().all(|m| m.text.len() <= 1));
}

#[test]
fn every_executor_reaches_the_model_sequence_cap() {
    // A context is EOS plus the tokens so far, so under a 4-token window
    // a path of three tokens is the longest any executor can score its
    // way to: "abcd" is out of reach, "abc" is not.
    let tok = BpeTokenizer::train("abcd. abc. ab. a", 0);
    let config = NGramConfig {
        max_sequence_len: 4,
        ..NGramConfig::xl()
    };
    let lm = NGramLm::train(&tok, &["abcd", "abc", "ab", "a"], config);
    let client = Relm::new(lm, tok).unwrap();
    let base = SearchQuery::new(QueryString::new("(a)|(ab)|(abc)|(abcd)"));
    let texts = |query: SearchQuery, take: usize| -> std::collections::BTreeSet<String> {
        client
            .search(&query)
            .unwrap()
            .take(take)
            .map(|m| m.text)
            .collect()
    };
    let expected: std::collections::BTreeSet<String> = ["a", "ab", "abc"].map(String::from).into();
    assert_eq!(texts(base.clone(), 10), expected, "dijkstra");
    assert_eq!(
        texts(
            base.clone()
                .with_strategy(SearchStrategy::RandomSampling { seed: 7 }),
            200
        ),
        expected,
        "sampling"
    );
    assert_eq!(
        texts(base.with_strategy(SearchStrategy::Beam { width: 64 }), 10),
        expected,
        "beam"
    );
}

/// A client whose model is trained on nothing: every byte is equally
/// likely, so samples often hold bytes that are not UTF-8.
fn untrained() -> Relm<NGramLm> {
    let tok = BpeTokenizer::train("", 0);
    let lm = NGramLm::train(&tok, &[], NGramConfig::small());
    Relm::new(lm, tok).expect("untrained fixture builds")
}

/// The bytes `tokens` spell, without any UTF-8 decoding.
fn spelled(tokenizer: &BpeTokenizer, tokens: &[TokenId]) -> Vec<u8> {
    tokens
        .iter()
        .flat_map(|&t| tokenizer.token_bytes(t).iter().copied())
        .collect()
}

#[test]
fn canonical_compile_keeps_every_byte_of_the_language() {
    // `.` matches every byte but `\n`, so half of the 255 strings of
    // `a.` are not UTF-8: each is still one canonical token path.
    let client = tiny();
    let tok = client.tokenizer();
    let char_dfa = Regex::compile("a.").unwrap().dfa().clone();
    let compiled = compile_canonical(&char_dfa, tok, CanonicalLimits::default());
    assert!(!compiled.needs_canonical_check);
    let paths = compiled.automaton.enumerate(8, 1024);
    assert_eq!(paths.len(), 255);
    for path in &paths {
        let bytes = spelled(tok, path);
        assert!(
            char_dfa.contains(bytes.iter().map(|&b| u32::from(b))),
            "{bytes:?} is outside the language"
        );
    }
}

#[test]
fn a_lone_high_byte_is_its_own_canonical_encoding() {
    let client = tiny();
    let tok = client.tokenizer();
    assert!(tok.is_canonical(&[TokenId::from(b'a'), 0x80]));
    assert!(tok.is_canonical(&[0xff]));
    assert!(tok.is_canonical(&tok.encode("hello world")));
}

#[test]
fn runtime_canonicity_check_reads_the_bytes() {
    // An infinite language falls back to the full automaton and the
    // runtime canonicity check, which must pass byte strings that are
    // not UTF-8.
    let client = untrained();
    let query = SearchQuery::new(QueryString::new("a.+"))
        .with_strategy(SearchStrategy::RandomSampling { seed: 5 })
        .with_max_tokens(3)
        .with_distinct_texts(false);
    let results: Vec<_> = client.search(&query).unwrap().take(20).collect();
    assert_eq!(results.len(), 20);
    let tok = client.tokenizer();
    assert!(results
        .iter()
        .any(|m| std::str::from_utf8(&spelled(tok, &m.tokens)).is_err()));
    for m in &results {
        assert!(m.canonical, "{:?}", m.tokens);
        assert!(tok.is_canonical(&m.tokens), "{:?}", m.tokens);
    }
}

#[test]
fn deferred_filters_test_the_body_bytes() {
    // The filter's language is the query's: every sample is rejected,
    // whichever byte follows the `a`.
    let client = untrained();
    let filter = Regex::compile("a.").unwrap().dfa().clone();
    let query = SearchQuery::new(QueryString::new("a."))
        .with_strategy(SearchStrategy::RandomSampling { seed: 3 })
        .with_tokenization(TokenizationStrategy::All)
        .with_preprocessor(Preprocessor::deferred_filter(filter));
    let results: Vec<_> = client.search(&query).unwrap().take(3).collect();
    assert!(results.is_empty(), "{:?}", results[0].tokens);
}
