//! The executors against a brute-force reference (`oracle/reference.rs`)
//! on tiny finite languages: Dijkstra must emit exactly the admissible
//! matches in non-increasing probability, a beam at least as wide as the
//! language the same set, and the sampler only members of it — every
//! score bit for bit.
//!
//! Worlds are small enough to enumerate: a word pool, the query
//! `disjunction_of(escape(word))` over it (optionally behind a literal
//! prefix), both tokenization strategies, a spread of decoding policies,
//! with and without `require_eos`, token budgets down to the shortest
//! match, and a deferred filter over one text. The release build runs
//! the property test at a higher case count than the debug build of the
//! tier-1 suite.

#![forbid(unsafe_code)]

#[path = "oracle/reference.rs"]
mod reference;

use std::collections::BTreeSet;

use proptest::prelude::*;
use relm::{
    disjunction_of, escape, BpeTokenizer, DecodingPolicy, MatchResult, NGramConfig, NGramLm,
    Preprocessor, QueryString, Regex, Relm, SearchQuery, SearchStrategy, TokenizationStrategy,
};

use reference::{check_exact, check_members, reference, reference_with, Rules, Scored};

/// A query over `texts` (every one starting with `prefix`, if given),
/// with its reference set and the beam width that keeps every partial
/// path of the unfiltered language alive.
struct Case<'w> {
    lm: &'w NGramLm,
    tok: &'w BpeTokenizer,
    query: SearchQuery,
    reference: BTreeSet<Scored>,
    full_width: usize,
}

impl<'w> Case<'w> {
    fn new(
        lm: &'w NGramLm,
        tok: &'w BpeTokenizer,
        pattern: &str,
        texts: &[String],
        prefix: Option<&str>,
        tokenization: TokenizationStrategy,
        policy: DecodingPolicy,
    ) -> Self {
        let rules = Rules::new(tokenization, policy);
        Case::with_rules(lm, tok, pattern, texts, prefix, rules)
    }

    fn with_rules(
        lm: &'w NGramLm,
        tok: &'w BpeTokenizer,
        pattern: &str,
        texts: &[String],
        prefix: Option<&str>,
        rules: Rules,
    ) -> Self {
        let mut query_string = QueryString::new(pattern);
        if let Some(prefix) = prefix {
            query_string = query_string.with_prefix(escape(prefix));
        }
        // Count token sequences, not texts, under every encoding.
        let mut query = SearchQuery::new(query_string)
            .with_tokenization(rules.tokenization)
            .with_policy(rules.policy)
            .with_distinct_texts(rules.tokenization == TokenizationStrategy::Canonical);
        if rules.require_eos {
            query = query.with_eos_termination();
        }
        if let Some(max_tokens) = rules.max_tokens {
            query = query.with_max_tokens(max_tokens);
        }
        if let Some(text) = &rules.dropped {
            // Deferred filters read the body's bytes.
            let body = text.strip_prefix(prefix.unwrap_or("")).expect("prefixed");
            let language = Regex::compile(&escape(body)).expect("filter").dfa().clone();
            query = query.with_preprocessor(Preprocessor::deferred_filter(language));
        }
        let unfiltered = reference(
            lm,
            tok,
            texts,
            prefix,
            rules.tokenization,
            DecodingPolicy::unfiltered(),
        );
        Case {
            lm,
            tok,
            query,
            reference: reference_with(lm, tok, texts, prefix, &rules),
            // A level holds at most one partial path per sequence of the
            // unfiltered language, twice over while a path bridges from
            // the prefix machine into the body.
            full_width: 2 * unfiltered.len() + 2,
        }
    }

    fn run(&self, strategy: SearchStrategy, take: usize) -> Vec<MatchResult> {
        Relm::new(self.lm, self.tok.clone())
            .expect("client")
            .search(&self.query.clone().with_strategy(strategy))
            .expect("search")
            .take(take)
            .collect()
    }

    fn check_shortest(&self) -> Result<(), String> {
        let results = self.run(SearchStrategy::ShortestPath, usize::MAX);
        check_exact("dijkstra", &results, &self.reference)
    }

    fn check_beam(&self) -> Result<(), String> {
        let width = self.full_width;
        let results = self.run(SearchStrategy::Beam { width }, usize::MAX);
        check_exact(&format!("beam {width}"), &results, &self.reference)
    }

    fn check_sampling(&self, seed: u64, take: usize) -> Result<(), String> {
        let results = self.run(SearchStrategy::RandomSampling { seed }, take);
        check_members(&format!("sampling {seed}"), &results, &self.reference)
    }

    fn check_all(&self, seed: u64) -> Result<(), String> {
        self.check_shortest()?;
        self.check_beam()?;
        self.check_sampling(seed, 12)
    }
}

/// The world of `tests/scoring_engine.rs`.
fn scoring_engine_world() -> (BpeTokenizer, NGramLm) {
    let docs = [
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the dog sat on the log",
        "the cow ate the grass",
        "my phone number is 555 555 5555",
        "my phone number is 555 867 5309",
    ];
    let tok = BpeTokenizer::train(&docs.join(". "), 120);
    let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
    (tok, lm)
}

/// `tests/scoring_engine.rs`'s query and its six texts.
const PINNED_PATTERN: &str = "the ((cat)|(dog)|(cow)) ((sat)|(ate))";

fn pinned_texts() -> Vec<String> {
    let mut texts = Vec::new();
    for animal in ["cat", "dog", "cow"] {
        for verb in ["sat", "ate"] {
            texts.push(format!("the {animal} {verb}"));
        }
    }
    texts
}

fn pinned_case<'w>(
    lm: &'w NGramLm,
    tok: &'w BpeTokenizer,
    tokenization: TokenizationStrategy,
    policy: DecodingPolicy,
) -> Case<'w> {
    let texts = pinned_texts();
    Case::new(
        lm,
        tok,
        PINNED_PATTERN,
        &texts,
        Some("the"),
        tokenization,
        policy,
    )
}

#[test]
fn pinned_shortest_path_query_matches_the_oracle() {
    let (tok, lm) = scoring_engine_world();
    for tokenization in [TokenizationStrategy::Canonical, TokenizationStrategy::All] {
        let case = pinned_case(&lm, &tok, tokenization, DecodingPolicy::top_k(40));
        assert!(!case.reference.is_empty());
        case.check_shortest().unwrap();
    }
}

#[test]
fn pinned_beam_query_matches_the_oracle() {
    let (tok, lm) = scoring_engine_world();
    let case = pinned_case(
        &lm,
        &tok,
        TokenizationStrategy::Canonical,
        DecodingPolicy::unfiltered(),
    );
    assert_eq!(case.reference.len(), 6);
    case.check_beam().unwrap();
    // The width the scoring-engine test runs at is wide enough too.
    let results = case.run(SearchStrategy::Beam { width: 16 }, usize::MAX);
    check_exact("beam 16", &results, &case.reference).unwrap();
}

#[test]
fn pinned_sampling_query_matches_the_oracle() {
    let (tok, lm) = scoring_engine_world();
    for tokenization in [TokenizationStrategy::Canonical, TokenizationStrategy::All] {
        let case = pinned_case(&lm, &tok, tokenization, DecodingPolicy::unfiltered());
        let results = case.run(SearchStrategy::RandomSampling { seed: 41 }, 25);
        assert_eq!(results.len(), 25);
        check_members("sampling 41", &results, &case.reference).unwrap();
    }
}

#[test]
fn pruning_policies_shrink_the_pinned_language() {
    // A policy that bites must be visible to the oracle — otherwise the
    // property test below could not tell a dropped filter apart.
    let (tok, lm) = scoring_engine_world();
    let full = pinned_case(
        &lm,
        &tok,
        TokenizationStrategy::Canonical,
        DecodingPolicy::unfiltered(),
    );
    let greedy = pinned_case(
        &lm,
        &tok,
        TokenizationStrategy::Canonical,
        DecodingPolicy::greedy(),
    );
    assert!(greedy.reference.len() < full.reference.len());
    assert!(greedy.reference.is_subset(&full.reference));
    greedy.check_all(7).unwrap();
}

#[test]
fn canonical_matches_are_among_all_encodings() {
    let (tok, lm) = scoring_engine_world();
    let policy = DecodingPolicy::top_k(40);
    let canonical = pinned_case(&lm, &tok, TokenizationStrategy::Canonical, policy);
    let all = pinned_case(&lm, &tok, TokenizationStrategy::All, policy);
    assert!(canonical.reference.is_subset(&all.reference));
    assert!(canonical.reference.len() < all.reference.len());
}

/// The five cat/dog/cow documents, and a tokenizer trained on them with
/// 120 merges.
fn cat_world() -> (BpeTokenizer, NGramLm) {
    let docs = [
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the cat sat on the mat",
        "the dog sat on the log",
        "the cow ate the grass",
    ];
    let tok = BpeTokenizer::train(&docs.join(". "), 120);
    let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
    (tok, lm)
}

/// `the ((cat)|(dog)) sat` in [`cat_world`] under `rules`.
fn cat_case<'w>(lm: &'w NGramLm, tok: &'w BpeTokenizer, rules: Rules) -> Case<'w> {
    let texts = vec!["the cat sat".to_string(), "the dog sat".to_string()];
    Case::with_rules(lm, tok, "the ((cat)|(dog)) sat", &texts, None, rules)
}

#[test]
fn every_executor_keeps_matches_exactly_max_tokens_long() {
    let (tok, lm) = cat_world();
    let mut rules = Rules::new(
        TokenizationStrategy::Canonical,
        DecodingPolicy::unfiltered(),
    );
    rules.max_tokens = Some(tok.encode("the cat sat").len());
    let case = cat_case(&lm, &tok, rules);
    assert_eq!(case.reference.len(), 1, "only the cat fits the budget");
    case.check_shortest().unwrap();
    case.check_beam().unwrap();
    let sampled = case.run(SearchStrategy::RandomSampling { seed: 3 }, 12);
    assert_eq!(sampled.len(), 12);
    check_members("sampling 3", &sampled, &case.reference).unwrap();
}

#[test]
fn every_executor_pays_the_required_eos_step() {
    let (tok, lm) = cat_world();
    let mut rules = Rules::new(
        TokenizationStrategy::Canonical,
        DecodingPolicy::unfiltered(),
    );
    rules.require_eos = true;
    let case = cat_case(&lm, &tok, rules);
    assert_eq!(case.reference.len(), 2);
    case.check_shortest().unwrap();
    case.check_beam().unwrap();
    let sampled = case.run(SearchStrategy::RandomSampling { seed: 3 }, 12);
    assert_eq!(sampled.len(), 12);
    check_members("sampling 3", &sampled, &case.reference).unwrap();
}

/// At a temperature other than 1 every executor scores a match on the
/// policy's scaled rows, as the reference does: Dijkstra and beam sum
/// the view's values, and the sampler's emitted `log_prob` (scored after
/// the draw) reads the same view, the required EOS step included.
#[test]
fn every_executor_scores_on_the_policys_temperature_scale() {
    let (tok, lm) = cat_world();
    for require_eos in [false, true] {
        let mut rules = Rules::new(
            TokenizationStrategy::Canonical,
            DecodingPolicy::unfiltered().with_temperature(0.5),
        );
        rules.require_eos = require_eos;
        let case = cat_case(&lm, &tok, rules);
        assert_eq!(case.reference.len(), 2, "require_eos {require_eos}");
        case.check_shortest().unwrap();
        case.check_beam().unwrap();
        let sampled = case.run(SearchStrategy::RandomSampling { seed: 3 }, 12);
        assert_eq!(sampled.len(), 12);
        check_members("sampling 3", &sampled, &case.reference).unwrap();
    }
}

/// The decoding policies the property test draws from: unfiltered, three
/// top-k cutoffs and a nucleus.
fn policy(choice: usize) -> DecodingPolicy {
    match choice {
        0 => DecodingPolicy::unfiltered(),
        1 => DecodingPolicy::greedy(),
        2 => DecodingPolicy::top_k(3),
        3 => DecodingPolicy::top_k(8),
        _ => DecodingPolicy::top_p(0.9),
    }
}

/// A world whose language is `words`, each behind `prefix` when given:
/// the tokenizer is trained on the language and the model on it with
/// the first text repeated, so some continuations are sharper than
/// others and some tie.
fn word_world(words: &[String], prefix: Option<&str>) -> (Vec<String>, BpeTokenizer, NGramLm) {
    let texts: BTreeSet<String> = words
        .iter()
        .map(|word| match prefix {
            Some(prefix) => format!("{prefix} {word}"),
            None => word.clone(),
        })
        .collect();
    let texts: Vec<String> = texts.into_iter().collect();
    let mut docs: Vec<&str> = texts.iter().map(String::as_str).collect();
    docs.push(docs[0]);
    let tok = BpeTokenizer::train(&docs.join(". "), 16);
    let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
    (texts, tok, lm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]

    /// Random word sets, with and without a prefix, under both
    /// tokenizations, every policy, with and without `require_eos`, a
    /// token budget from the shortest match's length up (or none), and
    /// a deferred filter over one text (or none): all three executors
    /// agree with the brute-force reference.
    #[test]
    fn proptest_executors_match_the_oracle(
        words in proptest::collection::vec("[a-c.]{1,4}", 1..7),
        prefixed in 0usize..2,
        all_encodings in 0usize..2,
        policy_choice in 0usize..5,
        require_eos in 0usize..2,
        budget in 0usize..5,
        dropped in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let prefix = (prefixed == 1).then_some("so");
        let (texts, tok, lm) = word_world(&words, prefix);
        let tokenization = if all_encodings == 1 {
            TokenizationStrategy::All
        } else {
            TokenizationStrategy::Canonical
        };
        let mut rules = Rules::new(tokenization, policy(policy_choice));
        rules.require_eos = require_eos == 1;
        // Budgets 0..=3 step from the shortest match's length to one
        // past the longest; 4 leaves the budget unset.
        let lengths: Vec<usize> = reference(
            &lm,
            &tok,
            &texts,
            prefix,
            tokenization,
            DecodingPolicy::unfiltered(),
        )
        .iter()
        .map(|(tokens, _)| tokens.len())
        .collect();
        let shortest = lengths.iter().copied().min().expect("a match");
        let longest = lengths.iter().copied().max().expect("a match");
        rules.max_tokens = (budget < 4).then(|| shortest + (longest + 1 - shortest) * budget / 3);
        rules.dropped = texts.get(dropped).cloned();
        let case = Case::with_rules(
            &lm,
            &tok,
            &disjunction_of(&texts),
            &texts,
            prefix,
            rules,
        );
        case.check_all(seed)?;
    }
}
