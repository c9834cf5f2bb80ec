//! Public-API surface snapshot: the facade's re-export list is part of
//! the contract. Adding a name is a deliberate act (update the snapshot
//! in the same commit); *losing* a name is a breaking change this test
//! turns into a build failure instead of a downstream surprise.
//!
//! The test parses `src/lib.rs` textually — Rust has no reflection over
//! re-exports — so it also pins the facade's structure: every public
//! name must come from a `pub use` (or the two `pub mod` namespaces).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::Path;

/// Names re-exported by every `pub use ...::{...}` (or single-name
/// `pub use ...::name;`) item in the facade, plus `pub mod` namespaces.
fn exported_names(source: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    // Strip line comments (doc comments included) first.
    let code: String = source
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let mut rest = code.as_str();
    while let Some(start) = rest.find("pub use ") {
        let after = &rest[start + "pub use ".len()..];
        let end = after.find(';').expect("unterminated pub use");
        let item = &after[..end];
        let leaf_list = match item.find('{') {
            Some(brace) => item[brace + 1..].trim_end_matches('}').to_string(),
            None => item
                .rsplit("::")
                .next()
                .expect("path has a leaf")
                .to_string(),
        };
        for name in leaf_list.split(',') {
            let name = name.trim();
            // Glob re-exports only occur inside the `pub mod` namespace
            // wrappers, which the snapshot tracks as `mod <name>`.
            if !name.is_empty() && name != "*" {
                names.insert(name.to_string());
            }
        }
        rest = &after[end..];
    }
    let mut rest = code.as_str();
    while let Some(start) = rest.find("pub mod ") {
        let after = &rest[start + "pub mod ".len()..];
        let end = after
            .find(|c: char| !c.is_alphanumeric() && c != '_')
            .unwrap_or(after.len());
        names.insert(format!("mod {}", &after[..end]));
        rest = &after[end..];
    }
    names
}

#[test]
fn facade_reexport_list_matches_snapshot() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs");
    let source = std::fs::read_to_string(path).expect("facade source readable");
    let actual = exported_names(&source);

    let expected: BTreeSet<String> = [
        // namespaces
        "mod datasets",
        "mod serve",
        "mod stats",
        // relm-automata
        "ascii_alphabet",
        "concat",
        "dfa_to_dot",
        "levenshtein_within",
        "reverse",
        "str_symbols",
        "Dfa",
        "Nfa",
        "Parallelism",
        "StateId",
        "Symbol",
        "WalkChoice",
        "WalkTable",
        "WorkerPool",
        // relm-bpe
        "pretokenize",
        "BpeTokenizer",
        "TokenId",
        // relm-core: the client API
        "Relm",
        "RelmBuilder",
        "QuerySet",
        "QuerySpec",
        "QueryOutcome",
        "QuerySetReport",
        // relm-core: the open-world driver behind the serving layer
        "QueryCompletion",
        "QueryDriver",
        "QueryId",
        // relm-core: queries, plans, sessions
        "compiler",
        "explain",
        "CompiledSearch",
        "ExecutionStats",
        "MachineShape",
        "MatchResult",
        "PlanSource",
        "PrefixSampling",
        "Preprocessor",
        "QueryPlan",
        "QueryString",
        "RelmError",
        "RelmErrorKind",
        "SearchQuery",
        "SearchResults",
        "SearchStrategy",
        "SessionConfig",
        "SessionStats",
        "TokenizationStrategy",
        // relm-lm
        "pooled_scores",
        "sample_sequence",
        "score_batch",
        "sequence_log_prob",
        "AcceleratorSim",
        "DecodingPolicy",
        "LanguageModel",
        "NGramConfig",
        "NGramLm",
        "NeuralLm",
        "NeuralLmConfig",
        "ScoringEngine",
        "ScoringStats",
        "SharedCacheStats",
        "SharedScoringCache",
        // relm-regex
        "disjunction_of",
        "escape",
        "Regex",
        // relm-store: the warm-artifact store
        "ArtifactKey",
        "CacheArtifact",
        "PlanArtifact",
        "PlanStore",
        "StoreError",
        "FORMAT_VERSION",
    ]
    .into_iter()
    .map(String::from)
    .collect();

    let missing: Vec<&String> = expected.difference(&actual).collect();
    let unexpected: Vec<&String> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "facade surface drifted.\n  missing (breaking!): {missing:?}\n  \
         unexpected (update the snapshot deliberately): {unexpected:?}"
    );
}

/// The new client API really is reachable through the facade (a
/// compile-time check that the snapshot names resolve).
#[test]
fn client_api_resolves_through_the_facade() {
    fn assert_type<T>() {}
    assert_type::<relm::Relm<relm::NGramLm>>();
    assert_type::<relm::RelmBuilder<relm::NGramLm>>();
    assert_type::<relm::QuerySet>();
    assert_type::<relm::QuerySpec>();
    assert_type::<relm::QueryOutcome>();
    assert_type::<relm::QuerySetReport>();
    assert_type::<relm::RelmErrorKind>();
}
