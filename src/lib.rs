//! # ReLM-rs — validating large language models with regular expressions
//!
//! A from-scratch Rust reproduction of *"Validating Large Language Models
//! with ReLM"* (Kuchnik, Smith & Amvrosiadis, MLSys 2023). ReLM turns LLM
//! validation tasks — memorization, bias, toxicity, language
//! understanding — into **regular-expression queries** executed directly
//! against the model's decoding process.
//!
//! This crate is the facade: it re-exports the public API of the
//! workspace's subsystem crates. See `README.md` for the architecture
//! tour and `DESIGN.md` for the paper-to-module mapping.
//!
//! The entry point is the [`Relm`] client — it owns the model,
//! tokenizer, compiled-plan memo, and shared scoring cache, and serves
//! single queries ([`Relm::search`]) as well as whole query sets
//! ([`Relm::run_many`], which scores all of them through one engine).
//!
//! ```
//! use relm::{
//!     BpeTokenizer, DecodingPolicy, NGramConfig, NGramLm, QueryString, Relm, SearchQuery,
//! };
//!
//! let corpus = "the cat sat on the mat. the dog sat on the log.";
//! let tokenizer = BpeTokenizer::train(corpus, 60);
//! let model = NGramLm::train(
//!     &tokenizer,
//!     &["the cat sat on the mat", "the dog sat on the log"],
//!     NGramConfig::xl(),
//! );
//! let client = Relm::builder(model, tokenizer).build()?;
//! let query = SearchQuery::new(
//!     QueryString::new("the ((cat)|(dog)) sat").with_prefix("the "),
//! )
//! .with_policy(DecodingPolicy::top_k(40));
//! let texts: Vec<String> = client.search(&query)?
//!     .take(2)
//!     .map(|m| m.text)
//!     .collect();
//! assert_eq!(texts.len(), 2);
//! # Ok::<(), relm::RelmError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use relm_automata::{
    ascii_alphabet, concat, dfa_to_dot, levenshtein_within, reverse, str_symbols, Dfa, Nfa,
    StateId, Symbol, WalkChoice, WalkTable,
};
pub use relm_bpe::{pretokenize, BpeTokenizer, TokenId};
pub use relm_core::{
    compiler, explain, CompiledSearch, ExecutionStats, MachineShape, MatchResult, PlanSource,
    PrefixSampling, Preprocessor, QueryCompletion, QueryDriver, QueryId, QueryOutcome, QueryPlan,
    QuerySet, QuerySetReport, QuerySpec, QueryString, Relm, RelmBuilder, RelmError, RelmErrorKind,
    SearchQuery, SearchResults, SearchStrategy, SessionConfig, SessionStats, TokenizationStrategy,
};
pub use relm_lm::{
    sample_sequence, score_batch, sequence_log_prob, AcceleratorSim, DecodingPolicy, LanguageModel,
    NGramConfig, NGramLm, NeuralLm, NeuralLmConfig, ScoringEngine, ScoringStats, SharedCacheStats,
    SharedScoringCache,
};
pub use relm_regex::{disjunction_of, escape, Regex};
pub use relm_store::{
    ArtifactKey, CacheArtifact, PlanArtifact, PlanStore, StoreError, FORMAT_VERSION,
};

/// The serving front end: a dependency-free TCP protocol server pumping
/// concurrent connections' queries through a [`QueryDriver`] per shard
/// (`RelmServer`, `ServeClient`, the wire protocol).
pub mod serve {
    pub use relm_serve::*;
}

/// Dataset substrates (synthetic corpus, URL world, Pile shard, cloze
/// set, stop words).
pub mod datasets {
    pub use relm_datasets::*;
}

/// Statistics toolkit (χ² tests, empirical distributions, CDFs).
pub mod stats {
    pub use relm_stats::*;
}
