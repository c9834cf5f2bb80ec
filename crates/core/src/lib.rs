//! ReLM: a Regular Expression engine for Language Models.
//!
//! This crate is the heart of the ReLM-rs workspace — the system of
//! Kuchnik, Smith & Amvrosiadis, *"Validating Large Language Models with
//! ReLM"* (MLSys 2023). A ReLM **query** combines
//!
//! 1. a formal language description (a regular expression),
//! 2. a language model,
//! 3. decoding/decision rules (top-k, top-p, temperature), and
//! 4. a traversal algorithm (shortest path or random sampling),
//!
//! and the engine returns the strings in the *intersection* of the regex
//! language `L_r` and the model's language `L_m`, ordered by the
//! traversal.
//!
//! The pipeline mirrors Figure 2 of the paper: the regex is parsed into a
//! character-level *Natural Language Automaton*; optional
//! [`Preprocessor`]s (Levenshtein edits, filters) transform it; the
//! [graph compiler](compiler) lowers it into an *LLM automaton* in token
//! space — either the **full set of encodings** (shortcut-edge
//! construction, Appendix B) or **canonical encodings only**; finally the
//! [executor](SearchResults) walks the LLM automaton against the model.
//!
//! # Quickstart
//!
//! The public API centers on the [`Relm`] client: one handle owning the
//! model, tokenizer, plan memo, and scoring cache.
//!
//! ```
//! use relm_bpe::BpeTokenizer;
//! use relm_core::{QueryString, Relm, SearchQuery};
//! use relm_lm::{DecodingPolicy, NGramConfig, NGramLm};
//!
//! let corpus = "my phone number is 555 555 5555. call me anytime.";
//! let tokenizer = BpeTokenizer::train(corpus, 60);
//! let model = NGramLm::train(&tokenizer, &[corpus], NGramConfig::xl());
//! let client = Relm::builder(model, tokenizer).build()?;
//!
//! let query = SearchQuery::new(QueryString::new(
//!     "my phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
//! )
//! .with_prefix("my phone number is"))
//! .with_policy(DecodingPolicy::top_k(40));
//!
//! let results = client.search(&query)?;
//! let first = results.take(1).next().expect("a match");
//! assert!(first.text.starts_with("my phone number is "));
//! # Ok::<(), relm_core::RelmError>(())
//! ```
//!
//! Batches of heterogeneous queries go through [`Relm::run_many`],
//! which scores the whole [`QuerySet`] through one shared engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod compiler;
mod error;
mod executor;
mod explain;
mod preprocess;
mod query;
mod results;
mod session;

pub use client::{QueryCompletion, QueryDriver, QueryOutcome, QuerySetReport, Relm, RelmBuilder};
pub use error::{RelmError, RelmErrorKind};
pub use executor::{CompiledSearch, ExecutionStats, SearchResults};
pub use explain::{explain, MachineShape, QueryPlan};
pub use preprocess::Preprocessor;
pub use query::{
    PrefixSampling, QueryId, QuerySet, QuerySpec, QueryString, SearchQuery, SearchStrategy,
    TokenizationStrategy,
};
/// Deterministic pseudo-random word fixtures for tests that need wide
/// automata: words with no common structure, so minimization cannot
/// collapse them.
#[cfg(test)]
pub(crate) fn test_lexicon(seed: u64, words: usize, len: usize) -> Vec<String> {
    let mut state = seed;
    let mut out: Vec<String> = (0..words)
        .map(|_| {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    char::from(b'a' + ((state >> 33) % 26) as u8)
                })
                .collect()
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// A client with nothing memoized, for the executors' unit tests: every
/// search through it is cold.
#[cfg(test)]
pub(crate) fn cold_client<'m, M: relm_lm::LanguageModel>(
    lm: &'m M,
    tok: &relm_bpe::BpeTokenizer,
) -> Relm<&'m M> {
    Relm::new(lm, tok.clone()).unwrap()
}
pub use results::MatchResult;
pub use session::{PlanSource, SessionConfig, SessionStats};
