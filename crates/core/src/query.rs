//! The ReLM query API (§3.4, Figures 4 and 11 of the paper).

use relm_lm::DecodingPolicy;

use crate::preprocess::Preprocessor;

/// The textual part of a query: the full pattern and an optional prefix.
///
/// As in the paper's Figures 4 and 11, `pattern` describes the **entire**
/// matching strings (prefix included) and `prefix` names the leading
/// sub-language that acts as conditioning context. The prefix is itself a
/// regular expression; it is part of every match but bypasses the
/// decoding rules (§3.3) — conditioning context is "defined to be in the
/// language". The engine derives the generated suffix as the left
/// quotient `prefix⁻¹ · L(pattern)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryString {
    /// The full pattern (including any prefix text).
    pub pattern: String,
    /// Optional prefix pattern; must match a prefix of some string in
    /// `pattern`'s language.
    pub prefix: Option<String>,
}

impl QueryString {
    /// A query over `pattern` with no prefix (unconditional generation).
    pub fn new(pattern: impl Into<String>) -> Self {
        QueryString {
            pattern: pattern.into(),
            prefix: None,
        }
    }

    /// Attach a prefix pattern (conditional generation).
    #[must_use]
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = Some(prefix.into());
        self
    }
}

/// How the executor traverses the LLM automaton (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Dijkstra shortest path over `−log p`: yields matches in
    /// non-increasing probability order. Used for extraction
    /// (memorization, toxicity) and inference (LAMBADA).
    ShortestPath,
    /// Randomized traversal: prefixes are sampled uniformly over prefix
    /// *strings* (walk-count weighting), suffixes by the model. Used to
    /// estimate distributions (bias). The seed makes runs reproducible.
    RandomSampling {
        /// RNG seed.
        seed: u64,
    },
    /// Level-synchronous beam search with batched frontier scoring —
    /// bounded memory and parallel model calls, at the cost of
    /// completeness (paths outside the beam are lost). The decoding-time
    /// relative of ReLM discussed in §5.
    Beam {
        /// Maximum number of partial paths kept per step (≥ 1).
        width: usize,
    },
}

/// Which token encodings of each string the LLM automaton represents
/// (§3.2, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TokenizationStrategy {
    /// Canonical encodings only — conditional-generation semantics
    /// (Figure 3b). The default, matching common practice.
    #[default]
    Canonical,
    /// The full (ambiguous) set of encodings — unconditional-generation
    /// semantics (Figure 3a), built with the shortcut-edge compiler.
    All,
}

/// How prefix edges are weighted during random sampling (§3.3 and
/// Figure 9 / Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefixSampling {
    /// Weigh each edge by the number of accepting walks through it:
    /// uniform over prefix strings. The correct default.
    #[default]
    Normalized,
    /// Uniform over outgoing edges — the naive scheme the paper shows
    /// front-loads edits (kept for the Fig 9 ablation).
    UniformEdges,
}

/// A complete ReLM query: pattern, decoding rules, traversal, encodings,
/// and preprocessors.
///
/// Built with a non-consuming builder, mirroring the Python API of
/// Figure 11 (`SimpleSearchQuery`).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchQuery {
    /// The pattern and optional prefix.
    pub query_string: QueryString,
    /// Traversal algorithm.
    pub strategy: SearchStrategy,
    /// Token-encoding semantics.
    pub tokenization: TokenizationStrategy,
    /// Decoding/decision rules applied to non-prefix steps.
    pub policy: DecodingPolicy,
    /// Hard cap on total tokens per match (prefix + body). `None` uses
    /// the model's max sequence length.
    pub max_tokens: Option<usize>,
    /// Prefix edge weighting for random sampling.
    pub prefix_sampling: PrefixSampling,
    /// Preprocessors applied to the Natural Language Automaton, in order.
    pub preprocessors: Vec<Preprocessor>,
    /// Cap on Dijkstra node expansions (guards runaway searches).
    pub max_expansions: usize,
    /// Require matches to terminate with the model's EOS token — the
    /// `terminated` strategy of §4.4 (a completion must be a *final*
    /// word, not the start of a longer continuation).
    pub require_eos: bool,
    /// When `true` (default), shortest-path search emits each *string*
    /// once, even if several token encodings reach it — "ReLM avoids
    /// these costly duplicates by construction" (§4.1). Set `false` to
    /// count token sequences instead (the §4.3 unprompted-volume
    /// measurement).
    pub distinct_texts: bool,
}

impl SearchQuery {
    /// A query with the default execution parameters: shortest path,
    /// canonical encodings, unfiltered decoding.
    pub fn new(query_string: QueryString) -> Self {
        SearchQuery {
            query_string,
            strategy: SearchStrategy::ShortestPath,
            tokenization: TokenizationStrategy::default(),
            policy: DecodingPolicy::unfiltered(),
            max_tokens: None,
            prefix_sampling: PrefixSampling::default(),
            preprocessors: Vec::new(),
            max_expansions: 100_000,
            require_eos: false,
            distinct_texts: true,
        }
    }

    /// Set the traversal strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the tokenization strategy.
    #[must_use]
    pub fn with_tokenization(mut self, tokenization: TokenizationStrategy) -> Self {
        self.tokenization = tokenization;
        self
    }

    /// Set the decoding policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DecodingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the per-match token cap.
    #[must_use]
    pub fn with_max_tokens(mut self, max_tokens: usize) -> Self {
        self.max_tokens = Some(max_tokens);
        self
    }

    /// Set the prefix-sampling mode.
    #[must_use]
    pub fn with_prefix_sampling(mut self, mode: PrefixSampling) -> Self {
        self.prefix_sampling = mode;
        self
    }

    /// Append a preprocessor (applied in insertion order).
    #[must_use]
    pub fn with_preprocessor(mut self, preprocessor: Preprocessor) -> Self {
        self.preprocessors.push(preprocessor);
        self
    }

    /// Set the expansion cap for shortest-path search.
    #[must_use]
    pub fn with_max_expansions(mut self, max_expansions: usize) -> Self {
        self.max_expansions = max_expansions;
        self
    }

    /// Require EOS termination (the `terminated` strategy of §4.4).
    #[must_use]
    pub fn with_eos_termination(mut self) -> Self {
        self.require_eos = true;
        self
    }

    /// Control string-level deduplication of shortest-path results.
    #[must_use]
    pub fn with_distinct_texts(mut self, distinct: bool) -> Self {
        self.distinct_texts = distinct;
        self
    }
}

/// Stable identity of one query admitted to a [`crate::QueryDriver`] —
/// the handle an open-world driver (the serving layer's admission loop)
/// uses to route completions back to their submitter and to cancel a
/// query whose client went away. Ids are unique within one driver and
/// never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub(crate) u64);

impl QueryId {
    /// The raw id (unique within its driver).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One query of a [`QuerySet`]: the query plus how many matches
/// [`crate::Relm::run_many`] should collect from it. The cap is
/// mandatory because sampling streams never terminate on their own — it
/// is the multi-query analogue of `Iterator::take`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QuerySpec {
    /// The query to run.
    pub query: SearchQuery,
    /// Maximum matches to collect (the `take` bound of the query).
    pub max_results: usize,
}

impl QuerySpec {
    /// A spec collecting up to `max_results` matches of `query`.
    pub fn new(query: SearchQuery, max_results: usize) -> Self {
        QuerySpec { query, max_results }
    }
}

/// An ordered batch of heterogeneous queries submitted together through
/// [`crate::Relm::run_many`], which executes them against **one shared
/// scoring engine**, so a score one query memoized is a hit for every
/// other. Per-query results come back in submission order,
/// byte-identical to running each query alone.
///
/// # Example
///
/// ```
/// use relm_core::{QuerySet, QueryString, SearchQuery};
///
/// let set = QuerySet::new()
///     .with_query(SearchQuery::new(QueryString::new("the cat")), 1)
///     .with_query(SearchQuery::new(QueryString::new("the dog")), 1);
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QuerySet {
    specs: Vec<QuerySpec>,
}

impl QuerySet {
    /// An empty query set.
    pub fn new() -> Self {
        QuerySet::default()
    }

    /// Append a query collecting up to `max_results` matches (builder
    /// form).
    #[must_use]
    pub fn with_query(mut self, query: SearchQuery, max_results: usize) -> Self {
        self.push(query, max_results);
        self
    }

    /// Append a query collecting up to `max_results` matches.
    pub fn push(&mut self, query: SearchQuery, max_results: usize) {
        self.specs.push(QuerySpec::new(query, max_results));
    }

    /// The specs, in submission (and result) order.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Number of queries in the set.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the set holds no queries.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl FromIterator<(SearchQuery, usize)> for QuerySet {
    fn from_iter<I: IntoIterator<Item = (SearchQuery, usize)>>(iter: I) -> Self {
        QuerySet {
            specs: iter
                .into_iter()
                .map(|(query, max_results)| QuerySpec::new(query, max_results))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_string_carries_prefix() {
        let q = QueryString::new("The ((cat)|(dog))").with_prefix("The ");
        assert_eq!(q.prefix.as_deref(), Some("The "));
        assert!(QueryString::new("x").prefix.is_none());
    }

    #[test]
    fn builder_chains() {
        let q = SearchQuery::new(QueryString::new("a"))
            .with_strategy(SearchStrategy::RandomSampling { seed: 3 })
            .with_tokenization(TokenizationStrategy::All)
            .with_policy(DecodingPolicy::top_k(40))
            .with_max_tokens(16)
            .with_prefix_sampling(PrefixSampling::UniformEdges)
            .with_max_expansions(10);
        assert_eq!(q.strategy, SearchStrategy::RandomSampling { seed: 3 });
        assert_eq!(q.tokenization, TokenizationStrategy::All);
        assert_eq!(q.policy.top_k, Some(40));
        assert_eq!(q.max_tokens, Some(16));
        assert_eq!(q.prefix_sampling, PrefixSampling::UniformEdges);
        assert_eq!(q.max_expansions, 10);
    }

    #[test]
    fn defaults_match_paper_conventions() {
        let q = SearchQuery::new(QueryString::new("a"));
        assert_eq!(q.strategy, SearchStrategy::ShortestPath);
        assert_eq!(q.tokenization, TokenizationStrategy::Canonical);
        assert_eq!(q.policy, DecodingPolicy::unfiltered());
        assert!(q.preprocessors.is_empty());
        assert!(!q.require_eos);
        assert!(
            SearchQuery::new(QueryString::new("a"))
                .with_eos_termination()
                .require_eos
        );
    }
}
