//! Query plans: inspect what the compiler will execute before running it.
//!
//! ReLM queries can silently become expensive (a Levenshtein preprocessor
//! multiplies automaton size; a canonical query over an infinite language
//! falls back to runtime checking). [`explain`] compiles a query without
//! executing it and reports the machine sizes and execution flags, the
//! moral equivalent of SQL's `EXPLAIN`.

use relm_bpe::BpeTokenizer;

use crate::executor::{assemble_compiled, compile_parts};
use crate::query::{SearchQuery, SearchStrategy, TokenizationStrategy};
use crate::RelmError;

/// A compiled-query report. Produced by [`explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// States/transitions of the prefix machine, if a prefix was given.
    pub prefix_machine: Option<MachineShape>,
    /// States/transitions of the body (suffix) machine.
    body_machine: MachineShape,
    /// Whether emitted sequences must pass a runtime canonicity check
    /// (canonical tokenization over a language too large to enumerate).
    runtime_canonical_check: bool,
    /// Number of deferred (runtime) filters.
    pub deferred_filters: usize,
    /// Hard cap on tokens per match.
    pub max_tokens: usize,
    /// Human-readable traversal description.
    traversal: String,
    /// Tokenization strategy recorded for the report.
    pub tokenization: TokenizationStrategy,
}

/// Size of one compiled machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// lint: allow(dead_pub, "the type of QueryPlan::prefix_machine, which tests/edge_cases.rs and tests/store.rs read")
pub struct MachineShape {
    /// Number of automaton states.
    pub states: usize,
    /// Number of token-labelled transitions.
    pub transitions: usize,
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "traversal:  {}", self.traversal)?;
        if let Some(p) = self.prefix_machine {
            writeln!(
                f,
                "prefix:     {} states, {} transitions",
                p.states, p.transitions
            )?;
        }
        writeln!(
            f,
            "body:       {} states, {} transitions",
            self.body_machine.states, self.body_machine.transitions
        )?;
        writeln!(f, "max tokens: {}", self.max_tokens)?;
        writeln!(
            f,
            "canonical:  {}",
            match (self.tokenization, self.runtime_canonical_check) {
                (TokenizationStrategy::All, _) => "all encodings",
                (TokenizationStrategy::Canonical, false) => "exact (enumerated)",
                (TokenizationStrategy::Canonical, true) => "runtime check (fallback)",
            }
        )?;
        write!(f, "filters:    {} deferred", self.deferred_filters)
    }
}

/// Compile `query` and report its execution plan without running it.
///
/// # Errors
///
/// The same errors as [`crate::Relm::plan`]: invalid patterns, empty
/// languages, inconsistent parameters.
pub fn explain(
    query: &SearchQuery,
    tokenizer: &BpeTokenizer,
    max_sequence_len: usize,
) -> Result<QueryPlan, RelmError> {
    let parts = std::sync::Arc::new(compile_parts(query, tokenizer)?);
    let compiled = assemble_compiled(
        query,
        parts,
        max_sequence_len,
        relm_automata::Parallelism::auto(),
    )?;
    Ok(QueryPlan {
        prefix_machine: compiled.parts.prefix.as_ref().map(|p| MachineShape {
            states: p.state_count(),
            transitions: p.transition_count(),
        }),
        body_machine: MachineShape {
            states: compiled.parts.body.automaton.state_count(),
            transitions: compiled.parts.body.automaton.transition_count(),
        },
        runtime_canonical_check: compiled.parts.body.needs_canonical_check,
        deferred_filters: compiled.parts.deferred_filters.len(),
        max_tokens: compiled.max_tokens,
        traversal: match query.strategy {
            SearchStrategy::ShortestPath => "shortest path (Dijkstra)".to_string(),
            SearchStrategy::RandomSampling { seed } => {
                format!("random sampling (seed {seed})")
            }
            SearchStrategy::Beam { width } => format!("beam search (width {width})"),
        },
        tokenization: query.tokenization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryString;
    use crate::Preprocessor;
    use relm_bpe::BpeTokenizer;

    fn tok() -> BpeTokenizer {
        BpeTokenizer::train("the cat sat on the mat", 40)
    }

    #[test]
    fn plan_reports_machine_shapes() {
        let plan = explain(
            &SearchQuery::new(QueryString::new("the ((cat)|(dog))").with_prefix("the ")),
            &tok(),
            64,
        )
        .unwrap();
        assert!(plan.prefix_machine.is_some());
        assert!(plan.body_machine.states > 1);
        assert!(plan.body_machine.transitions >= plan.body_machine.states - 1);
        assert!(!plan.runtime_canonical_check, "finite language enumerates");
    }

    #[test]
    fn infinite_canonical_language_flags_runtime_check() {
        let plan = explain(&SearchQuery::new(QueryString::new("a[b]*c")), &tok(), 64).unwrap();
        assert!(plan.runtime_canonical_check);
    }

    #[test]
    fn levenshtein_grows_the_machines() {
        let base = explain(&SearchQuery::new(QueryString::new("the cat")), &tok(), 64).unwrap();
        let edited = explain(
            &SearchQuery::new(QueryString::new("the cat"))
                .with_preprocessor(Preprocessor::levenshtein(1)),
            &tok(),
            64,
        )
        .unwrap();
        assert!(
            edited.body_machine.transitions > base.body_machine.transitions,
            "edits must add transitions: {} vs {}",
            edited.body_machine.transitions,
            base.body_machine.transitions
        );
    }

    #[test]
    fn deferred_filters_counted() {
        let stop = relm_regex::Regex::compile("the").unwrap().dfa().clone();
        let plan = explain(
            &SearchQuery::new(QueryString::new("[a-z]+"))
                .with_preprocessor(Preprocessor::deferred_filter(stop)),
            &tok(),
            64,
        )
        .unwrap();
        assert_eq!(plan.deferred_filters, 1);
    }

    #[test]
    fn display_is_informative() {
        let plan = explain(
            &SearchQuery::new(QueryString::new("abc"))
                .with_strategy(crate::SearchStrategy::Beam { width: 4 }),
            &tok(),
            64,
        )
        .unwrap();
        let text = plan.to_string();
        assert!(text.contains("beam search (width 4)"), "{text}");
        assert!(text.contains("body:"), "{text}");
    }

    #[test]
    fn explain_propagates_errors() {
        let err = explain(&SearchQuery::new(QueryString::new("a(")), &tok(), 64);
        assert!(err.is_err());
    }
}
