//! Beam-search traversal.
//!
//! The paper's related-work section (§5) points at trie-constrained beam
//! search (De Cao et al., 2021) as the closest decoding-time relative of
//! ReLM. This executor provides that strategy natively: a
//! level-synchronous beam of at most `width` partial paths, expanded in
//! lockstep against the LLM automaton by the rule of [`Kernel`], with
//! **batched** model scoring (the whole frontier is scored per step
//! through the engine, the CPU analogue of batching the frontier onto an
//! accelerator — §3.3's "schedules massive sets of test vectors").
//!
//! Compared to Dijkstra: beam search bounds memory and scores the
//! frontier in parallel, but is *incomplete* — a path outside the beam
//! is lost forever, so low-probability matches may be missed and
//! emission order is only approximately by probability. The executor
//! bench quantifies the trade-off.
//!
//! The work is paid per survivor and per pull. A level's successors
//! carry their parent's index and the token taken, not a copy of the
//! parent's tokens; only the `width` that survive the cut are built as
//! paths. Completed paths take no beam slot. They are sorted once, and
//! each is decoded, deduplicated and checked only when a caller pulls
//! it, so `take(n)` checks the paths it walks past, not every path the
//! search finished.

use std::sync::Arc;

use relm_bpe::{BpeTokenizer, TokenId};
use relm_lm::{LanguageModel, ScoringEngine};

use crate::executor::{At, CompiledQuery, Kernel, Next, StepOutcome};

#[derive(Debug, Clone)]
struct BeamPath {
    at: At,
    tokens: Vec<TokenId>,
    prefix_len: usize,
    log_prob: f64,
}

/// One successor of a scored path before the width cut: its parent's
/// index in the current beam and the token taken, with no tokens of its
/// own. Only the survivors of the cut are materialized as [`BeamPath`]s.
#[derive(Debug, Clone, Copy)]
struct Successor {
    parent: usize,
    to: At,
    token: TokenId,
    log_prob: f64,
}

/// The beam-search result iterator: level-synchronous stepping (one
/// beam level per [`BeamIter::step`] — the unit an interleaving driver
/// pumps), then streams completed paths in descending probability.
pub(crate) struct BeamIter<'a, M: LanguageModel> {
    pub(super) kernel: Kernel<'a, M>,
    width: usize,
    /// The live frontier (drained once the level loop finishes).
    beam: Vec<BeamPath>,
    completed: Vec<BeamPath>,
    /// The completed paths in descending probability, awaiting their
    /// checks and emission; `Some` once the level loop has finished.
    emit: Option<std::vec::IntoIter<BeamPath>>,
}

impl<'a, M: LanguageModel> BeamIter<'a, M> {
    pub(crate) fn new(
        engine: Arc<ScoringEngine<&'a M>>,
        tokenizer: &'a BpeTokenizer,
        compiled: CompiledQuery,
        width: usize,
    ) -> Self {
        let kernel = Kernel::new(engine, tokenizer, compiled, true);
        let beam = vec![BeamPath {
            at: kernel.start(),
            tokens: Vec::new(),
            prefix_len: 0,
            log_prob: 0.0,
        }];
        BeamIter {
            kernel,
            width: width.max(1),
            beam,
            completed: Vec::new(),
            emit: None,
        }
    }

    /// One unit of beam work: advance one level while the search runs,
    /// then check one completed path per step — a match if it passes,
    /// `Working` if it does not.
    pub(crate) fn step(&mut self) -> StepOutcome {
        let Some(emit) = &mut self.emit else {
            self.advance_level();
            return StepOutcome::Working;
        };
        match emit.next() {
            Some(p) => self
                .kernel
                .emit(p.tokens, p.prefix_len, Some(p.log_prob))
                .map_or(StepOutcome::Working, StepOutcome::Match),
            None => StepOutcome::Done,
        }
    }

    /// Advance one beam level (bridge, record completions, batch-score
    /// the paths that may extend, expand, cut); finalize when no path
    /// may extend or none has a successor.
    fn advance_level(&mut self) {
        let bridged: Vec<BeamPath> = self
            .beam
            .iter()
            .filter_map(|p| {
                Some(BeamPath {
                    at: self.kernel.bridge(p.at)?,
                    tokens: p.tokens.clone(),
                    prefix_len: p.tokens.len(),
                    log_prob: p.log_prob,
                })
            })
            .collect();
        self.beam.extend(bridged);
        for p in &self.beam {
            if self.kernel.completes(p.at) {
                self.completed.push(p.clone());
            }
        }

        // Batched scoring through the engine: shared prefixes across
        // levels (and across bridged paths) come out of the memo table.
        let expandable: Vec<usize> = (0..self.beam.len())
            .filter(|&i| self.kernel.may_extend(self.beam[i].tokens.len()))
            .collect();
        if expandable.is_empty() {
            self.finalize();
            return;
        }
        let contexts: Vec<Vec<TokenId>> = expandable
            .iter()
            .map(|&i| self.kernel.context(&self.beam[i].tokens))
            .collect();
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        let scores = self.kernel.engine.score_batch(&refs);
        self.kernel.stats.lm_calls += contexts.len() as u64;
        self.kernel.stats.expansions += expandable.len() as u64;

        let mut next: Vec<Successor> = Vec::new();
        for (&parent, row) in expandable.iter().zip(&scores) {
            let p = &self.beam[parent];
            let completed = &mut self.completed;
            self.kernel.expand(p.at, row, |step| match step {
                Next::Stop {
                    completes: false, ..
                } => {}
                Next::Stop { lp, .. } => completed.push(BeamPath {
                    log_prob: p.log_prob + lp,
                    ..p.clone()
                }),
                Next::Edge { token, to, lp } => next.push(Successor {
                    parent,
                    to,
                    token,
                    log_prob: p.log_prob + lp,
                }),
            });
        }
        if next.is_empty() {
            self.finalize();
            return;
        }
        next.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        next.truncate(self.width);
        // Only the survivors of the cut get tokens of their own.
        let parents = std::mem::take(&mut self.beam);
        self.beam = next
            .into_iter()
            .map(|s| {
                let parent = &parents[s.parent];
                let mut tokens = Vec::with_capacity(parent.tokens.len() + 1);
                tokens.extend_from_slice(&parent.tokens);
                tokens.push(s.token);
                BeamPath {
                    at: s.to,
                    tokens,
                    prefix_len: parent.prefix_len,
                    log_prob: s.log_prob,
                }
            })
            .collect();
    }

    /// Sort the completed paths in descending probability and queue them
    /// for emission. Their dedup and runtime checks wait until a caller
    /// pulls them, so a `take(n)` checks the paths it walks past, not
    /// every path the search finished.
    fn finalize(&mut self) {
        self.beam.clear();
        let mut completed = std::mem::take(&mut self.completed);
        completed.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        self.emit = Some(completed.into_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryString, SearchQuery, SearchStrategy};
    use relm_lm::{NGramConfig, NGramLm};

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let docs = [
            "the cat sat on the mat",
            "the cat sat on the mat",
            "the cat sat on the mat",
            "the dog sat on the log",
            "the cow ate the grass",
        ];
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 80);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        (tok, lm)
    }

    #[test]
    fn beam_finds_the_most_likely_match() {
        let (tok, lm) = fixture();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) sat"))
            .with_strategy(SearchStrategy::Beam { width: 8 });
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .collect();
        assert!(!results.is_empty());
        assert_eq!(results[0].text, "the cat sat");
    }

    #[test]
    fn wide_beam_matches_dijkstra_top_results() {
        let (tok, lm) = fixture();
        let base = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))"));
        let dijkstra: Vec<String> = crate::cold_client(&lm, &tok)
            .search(&base.clone())
            .unwrap()
            .take(3)
            .map(|m| m.text)
            .collect();
        let beam: Vec<String> = crate::cold_client(&lm, &tok)
            .search(&base.with_strategy(SearchStrategy::Beam { width: 64 }))
            .unwrap()
            .take(3)
            .map(|m| m.text)
            .collect();
        assert_eq!(dijkstra, beam, "a wide beam must agree with Dijkstra");
    }

    #[test]
    fn narrow_beam_may_miss_but_never_hallucinates() {
        let (tok, lm) = fixture();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))"))
            .with_strategy(SearchStrategy::Beam { width: 1 });
        let re = relm_regex::Regex::compile("the ((cat)|(dog)|(cow)) ((sat)|(ate))").unwrap();
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .collect();
        for m in &results {
            assert!(re.is_match(&m.text), "beam emitted non-member {:?}", m.text);
        }
        assert!(results.len() <= 6);
    }

    #[test]
    fn beam_respects_prefix_machines() {
        let (tok, lm) = fixture();
        let query =
            SearchQuery::new(QueryString::new("the cow ((sat)|(ate))").with_prefix("the cow"))
                .with_strategy(SearchStrategy::Beam { width: 8 })
                .with_policy(relm_lm::DecodingPolicy::greedy());
        // Greedy policy would prune the unlikely "cow" prefix — beam must
        // bypass decision rules on prefix edges just like Dijkstra.
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .collect();
        assert!(!results.is_empty());
        assert!(results[0].text.starts_with("the cow"));
    }

    #[test]
    fn beam_emission_is_sorted_by_probability() {
        let (tok, lm) = fixture();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))"))
            .with_strategy(SearchStrategy::Beam { width: 32 });
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .collect();
        for w in results.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }
}
