//! Beam-search traversal.
//!
//! The paper's related-work section (§5) points at trie-constrained beam
//! search (De Cao et al., 2021) as the closest decoding-time relative of
//! ReLM. This executor provides that strategy natively: a
//! level-synchronous beam of at most `width` partial paths, expanded in
//! lockstep against the LLM automaton with **batched** model scoring
//! (the whole frontier is scored per step via [`relm_lm::score_batch`],
//! the CPU analogue of batching the frontier onto an accelerator —
//! §3.3's "schedules massive sets of test vectors").
//!
//! Compared to Dijkstra: beam search bounds memory and scores the
//! frontier in parallel, but is *incomplete* — a path outside the beam
//! is lost forever, so low-probability matches may be missed and
//! emission order is only approximately by probability. The executor
//! bench quantifies the trade-off.

use std::collections::HashSet;
use std::sync::Arc;

use relm_automata::WorkerPool;
use relm_bpe::{BpeTokenizer, TokenId};
use relm_lm::{LanguageModel, ScoringEngine};

use crate::executor::{passes_runtime_checks, CompiledQuery, ExecutionStats, StepOutcome};
use crate::results::MatchResult;

/// Minimum `paths × vocabulary size` before a beam level's expansion
/// fans out to a worker pool. Under a top-k or top-p policy per-path
/// expansion is dominated by finding the cut in the whole distribution
/// (`O(V)` per path), so the product bounds the level's real work (an
/// unfiltered policy costs only the path's out-degree); below roughly
/// this much a thread spawn costs more than it parallelizes, and the
/// level expands on the calling thread (identically — the gate picks
/// who computes, never what).
const BEAM_SHARD_MIN_WORK: usize = 1 << 14;

#[derive(Debug, Clone)]
struct BeamPath {
    machine_is_body: bool,
    state: usize,
    tokens: Vec<TokenId>,
    prefix_len: usize,
    log_prob: f64,
}

/// The beam-search result iterator: level-synchronous stepping (one
/// beam level per [`BeamIter::step`] — the unit an interleaving driver
/// pumps), then streams finished paths in descending probability.
pub(crate) struct BeamIter<'a, M: LanguageModel> {
    engine: Arc<ScoringEngine<&'a M>>,
    tokenizer: &'a BpeTokenizer,
    compiled: CompiledQuery,
    width: usize,
    stats: ExecutionStats,
    /// The live frontier (drained once the level loop finishes).
    beam: Vec<BeamPath>,
    completed: Vec<BeamPath>,
    seen_tokens: HashSet<Vec<TokenId>>,
    /// Levels advanced so far (the search runs `max_tokens` levels).
    level: usize,
    /// Sorted, checked matches awaiting emission; `Some` once the level
    /// loop has finished.
    emit: Option<std::vec::IntoIter<MatchResult>>,
}

impl<'a, M: LanguageModel> BeamIter<'a, M> {
    pub(crate) fn new(
        engine: Arc<ScoringEngine<&'a M>>,
        tokenizer: &'a BpeTokenizer,
        compiled: CompiledQuery,
        width: usize,
    ) -> Self {
        let body = &compiled.parts.body.automaton;
        let beam = vec![match &compiled.parts.prefix {
            Some(p) => BeamPath {
                machine_is_body: false,
                state: p.start(),
                tokens: Vec::new(),
                prefix_len: 0,
                log_prob: 0.0,
            },
            None => BeamPath {
                machine_is_body: true,
                state: body.start(),
                tokens: Vec::new(),
                prefix_len: 0,
                log_prob: 0.0,
            },
        }];
        BeamIter {
            engine,
            tokenizer,
            compiled,
            width: width.max(1),
            stats: ExecutionStats::default(),
            beam,
            completed: Vec::new(),
            seen_tokens: HashSet::new(),
            level: 0,
            emit: None,
        }
    }

    pub(crate) fn stats(&self) -> ExecutionStats {
        self.stats.merge_scoring(self.engine.stats())
    }

    /// One unit of beam work: advance one level while the search runs,
    /// then emit one finished path per step.
    pub(crate) fn step(&mut self) -> StepOutcome {
        match &mut self.emit {
            None => {
                self.advance_level();
                StepOutcome::Working
            }
            Some(iter) => match iter.next() {
                Some(m) => StepOutcome::Match(m),
                None => StepOutcome::Done,
            },
        }
    }

    /// Contexts the next level will batch-score (the expandable
    /// frontier), uncached only, up to `limit` — what the coalescing
    /// driver merges into a shared engine tick. Paths still in the
    /// prefix machine bridge into the body with identical token
    /// sequences, so scanning the pre-bridge beam covers them too.
    pub(crate) fn frontier_contexts(&self, limit: usize) -> Vec<Vec<TokenId>> {
        if limit == 0
            || self.emit.is_some()
            // Out of level budget: the next step finalizes without
            // scoring, so the current beam's contexts are dead.
            || self.level >= self.compiled.max_tokens
            || !self.engine.admits_new_entries()
        {
            return Vec::new();
        }
        let mut out: Vec<Vec<TokenId>> = Vec::new();
        for p in &self.beam {
            if out.len() >= limit {
                break;
            }
            if p.tokens.len() + 2 >= self.engine.max_sequence_len() {
                continue;
            }
            let mut ctx = Vec::with_capacity(p.tokens.len() + 1);
            ctx.push(self.engine.eos());
            ctx.extend_from_slice(&p.tokens);
            if !self.engine.is_cached(&ctx) && !out.contains(&ctx) {
                out.push(ctx);
            }
        }
        out
    }

    /// Advance one beam level (bridge, record completions, batch-score
    /// the frontier, expand, prune); finalize when the level budget or
    /// the frontier is exhausted.
    fn advance_level(&mut self) {
        if self.level >= self.compiled.max_tokens {
            self.finalize();
            return;
        }
        self.level += 1;
        let body = &self.compiled.parts.body.automaton;

        // Bridge prefix-accepting paths into the body (cost-free).
        let mut bridged = Vec::new();
        for p in &self.beam {
            if !p.machine_is_body {
                let prefix = self.compiled.parts.prefix.as_ref().expect("prefix machine"); // lint: allow(panic, "paths sit on the prefix machine only when the plan has one")
                if prefix.is_accepting(p.state) {
                    bridged.push(BeamPath {
                        machine_is_body: true,
                        state: body.start(),
                        prefix_len: p.tokens.len(),
                        tokens: p.tokens.clone(),
                        log_prob: p.log_prob,
                    });
                }
            }
        }
        self.beam.extend(bridged);

        // Record completed paths (body accepting states).
        for p in &self.beam {
            if p.machine_is_body
                && body.is_accepting(p.state)
                && self.seen_tokens.insert(p.tokens.clone())
            {
                self.completed.push(p.clone());
            }
        }

        // Batched scoring of the expandable frontier through the
        // engine: shared prefixes across steps (and across bridged
        // paths) come out of the memo table. Paths at the sequence
        // cap can never extend, so their contexts are not scored.
        let expandable: Vec<&BeamPath> = self
            .beam
            .iter()
            .filter(|p| p.tokens.len() + 2 < self.engine.max_sequence_len())
            .collect();
        let contexts: Vec<Vec<TokenId>> = expandable
            .iter()
            .map(|p| {
                let mut c = Vec::with_capacity(p.tokens.len() + 1);
                c.push(self.engine.eos());
                c.extend_from_slice(&p.tokens);
                c
            })
            .collect();
        if contexts.is_empty() {
            self.finalize();
            return;
        }
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        let scores = self.engine.score_batch(&refs);
        self.stats.lm_calls += contexts.len() as u64;
        self.stats.expansions += expandable.len() as u64;

        // Expand: one frontier shard per pool job. Per-path expansion is
        // pure (policy filtering over the vocabulary plus automaton edge
        // walks, no shared writes), shards are contiguous chunks of the
        // level, and the merge concatenates them in submission order —
        // so the candidate list, and therefore the stable sort and
        // truncation below, are byte-identical to the serial loop.
        let work: Vec<(&BeamPath, &Arc<[f64]>)> =
            expandable.iter().copied().zip(scores.iter()).collect();
        let threads = self.compiled.parallelism.threads();
        let vocab = scores.first().map_or(0, |row| row.len());
        let level_work = work.len().saturating_mul(vocab);
        let pool = WorkerPool::for_parallelism(self.compiled.parallelism);
        let mut next: Vec<BeamPath> =
            if pool.workers() > 0 && threads > 1 && level_work >= BEAM_SHARD_MIN_WORK {
                // Pool jobs are `'static`: each shard owns clones of its
                // paths, shares their score rows, and holds an `Arc` of
                // the compiled query (cheap — the automata inside are
                // already `Arc`-shared).
                let chunk = work.len().div_ceil(threads);
                let shards: Vec<Vec<(BeamPath, Arc<[f64]>)>> = work
                    .chunks(chunk)
                    .map(|shard| {
                        shard
                            .iter()
                            .map(|&(p, lp)| (p.clone(), Arc::clone(lp)))
                            .collect()
                    })
                    .collect();
                let compiled = Arc::new(self.compiled.clone());
                let jobs: Vec<_> = shards
                    .into_iter()
                    .map(|shard| {
                        let compiled = Arc::clone(&compiled);
                        move || {
                            shard
                                .iter()
                                .flat_map(|(p, lp)| expand_path(&compiled, p, lp))
                                .collect::<Vec<_>>()
                        }
                    })
                    .collect();
                pool.run(jobs).into_iter().flatten().collect()
            } else {
                work.iter()
                    .flat_map(|&(p, lp)| expand_path(&self.compiled, p, lp))
                    .collect()
            };
        if next.is_empty() {
            self.finalize();
            return;
        }
        next.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        next.truncate(self.width);
        self.beam = next;
    }

    /// Sort the completed paths, run the runtime checks, and queue the
    /// survivors for emission in descending probability.
    fn finalize(&mut self) {
        self.beam.clear();
        let mut completed = std::mem::take(&mut self.completed);
        completed.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        let mut out = Vec::new();
        let mut emitted_texts = HashSet::new();
        for p in completed {
            let text = self.tokenizer.decode(&p.tokens);
            if !emitted_texts.insert(text.clone()) && self.compiled.distinct_texts {
                continue;
            }
            if !passes_runtime_checks(
                &self.compiled,
                self.tokenizer,
                &p.tokens,
                p.prefix_len,
                &mut self.stats,
            ) {
                continue;
            }
            let canonical = self.tokenizer.encode(&text) == p.tokens;
            self.stats.emitted += 1;
            out.push(MatchResult {
                tokens: p.tokens,
                prefix_len: p.prefix_len,
                text,
                log_prob: p.log_prob,
                canonical,
            });
        }
        self.emit = Some(out.into_iter());
    }
}

/// Expand one scored path into its automaton-legal successors. Pure;
/// shared by the serial level loop and the pooled shards.
fn expand_path(compiled: &CompiledQuery, p: &BeamPath, log_probs: &[f64]) -> Vec<BeamPath> {
    let body = &compiled.parts.body.automaton;
    let mut out = Vec::new();
    if p.machine_is_body {
        let allowed = compiled.policy.filter(log_probs);
        for (sym, target) in body.transitions(p.state) {
            if let Some(lp) = allowed.get(sym) {
                let mut tokens = p.tokens.clone();
                tokens.push(sym);
                out.push(BeamPath {
                    machine_is_body: true,
                    state: target,
                    tokens,
                    prefix_len: p.prefix_len,
                    log_prob: p.log_prob + lp,
                });
            }
        }
    } else {
        let prefix = compiled.parts.prefix.as_ref().expect("prefix machine"); // lint: allow(panic, "paths sit on the prefix machine only when the plan has one")
        for (sym, target) in prefix.transitions(p.state) {
            let lp = log_probs[sym as usize];
            if !lp.is_finite() {
                continue;
            }
            let mut tokens = p.tokens.clone();
            tokens.push(sym);
            let prefix_len = tokens.len();
            out.push(BeamPath {
                machine_is_body: false,
                state: target,
                tokens,
                prefix_len,
                log_prob: p.log_prob + lp,
            });
        }
    }
    out
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
