//! Dijkstra shortest-path traversal (§3.3).
//!
//! States of the search are *paths*: a token prefix plus its position in
//! the prefix/body automata. Costs are cumulative `−log p` under the
//! model, so the heap pops candidates in non-increasing probability
//! order (Dijkstra's invariant — edge costs are non-negative because
//! probabilities are ≤ 1). A popped path expands by the rule of
//! [`Kernel`]; decoding rules prune transitively, since a token the
//! policy cuts at step `i` removes every string extending that prefix.
//! Prefix edges skip the policy but still pay their model cost, the
//! paper's startup-latency heuristic.
//!
//! Scoring is **frontier-batched**: when the popped node's context
//! misses the [`ScoringEngine`] memo table, the contexts of other
//! expandable heap nodes are prefetched in the same model call.
//! Scoring is pure, so prefetching never changes which node is
//! expanded or emitted — it only fills the cache the later pops will
//! hit, turning Dijkstra's one-at-a-time calls into the paper's batched
//! inference pattern.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use relm_bpe::{BpeTokenizer, TokenId};
use relm_lm::{LanguageModel, ScoringEngine};

use crate::executor::{At, CompiledQuery, Kernel, Next, StepOutcome};

/// Cap on contexts scored per model call, the popped one included.
/// The prefetch picks the *cheapest* frontier nodes — the ones Dijkstra
/// pops next — so nearly every prefetched context is consumed; past the
/// first few, lookahead accuracy decays. Scoring is pure, so the width
/// can never change which node is expanded or emitted.
const MAX_FRONTIER_BATCH: usize = 8;

/// Cap on heap entries scanned per prefetch. Bounds per-miss overhead
/// on very large frontiers (the heap's backing vector keeps low-cost
/// nodes near the front, so a prefix scan still finds good candidates).
const FRONTIER_SCAN_LIMIT: usize = 512;

#[derive(Debug, Clone)]
struct Node {
    /// `−log p` so far, non-negative; nodes order by `total_cmp` on it.
    cost: f64,
    /// `None` once the path has paid the EOS step of an EOS-required
    /// query: it only awaits emission in heap order.
    at: Option<At>,
    tokens: Vec<TokenId>,
    prefix_len: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost.total_cmp(&other.cost)
    }
}

/// The shortest-path result iterator. See the module docs.
pub(crate) struct ShortestPathIter<'a, M: LanguageModel> {
    pub(super) kernel: Kernel<'a, M>,
    heap: BinaryHeap<Reverse<Node>>,
    max_expansions: usize,
}

impl<'a, M: LanguageModel> ShortestPathIter<'a, M> {
    pub(crate) fn new(
        engine: Arc<ScoringEngine<&'a M>>,
        tokenizer: &'a BpeTokenizer,
        compiled: CompiledQuery,
        max_expansions: usize,
    ) -> Self {
        let kernel = Kernel::new(engine, tokenizer, compiled, true);
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Node {
            cost: 0.0,
            at: Some(kernel.start()),
            tokens: Vec::new(),
            prefix_len: 0,
        }));
        ShortestPathIter {
            kernel,
            heap,
            max_expansions,
        }
    }

    /// The tokens of the cheapest expandable nodes among the first
    /// `scan` heap entries, at most `keep` of them, cheapest first — the
    /// paths Dijkstra pops (and therefore scores) next. The scan is
    /// capped: on huge heaps the candidates found early in the backing
    /// vector, the nodes nearest the heap top, are good enough.
    fn cheapest(&self, scan: usize, keep: usize) -> Vec<&[TokenId]> {
        let mut best: Vec<&Node> = Vec::new();
        for Reverse(node) in self.heap.iter().take(scan) {
            if node.at.is_none() || !self.kernel.may_extend(node.tokens.len()) {
                continue;
            }
            let pos = best.partition_point(|n| n <= &node);
            if pos < keep {
                best.insert(pos, node);
                best.truncate(keep);
            }
        }
        best.into_iter().map(|n| n.tokens.as_slice()).collect()
    }

    /// Score `ctx`, batching in the contexts of the cheapest other
    /// frontier nodes on a cache miss. Dijkstra pops in cost order, so
    /// the lowest-cost heap nodes are precisely the next expansions.
    /// Scoring is deterministic and pure, so results are byte-identical
    /// to scoring one context at a time.
    fn score_frontier(&mut self, ctx: Vec<TokenId>) -> Arc<[f64]> {
        let engine = &self.kernel.engine;
        if engine.is_cached(&ctx) || !engine.admits_new_entries() {
            return engine.score(&ctx);
        }
        let paths = self.cheapest(FRONTIER_SCAN_LIMIT, MAX_FRONTIER_BATCH - 1);
        let mut batch = vec![ctx];
        self.kernel
            .add_uncached(&mut batch, paths, MAX_FRONTIER_BATCH);
        let refs: Vec<&[TokenId]> = batch.iter().map(Vec::as_slice).collect();
        engine.score_batch(&refs).swap_remove(0)
    }

    /// One unit of Dijkstra work: pop the cheapest node, expand it, and
    /// emit if it completes a match. `SearchResults::next` loops this;
    /// the multi-query driver calls it once per rotation.
    pub(crate) fn step(&mut self) -> StepOutcome {
        let Some(Reverse(node)) = self.heap.pop() else {
            return StepOutcome::Done;
        };
        if self.kernel.stats.expansions >= self.max_expansions as u64 {
            return StepOutcome::Done;
        }
        self.kernel.stats.expansions += 1;
        let Some(at) = node.at else {
            return self.emit(node);
        };
        if let Some(body) = self.kernel.bridge(at) {
            self.heap.push(Reverse(Node {
                cost: node.cost,
                at: Some(body),
                tokens: node.tokens.clone(),
                prefix_len: node.tokens.len(),
            }));
        }
        if self.kernel.may_extend(node.tokens.len()) {
            let row = self.score_frontier(self.kernel.context(&node.tokens));
            self.kernel.stats.lm_calls += 1;
            let heap = &mut self.heap;
            self.kernel.expand(at, &row, |next| {
                let (at, tokens, lp) = match next {
                    Next::Stop {
                        completes: false, ..
                    } => return,
                    Next::Stop { lp, .. } => (None, node.tokens.clone(), lp),
                    Next::Edge { token, to, lp } => {
                        let mut tokens = node.tokens.clone();
                        tokens.push(token);
                        (Some(to), tokens, lp)
                    }
                };
                heap.push(Reverse(Node {
                    cost: node.cost - lp,
                    at,
                    tokens,
                    prefix_len: node.prefix_len,
                }));
            });
        }
        if self.kernel.completes(at) {
            return self.emit(node);
        }
        StepOutcome::Working
    }

    fn emit(&mut self, node: Node) -> StepOutcome {
        let log_prob = -node.cost;
        self.kernel
            .emit(node.tokens, node.prefix_len, Some(log_prob))
            .map_or(StepOutcome::Working, StepOutcome::Match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryString, SearchQuery, TokenizationStrategy};
    use crate::results::MatchResult;
    use relm_lm::{DecodingPolicy, NGramConfig, NGramLm};

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

    fn run(query: SearchQuery, n: usize) -> Vec<MatchResult> {
        let (tok, lm) = fixture();
        crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(n)
            .collect()
    }

    #[test]
    fn most_likely_match_first() {
        // "the cat" dominates the corpus: among cat/dog/cow it must rank
        // first.
        let query =
            SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) sat").with_prefix("the"));
        let results = run(query, 3);
        assert!(!results.is_empty());
        assert_eq!(results[0].text, "the cat sat");
        // Costs are non-increasing in probability.
        for w in results.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }

    #[test]
    fn exhausts_finite_language() {
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let results = run(query, 10);
        assert_eq!(results.len(), 2);
        let texts: Vec<&str> = results.iter().map(|r| r.text.as_str()).collect();
        assert!(texts.contains(&"the cat sat"));
        assert!(texts.contains(&"the dog sat"));
    }

    #[test]
    fn emits_in_nonincreasing_probability_order() {
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))"));
        let results = run(query, 10);
        assert!(results.len() >= 3);
        for w in results.windows(2) {
            assert!(
                w[0].log_prob >= w[1].log_prob - 1e-12,
                "order violated: {} then {}",
                w[0].log_prob,
                w[1].log_prob
            );
        }
    }

    #[test]
    fn top_k_prunes_unlikely_strings() {
        // With greedy decoding (k=1) only the single most likely
        // continuation survives at every step.
        let unfiltered = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow))"));
        let greedy = unfiltered.clone().with_policy(DecodingPolicy::greedy());
        let all = run(unfiltered, 10);
        let pruned = run(greedy, 10);
        assert!(
            pruned.len() < all.len(),
            "{} vs {}",
            pruned.len(),
            all.len()
        );
    }

    #[test]
    fn match_log_prob_matches_model_score() {
        let (tok, lm) = fixture();
        let query = SearchQuery::new(QueryString::new("the cat sat"));
        let m = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .next()
            .expect("match");
        let mut ctx = vec![lm.eos()];
        ctx.extend(&m.tokens);
        let expected = relm_lm::sequence_log_prob(&lm, &ctx, 1);
        assert!((m.log_prob - expected).abs() < 1e-9);
    }

    #[test]
    fn prefix_is_not_policy_filtered() {
        // An improbable prefix must still be traversed under greedy
        // decoding (prefixes bypass decision rules).
        let query =
            SearchQuery::new(QueryString::new("the cow ((sat)|(ate))").with_prefix("the cow"))
                .with_policy(DecodingPolicy::greedy());
        let results = run(query, 5);
        assert!(!results.is_empty(), "prefix should bypass top-k");
        assert!(results[0].text.starts_with("the cow"));
    }

    #[test]
    fn duplicate_texts_from_encodings_deduped() {
        let query = SearchQuery::new(QueryString::new("the cat"))
            .with_tokenization(TokenizationStrategy::All);
        let results = run(query, 50);
        assert_eq!(results.len(), 1, "same string via many encodings");
        assert_eq!(results[0].text, "the cat");
    }

    #[test]
    fn expansion_cap_terminates() {
        let query = SearchQuery::new(QueryString::new("[a-z]+")).with_max_expansions(5);
        let (tok, lm) = fixture();
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .collect();
        let _ = results; // must terminate without exhausting memory
    }

    #[test]
    fn stats_reflect_work() {
        let (tok, lm) = fixture();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog))"));
        let client = crate::cold_client(&lm, &tok);
        let mut results = client.search(&query).unwrap();
        let _ = (&mut results).take(2).count();
        let stats = results.stats();
        assert!(stats.expansions > 0);
        assert!(stats.lm_calls > 0);
        assert_eq!(stats.emitted, 2);
    }

    #[test]
    fn eos_termination_reranks_final_words() {
        // With EOS required, the score includes p(EOS | completion), so
        // completions that end documents outrank mid-sentence ones.
        let docs = [
            "she saw it",
            "she saw it",
            "she saw the cat run",
            "it",
            "it",
        ];
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 60);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        let query =
            SearchQuery::new(QueryString::new("she saw ((it)|(the))").with_prefix("she saw"))
                .with_eos_termination();
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(2)
            .collect();
        assert!(!results.is_empty());
        // "it" terminates documents in training; "the" never does.
        assert_eq!(results[0].text, "she saw it");
    }

    #[test]
    fn empty_language_search_errors() {
        let (tok, lm) = fixture();
        // Intersection with top-level empty pattern: `x` then impossible
        // class — the parser makes `[^\x00-\xff]`-style empties hard, so
        // use a filter that removes everything.
        let stop = relm_regex::Regex::compile("the").unwrap().dfa().clone();
        let query = SearchQuery::new(QueryString::new("the"))
            .with_preprocessor(crate::Preprocessor::filter(stop));
        let err = crate::cold_client(&lm, &tok)
            .search(&query)
            .err()
            .expect("empty language");
        assert_eq!(err, crate::RelmError::EmptyLanguage);
    }
}
