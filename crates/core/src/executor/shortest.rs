//! Dijkstra shortest-path traversal (§3.3).
//!
//! States of the search are *paths*: a token prefix plus its position in
//! the prefix/body automata. Costs are cumulative `−log p` under the
//! model, so the heap pops candidates in non-increasing probability
//! order (Dijkstra's invariant — edge costs are non-negative because
//! probabilities are ≤ 1).
//!
//! Decoding rules prune transitively: a token outside the policy's
//! allowed set at step `i` removes every string extending that prefix.
//! Prefix-machine edges skip the policy (conditioning context is in the
//! language by definition) but still pay their model cost, implementing
//! the paper's startup-latency heuristic.
//!
//! Scoring is **frontier-batched**: when the popped node's context
//! misses the [`ScoringEngine`] memo table, the contexts of other
//! expandable heap nodes are prefetched in the same model call.
//! Scoring is pure, so prefetching never changes which node is
//! expanded or emitted — it only fills the cache the later pops will
//! hit, turning Dijkstra's one-at-a-time calls into the paper's batched
//! inference pattern.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use relm_bpe::{BpeTokenizer, TokenId};
use relm_lm::{LanguageModel, ScoringEngine};

use crate::executor::{passes_runtime_checks, CompiledQuery, ExecutionStats, StepOutcome};
use crate::results::MatchResult;

/// Cap on contexts prefetched per model call **per worker**.
/// The prefetch picks the *cheapest* frontier nodes — the ones Dijkstra
/// pops next — so nearly every prefetched context is consumed. Under a
/// parallel setting the cap scales with the worker count
/// ([`ShortestPathIter::frontier_cap`]): one `step()` then scores a
/// whole frontier shard in a single engine batch, which the engine
/// spreads across the persistent worker pool. Scoring is pure, so the
/// wider lookahead can never change which node is expanded or emitted —
/// serial and sharded runs stay byte-identical.
const MAX_FRONTIER_BATCH: usize = 8;

/// Cap on heap entries scanned per prefetch. Bounds per-miss overhead
/// on very large frontiers (the heap's backing vector keeps low-cost
/// nodes near the front, so a prefix scan still finds good candidates).
const FRONTIER_SCAN_LIMIT: usize = 512;

/// Tighter scan cap for the coalescing driver's per-rotation
/// [`ShortestPathIter::frontier_contexts`] calls: the internal prefetch
/// scans deep because it runs only on a cache miss, but the driver asks
/// on **every** round-robin rotation (one heap pop each), so its scan
/// must stay cheap — the heap top region alone yields the next pops.
const FRONTIER_TICK_SCAN_LIMIT: usize = 64;

/// Cap on the worker-count multiplier applied to the frontier batch
/// and scan bounds: the heap scan that selects the shard is serial, so
/// its cost must stay bounded on many-core hosts even though the
/// scoring it feeds parallelizes.
const FRONTIER_THREADS_CAP: usize = 8;

/// Total-ordered wrapper for heap costs (`−log p`, non-negative).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost(f64);

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Machine {
    Prefix,
    Body,
    /// Terminal stage for EOS-required queries: the path has already
    /// paid the EOS step's cost and only awaits emission in heap order.
    Done,
}

#[derive(Debug, Clone)]
struct Node {
    cost: Cost,
    machine: Machine,
    state: usize,
    tokens: Vec<TokenId>,
    prefix_len: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost
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
        self.cost.cmp(&other.cost)
    }
}

/// The shortest-path result iterator. See the module docs.
pub(crate) struct ShortestPathIter<'a, M: LanguageModel> {
    engine: Arc<ScoringEngine<&'a M>>,
    tokenizer: &'a BpeTokenizer,
    compiled: CompiledQuery,
    heap: BinaryHeap<Reverse<Node>>,
    stats: ExecutionStats,
    max_expansions: usize,
    emitted_texts: HashSet<String>,
    emitted_tokens: HashSet<Vec<TokenId>>,
}

impl<'a, M: LanguageModel> ShortestPathIter<'a, M> {
    pub(crate) fn new(
        engine: Arc<ScoringEngine<&'a M>>,
        tokenizer: &'a BpeTokenizer,
        compiled: CompiledQuery,
        max_expansions: usize,
    ) -> Self {
        let mut heap = BinaryHeap::new();
        match &compiled.parts.prefix {
            Some(prefix) => heap.push(Reverse(Node {
                cost: Cost(0.0),
                machine: Machine::Prefix,
                state: prefix.start(),
                tokens: Vec::new(),
                prefix_len: 0,
            })),
            None => heap.push(Reverse(Node {
                cost: Cost(0.0),
                machine: Machine::Body,
                state: compiled.parts.body.automaton.start(),
                tokens: Vec::new(),
                prefix_len: 0,
            })),
        }
        ShortestPathIter {
            engine,
            tokenizer,
            compiled,
            heap,
            stats: ExecutionStats::default(),
            max_expansions,
            emitted_texts: HashSet::new(),
            emitted_tokens: HashSet::new(),
        }
    }

    pub(crate) fn stats(&self) -> ExecutionStats {
        self.stats.merge_scoring(self.engine.stats())
    }

    /// Model context for a path: EOS-rooted, matching training.
    fn context(&self, tokens: &[TokenId]) -> Vec<TokenId> {
        let mut ctx = Vec::with_capacity(tokens.len() + 1);
        ctx.push(self.engine.eos());
        ctx.extend_from_slice(tokens);
        ctx
    }

    /// Whether a node still has room to grow (mirrors [`Self::expand`]'s
    /// early return) — the prefetch filter.
    fn expandable(&self, node: &Node) -> bool {
        node.machine != Machine::Done
            && node.tokens.len() < self.compiled.max_tokens
            && node.tokens.len() + 1 < self.engine.max_sequence_len()
    }

    /// The frontier-shard width: how many of the cheapest frontier
    /// contexts one step may feed into a single engine batch. Scales
    /// with the configured worker count so multicore hosts fill wider
    /// model batches per Dijkstra pop — but bounded: the selection scan
    /// runs serially on the calling thread, and lookahead accuracy
    /// decays past the first few dozen nodes, so a many-core host must
    /// not inflate per-miss overhead linearly in its core count.
    fn frontier_threads(&self) -> usize {
        self.compiled
            .parallelism
            .threads()
            .min(FRONTIER_THREADS_CAP)
    }

    fn frontier_cap(&self) -> usize {
        MAX_FRONTIER_BATCH * self.frontier_threads()
    }

    /// The contexts of the cheapest expandable frontier nodes — the ones
    /// Dijkstra pops (and therefore scores) next. Read-only: the heap is
    /// scanned, never mutated. Uncached contexts only, up to `limit`,
    /// self-capped at [`MAX_FRONTIER_BATCH`]: beyond the cheapest few,
    /// lookahead accuracy decays, and the internal prefetch uses the
    /// same bound.
    pub(crate) fn frontier_contexts(&self, limit: usize) -> Vec<Vec<TokenId>> {
        let limit = limit.min(self.frontier_cap());
        if limit == 0
            || self.stats.expansions >= self.max_expansions as u64
            || !self.engine.admits_new_entries()
        {
            return Vec::new();
        }
        let mut best: Vec<&Node> = Vec::new();
        for rev in self.heap.iter().take(FRONTIER_TICK_SCAN_LIMIT) {
            let node = &rev.0;
            if !self.expandable(node) {
                continue;
            }
            let pos = best.partition_point(|n| n.cost <= node.cost);
            if pos >= limit {
                continue;
            }
            best.insert(pos, node);
            best.truncate(limit);
        }
        let mut out: Vec<Vec<TokenId>> = Vec::new();
        for node in best {
            let ctx = self.context(&node.tokens);
            if !self.engine.is_cached(&ctx) && !out.contains(&ctx) {
                out.push(ctx);
            }
        }
        out
    }

    /// Score `ctx`, batching in the contexts of the cheapest other
    /// frontier nodes on a cache miss. Dijkstra pops in cost order, so
    /// the lowest-cost heap nodes are precisely the next expansions —
    /// their contexts are prefetched into the same model call.
    /// Prefetching is free of side effects on the traversal: scoring is
    /// deterministic and pure, so results are byte-identical to scoring
    /// one context at a time.
    fn score_frontier(&mut self, ctx: Vec<TokenId>) -> Arc<[f64]> {
        if self.engine.is_cached(&ctx)
            // Once the engine stops admitting cache entries, prefetched
            // scores would be discarded and recomputed — stop paying
            // for them.
            || !self.engine.admits_new_entries()
        {
            return self.engine.score(&ctx);
        }
        // Select the cheapest expandable frontier nodes (kept sorted;
        // O(scan × batch), both small constants). The scan is capped:
        // on huge heaps the candidates found early in the backing
        // vector — the nodes nearest the heap top — are good enough,
        // and a full walk per miss would dominate the traversal. The
        // shard width (and, proportionally, the scan depth feeding it)
        // scales with the worker count.
        let cap = self.frontier_cap();
        let scan = FRONTIER_SCAN_LIMIT * self.frontier_threads();
        let mut best: Vec<&Node> = Vec::new();
        for rev in self.heap.iter().take(scan) {
            let node = &rev.0;
            if !self.expandable(node) {
                continue;
            }
            let pos = best.partition_point(|n| n.cost <= node.cost);
            if pos >= cap - 1 {
                continue;
            }
            best.insert(pos, node);
            best.truncate(cap - 1);
        }
        let mut batch: Vec<Vec<TokenId>> = vec![ctx];
        for node in best {
            let candidate = self.context(&node.tokens);
            if self.engine.is_cached(&candidate) || batch.contains(&candidate) {
                continue;
            }
            batch.push(candidate);
        }
        let refs: Vec<&[TokenId]> = batch.iter().map(Vec::as_slice).collect();
        let mut scores = self.engine.score_batch(&refs);
        scores.swap_remove(0)
    }

    fn expand(&mut self, node: &Node) {
        if node.tokens.len() >= self.compiled.max_tokens
            || node.tokens.len() + 1 >= self.engine.max_sequence_len()
        {
            return;
        }
        let ctx = self.context(&node.tokens);
        let log_probs = self.score_frontier(ctx);
        self.stats.lm_calls += 1;

        match node.machine {
            Machine::Prefix => {
                let prefix = self.compiled.parts.prefix.as_ref().expect("prefix machine"); // lint: allow(panic, "Prefix nodes exist only when the plan has a prefix machine")
                                                                                           // No decoding rules on prefix edges; original costs kept.
                for (sym, target) in prefix.transitions(node.state) {
                    let lp = log_probs[sym as usize];
                    if !lp.is_finite() {
                        continue;
                    }
                    let mut tokens = node.tokens.clone();
                    tokens.push(sym);
                    let prefix_len = tokens.len();
                    self.heap.push(Reverse(Node {
                        cost: Cost(node.cost.0 - lp),
                        machine: Machine::Prefix,
                        state: target,
                        tokens,
                        prefix_len,
                    }));
                }
            }
            Machine::Done => unreachable!("Done nodes are never expanded"), // lint: allow(panic, "Done nodes are popped as results, never pushed for expansion")
            Machine::Body => {
                let allowed = self.compiled.policy.filter(&log_probs);
                // EOS-required queries: leaving an accepting state toward
                // emission costs the EOS step, and EOS must survive the
                // decoding rules like any other body token.
                if self.compiled.require_eos
                    && self.compiled.parts.body.automaton.is_accepting(node.state)
                {
                    if let Some(eos_lp) = allowed.get(self.engine.eos()) {
                        self.heap.push(Reverse(Node {
                            cost: Cost(node.cost.0 - eos_lp),
                            machine: Machine::Done,
                            state: node.state,
                            tokens: node.tokens.clone(),
                            prefix_len: node.prefix_len,
                        }));
                    }
                }
                for (sym, target) in self.compiled.parts.body.automaton.transitions(node.state) {
                    let Some(lp) = allowed.get(sym) else {
                        continue; // transitive top-k elimination
                    };
                    let mut tokens = node.tokens.clone();
                    tokens.push(sym);
                    self.heap.push(Reverse(Node {
                        cost: Cost(node.cost.0 - lp),
                        machine: Machine::Body,
                        state: target,
                        tokens,
                        prefix_len: node.prefix_len,
                    }));
                }
            }
        }
    }
}

impl<'a, M: LanguageModel> ShortestPathIter<'a, M> {
    /// One unit of Dijkstra work: pop the cheapest node, expand it, and
    /// emit if it completes a match. `SearchResults::next` loops this;
    /// the `run_many` driver calls it between coalescing ticks.
    pub(crate) fn step(&mut self) -> StepOutcome {
        let Some(Reverse(node)) = self.heap.pop() else {
            return StepOutcome::Done;
        };
        if self.stats.expansions >= self.max_expansions as u64 {
            return StepOutcome::Done;
        }
        self.stats.expansions += 1;

        // Prefix machine: accepting states bridge into the body.
        if node.machine == Machine::Prefix {
            let prefix = self.compiled.parts.prefix.as_ref().expect("prefix machine"); // lint: allow(panic, "Prefix nodes exist only when the plan has a prefix machine")
            if prefix.is_accepting(node.state) {
                self.heap.push(Reverse(Node {
                    cost: node.cost,
                    machine: Machine::Body,
                    state: self.compiled.parts.body.automaton.start(),
                    tokens: node.tokens.clone(),
                    prefix_len: node.tokens.len(),
                }));
            }
            self.expand(&node);
            return StepOutcome::Working;
        }

        // Done machine: EOS already paid; emit in heap order.
        if node.machine == Machine::Done {
            return match self.try_emit(node) {
                Some(m) => StepOutcome::Match(m),
                None => StepOutcome::Working,
            };
        }

        // Body machine: emit on accepting states (unless EOS
        // termination is required), keep expanding.
        let accepting = self.compiled.parts.body.automaton.is_accepting(node.state);
        self.expand(&node);
        if accepting && !self.compiled.require_eos {
            if let Some(m) = self.try_emit(node) {
                return StepOutcome::Match(m);
            }
        }
        StepOutcome::Working
    }
    /// Emit `node` as a match if it passes dedup and runtime checks.
    fn try_emit(&mut self, node: Node) -> Option<MatchResult> {
        {
            if self.emitted_tokens.insert(node.tokens.clone()) {
                let text = self.tokenizer.decode(&node.tokens);
                if !self.emitted_texts.insert(text.clone()) && self.compiled.distinct_texts {
                    return None; // duplicate string via another encoding
                }
                if !passes_runtime_checks(
                    &self.compiled,
                    self.tokenizer,
                    &node.tokens,
                    node.prefix_len,
                    &mut self.stats,
                ) {
                    return None;
                }
                let canonical = self.tokenizer.encode(&text) == node.tokens;
                self.stats.emitted += 1;
                return Some(MatchResult {
                    tokens: node.tokens,
                    prefix_len: node.prefix_len,
                    text,
                    log_prob: -node.cost.0,
                    canonical,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryString, SearchQuery, TokenizationStrategy};
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
