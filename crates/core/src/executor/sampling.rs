//! Randomized traversal (§3.3, Appendix C).
//!
//! Each emitted sample is one *episode*: first the prefix automaton is
//! walked with edges weighted by accepting-walk counts — uniform over
//! prefix strings, the normalization Figure 9 shows is essential — then
//! the body automaton is walked with the model, drawing each step from
//! what [`Kernel::expand`] keeps. At accepting states the policy's view
//! of EOS weighs stopping against continuing (disambiguating `b` vs
//! `bb` vs `bbb`, §3.3), on the same scale as the edges.
//!
//! Episodes that dead-end (every continuation pruned) are retried until
//! [`MAX_ATTEMPTS`] episodes have passed without an emission; the
//! stream then ends for good, so `take(n)` terminates even on
//! adversarial queries.
//!
//! Scoring is **episode-batched**: prefixes are drawn in blocks (the
//! prefix walk needs no model, only walk counts), and the block's
//! initial body contexts are batch-scored through the
//! [`relm_lm::ScoringEngine`] before the walks start, so every episode begins
//! cache-warm and shared prefixes across episodes are never re-scored.
//! The RNG stream does not depend on what is cached or batched, so
//! every schedule samples byte-identical episodes.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use relm_automata::{WalkChoice, WalkTable};
use relm_bpe::{BpeTokenizer, TokenId};
use relm_lm::{LanguageModel, ScoringEngine};

use crate::executor::{At, CompiledQuery, Kernel, Next, StepOutcome};
use crate::query::PrefixSampling;

/// Number of episode prefixes drawn (and batch-scored) per block.
const EPISODE_BATCH: usize = 8;

/// Sampling episodes one emission may cost before the search counts
/// as exhausted.
const MAX_ATTEMPTS: usize = 64;

/// The random-sampling result iterator. See the module docs.
pub(crate) struct SamplingIter<'a, M: LanguageModel> {
    pub(super) kernel: Kernel<'a, M>,
    rng: SmallRng,
    walk_table: Option<Arc<WalkTable>>,
    /// Episodes attempted since the last emission (dead-end prefix
    /// draws included); the search is exhausted when this reaches
    /// [`MAX_ATTEMPTS`], and stays exhausted.
    attempts_since_result: usize,
    /// Pre-drawn episode prefixes awaiting their body walk.
    pending: VecDeque<Vec<TokenId>>,
}

impl<'a, M: LanguageModel> SamplingIter<'a, M> {
    pub(crate) fn new(
        engine: Arc<ScoringEngine<&'a M>>,
        tokenizer: &'a BpeTokenizer,
        compiled: CompiledQuery,
        seed: u64,
    ) -> Self {
        let walk_table = compiled.parts.walk_table(compiled.max_tokens);
        SamplingIter {
            kernel: Kernel::new(engine, tokenizer, compiled, false),
            rng: SmallRng::seed_from_u64(seed),
            walk_table,
            attempts_since_result: 0,
            pending: VecDeque::new(),
        }
    }

    /// Sample a prefix token sequence, or `None` on a dead end.
    fn sample_prefix(&mut self) -> Option<Vec<TokenId>> {
        let compiled = &self.kernel.compiled;
        let prefix = compiled.parts.prefix.as_ref()?;
        let table = self
            .walk_table
            .as_ref()
            .expect("walk table built with prefix"); // lint: allow(panic, "the walk table is built whenever the plan has a prefix, checked above")
        let mut state = prefix.start();
        let mut tokens = Vec::new();
        loop {
            let budget = compiled.max_tokens.checked_sub(tokens.len())?;
            let choice = match compiled.prefix_sampling {
                // The draw is taken before the walk knows it can move.
                // That costs no emission: every pick keeps an accepting
                // walk within the budget, so only the first step can
                // dead-end, and then it does on every attempt.
                PrefixSampling::Normalized => {
                    table.draw(prefix, state, budget, self.rng.gen::<f64>())?
                }
                PrefixSampling::UniformEdges => {
                    // The naive scheme: all outgoing edges (plus stop, if
                    // accepting) equally likely — Appendix C's strawman.
                    let mut options: Vec<WalkChoice> = Vec::new();
                    if budget > 0 {
                        for (symbol, target) in prefix.transitions(state) {
                            // Skip edges that cannot reach acceptance.
                            if budget > 0 && table.edge_weight(target, budget) > 0.0 {
                                options.push(WalkChoice::Step { symbol, target });
                            }
                        }
                    }
                    if prefix.is_accepting(state) {
                        options.push(WalkChoice::Stop);
                    }
                    if options.is_empty() {
                        return None;
                    }
                    options[self.rng.gen_range(0..options.len())]
                }
            };
            match choice {
                WalkChoice::Stop => return Some(tokens),
                WalkChoice::Step { symbol, target } => {
                    tokens.push(symbol);
                    state = target;
                }
            }
        }
    }

    /// Refill the pending episode block when it has run dry: prefixes
    /// need no model (walk counts only), so a whole block is drawn up
    /// front and its initial body contexts are batch-scored together,
    /// the episode-batched analogue of filling an accelerator batch.
    /// Failed draws consume attempts.
    fn fill_pending(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        while self.pending.len() < EPISODE_BATCH && self.attempts_since_result < MAX_ATTEMPTS {
            match self.sample_prefix() {
                Some(tokens) => self.pending.push_back(tokens),
                None => {
                    self.kernel.stats.dead_ends += 1;
                    self.attempts_since_result += 1;
                }
            }
        }
        if self.pending.len() > 1 && self.kernel.engine.admits_new_entries() {
            // Warm the cache for the block's first body steps. Scoring is
            // pure, so this cannot change what the walks sample. The
            // whole block is asked for, cached contexts too: their hits
            // mark the cache's clock, feed its admission control and
            // count in `cache_hits`.
            let contexts: Vec<Vec<TokenId>> = self
                .pending
                .iter()
                .map(|p| self.kernel.context(p))
                .collect();
            let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
            let _ = self.kernel.engine.score_batch(&refs);
        }
    }

    /// Extend `tokens` through the body automaton with the model.
    /// Returns `false` on a dead end.
    fn sample_body(&mut self, tokens: &mut Vec<TokenId>) -> bool {
        let mut at = self.kernel.body_start();
        loop {
            self.kernel.stats.expansions += 1;
            if !self.kernel.may_extend(tokens.len()) {
                // EOS-required queries cannot confirm termination at the
                // token cap; everything else accepts where it stands.
                return self.kernel.completes(at);
            }
            let row = self.kernel.score(tokens);
            // Options: the successors the kernel keeps, then the stop.
            let mut choices: Vec<(Option<(TokenId, At)>, f64)> = Vec::new();
            let mut stop = None;
            self.kernel.expand(at, &row, |next| match next {
                Next::Stop { lp, .. } => stop = Some(lp.exp()),
                Next::Edge { token, to, lp } => choices.push((Some((token, to)), lp.exp())),
            });
            choices.extend(stop.map(|weight| (None, weight)));
            let total: f64 = choices.iter().map(|&(_, w)| w).sum();
            if choices.is_empty() || total <= 0.0 {
                return false;
            }
            let mut u = self.rng.gen::<f64>() * total;
            let mut picked = choices.len() - 1;
            for (i, &(_, w)) in choices.iter().enumerate() {
                u -= w;
                if u <= 0.0 {
                    picked = i;
                    break;
                }
            }
            match choices[picked].0 {
                None => return true, // EOS: stop at this accepting state
                Some((token, to)) => {
                    tokens.push(token);
                    at = to;
                }
            }
        }
    }

    /// One sampling episode: draw (or take the pending) prefix, walk the
    /// body with the model, and emit if the walk completes and passes
    /// the runtime checks. Returns [`StepOutcome::Done`] once the
    /// attempt budget since the last emission is exhausted.
    pub(crate) fn step(&mut self) -> StepOutcome {
        if self.attempts_since_result >= MAX_ATTEMPTS {
            return StepOutcome::Done;
        }
        // --- Prefix phase (episode-batched; see fill_pending) ---
        let prefix_tokens = if self.kernel.compiled.parts.prefix.is_some() {
            self.fill_pending();
            match self.pending.pop_front() {
                Some(t) => t,
                // Every draw in the block dead-ended; the failed draws
                // already consumed attempts.
                None => {
                    return if self.attempts_since_result >= MAX_ATTEMPTS {
                        StepOutcome::Done
                    } else {
                        StepOutcome::Working
                    };
                }
            }
        } else {
            Vec::new()
        };
        let prefix_len = prefix_tokens.len();
        self.attempts_since_result += 1;

        // --- Body phase ---
        let mut tokens = prefix_tokens;
        if !self.sample_body(&mut tokens) {
            self.kernel.stats.dead_ends += 1;
            return StepOutcome::Working;
        }
        // The emitted score is summed here over the engine's rows: the
        // body walk scored the contexts from the end of the prefix on,
        // so those are hits. The prefix walk reads walk counts only, so
        // the template's contexts are scored here for the first time,
        // and looked up here again on every later emission — about half
        // of this executor's `lm_calls`.
        match self.kernel.emit(tokens, prefix_len, None) {
            Some(m) => {
                self.attempts_since_result = 0;
                StepOutcome::Match(m)
            }
            None => StepOutcome::Working,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{
        PrefixSampling, QueryString, SearchQuery, SearchStrategy, TokenizationStrategy,
    };
    use relm_lm::{NGramConfig, NGramLm};
    use std::collections::HashMap;

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let docs = [
            "the man was trained in computer science",
            "the man was trained in computer science",
            "the man was trained in engineering",
            "the woman was trained in medicine",
            "the woman was trained in medicine",
            "the woman was trained in art",
        ];
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 120);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        (tok, lm)
    }

    fn sampling_query(pattern: &str, prefix: Option<&str>, seed: u64) -> SearchQuery {
        let mut qs = QueryString::new(pattern);
        if let Some(p) = prefix {
            qs = qs.with_prefix(p);
        }
        SearchQuery::new(qs).with_strategy(SearchStrategy::RandomSampling { seed })
    }

    #[test]
    fn samples_are_in_the_language() {
        let (tok, lm) = fixture();
        let query = sampling_query(
            "the ((man)|(woman)) was trained in ((art)|(medicine)|(computer science)|(engineering))",
            Some("the"),
            11,
        );
        let re = relm_regex::Regex::compile(
            "the ((man)|(woman)) was trained in ((art)|(medicine)|(computer science)|(engineering))",
        )
        .unwrap();
        let samples: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(30)
            .collect();
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(re.is_match(&s.text), "out-of-language sample {:?}", s.text);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let (tok, lm) = fixture();
        let q = |seed| sampling_query("the ((man)|(woman)) was", Some("the"), seed);
        let a: Vec<String> = crate::cold_client(&lm, &tok)
            .search(&q(5))
            .unwrap()
            .take(10)
            .map(|m| m.text)
            .collect();
        let b: Vec<String> = crate::cold_client(&lm, &tok)
            .search(&q(5))
            .unwrap()
            .take(10)
            .map(|m| m.text)
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = crate::cold_client(&lm, &tok)
            .search(&q(6))
            .unwrap()
            .take(10)
            .map(|m| m.text)
            .collect();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn model_bias_shows_in_sample_frequencies() {
        let (tok, lm) = fixture();
        // Condition on "the man was trained in " — computer science
        // dominates the training data for men.
        let query = sampling_query(
            "the man was trained in ((art)|(medicine)|(computer science)|(engineering))",
            Some("the man was trained in"),
            13,
        );
        let mut counts: HashMap<String, usize> = HashMap::new();
        for m in crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(60)
        {
            let suffix = m
                .text
                .trim_start_matches("the man was trained in ")
                .to_string();
            *counts.entry(suffix).or_default() += 1;
        }
        let cs = counts.get("computer science").copied().unwrap_or(0);
        let med = counts.get("medicine").copied().unwrap_or(0);
        assert!(cs > med, "cs {cs} vs medicine {med}: bias should surface");
    }

    #[test]
    fn normalized_prefix_sampling_is_uniform_over_strings() {
        // Prefix language {a, b, bb, bbb} (as literal alternatives): with
        // walk-count normalization each string ~25%.
        let docs = ["a x", "b x", "bb x", "bbb x"];
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 10);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::small());
        let query = sampling_query("((a)|(b)|(bb)|(bbb)) x", Some("(a)|(b)|(bb)|(bbb)"), 17)
            .with_tokenization(TokenizationStrategy::All);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let n = 400;
        for m in crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(n)
        {
            *counts.entry(m.prefix_len).or_default() += 1;
        }
        // Under uniform-string sampling, prefix lengths 1 (a or b: 2
        // strings), 2 (bb), 3 (bbb) occur 2:1:1.
        let l1 = counts.get(&1).copied().unwrap_or(0) as f64;
        let l2 = counts.get(&2).copied().unwrap_or(0) as f64;
        let l3 = counts.get(&3).copied().unwrap_or(0) as f64;
        let total = l1 + l2 + l3;
        assert!((l1 / total - 0.5).abs() < 0.1, "l1 share {}", l1 / total);
        assert!((l2 / total - 0.25).abs() < 0.1, "l2 share {}", l2 / total);
        assert!((l3 / total - 0.25).abs() < 0.1, "l3 share {}", l3 / total);
    }

    #[test]
    fn uniform_edge_sampling_is_biased() {
        // Same language, naive edge sampling: "a" and "b…" split 50/50 at
        // the first edge, so length-1 prefixes are over-sampled relative
        // to uniform-over-strings... actually 'a'|'b' is a single state
        // with two edges; the bias shows in string identity: "a" gets
        // ~50% of l1 mass vs 25% under normalization. Compare "a" rates.
        let docs = ["a x", "b x", "bb x", "bbb x"];
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 10);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::small());
        let count_a = |mode: PrefixSampling, seed: u64| {
            let query = sampling_query("((a)|(b)|(bb)|(bbb)) x", Some("(a)|(b)|(bb)|(bbb)"), seed)
                .with_tokenization(TokenizationStrategy::All)
                .with_prefix_sampling(mode);
            let mut a = 0usize;
            let mut total = 0usize;
            for m in crate::cold_client(&lm, &tok)
                .search(&query)
                .unwrap()
                .take(300)
            {
                if m.text.starts_with('a') {
                    a += 1;
                }
                total += 1;
            }
            a as f64 / total as f64
        };
        let normalized = count_a(PrefixSampling::Normalized, 23);
        let uniform = count_a(PrefixSampling::UniformEdges, 23);
        assert!((normalized - 0.25).abs() < 0.08, "normalized {normalized}");
        assert!(
            uniform > normalized + 0.1,
            "uniform {uniform} vs {normalized}"
        );
    }

    #[test]
    fn eos_disambiguates_nested_accepting_states() {
        // Language b|bb|bbb: sampling must terminate at intermediate
        // accepting states sometimes, driven by EOS probability.
        let docs = ["b", "bb", "bbb"];
        let corpus = "b. bb. bbb";
        let tok = BpeTokenizer::train(corpus, 5);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::small());
        let query = sampling_query("(b)|(bb)|(bbb)", None, 31);
        let texts: std::collections::HashSet<String> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(200)
            .map(|m| m.text)
            .collect();
        assert!(texts.contains("b"), "{texts:?}");
        assert!(texts.contains("bb") || texts.contains("bbb"), "{texts:?}");
    }

    #[test]
    fn greedy_never_stops_where_its_top_token_continues() {
        // After "x" the model's top token is the space of "x y" (three
        // documents in four end there with "y"), so greedy decoding cuts
        // EOS at the accepting state "x": the stop weight is the
        // policy's view of EOS, as every edge's weight is.
        let docs = ["x y", "x y", "x y", "x"];
        let tok = BpeTokenizer::train(&docs.join(". "), 0);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        let query =
            sampling_query("x( y)?", None, 5).with_policy(relm_lm::DecodingPolicy::greedy());
        let texts: Vec<String> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(40)
            .map(|m| m.text)
            .collect();
        assert_eq!(texts.len(), 40);
        assert!(texts.iter().all(|t| t == "x y"), "{texts:?}");
    }

    #[test]
    fn attempt_budget_bounds_iteration() {
        // A query whose body dead-ends under greedy decoding: iterator
        // must end rather than loop forever.
        let (tok, lm) = fixture();
        let query =
            sampling_query("zzzzqqqq", None, 1).with_policy(relm_lm::DecodingPolicy::greedy());
        let results: Vec<_> = crate::cold_client(&lm, &tok)
            .search(&query)
            .unwrap()
            .take(5)
            .collect();
        assert!(results.len() <= 5); // typically 0; must terminate
    }

    #[test]
    fn stats_count_episodes() {
        let (tok, lm) = fixture();
        let query = sampling_query("the ((man)|(woman))", Some("the"), 77);
        let client = crate::cold_client(&lm, &tok);
        let mut results = client.search(&query).unwrap();
        let n = (&mut results).take(5).count();
        assert_eq!(n, 5);
        let stats = results.stats();
        assert_eq!(stats.emitted, 5);
        assert!(stats.lm_calls > 0);
    }

    #[test]
    fn an_exhausted_stream_stays_exhausted() {
        // A deferred filter keeps one unlikely text of eight, so about one
        // episode in eleven emits. With seed 0 the third pull runs 64
        // episodes without an emission and returns `None`; the stream
        // must not grant itself a fresh budget on the next pull.
        let (tok, lm) = fixture();
        let drop = relm_regex::Regex::compile(
            "the ((woman)|(man was trained in ((medicine)|(computer science)|(engineering)))).*",
        )
        .unwrap()
        .dfa()
        .clone();
        let query = sampling_query(
            "the ((man)|(woman)) was trained in ((art)|(medicine)|(computer science)|(engineering))",
            None,
            0,
        )
        .with_preprocessor(crate::Preprocessor::deferred_filter(drop));
        let client = crate::cold_client(&lm, &tok);
        let mut results = client.search(&query).unwrap();
        let texts: Vec<String> = (&mut results).map(|m| m.text).collect();
        assert_eq!(texts, ["the man was trained in art"; 2]);
        let expansions = results.stats().expansions;
        for _ in 0..3 {
            assert!(results.next().is_none(), "{:?}", results.stats());
        }
        assert_eq!(
            results.stats().expansions,
            expansions,
            "no episode after None"
        );
    }
}
