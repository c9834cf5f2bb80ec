//! Randomized traversal (§3.3, Appendix C).
//!
//! Each emitted sample is one *episode*: first the prefix automaton is
//! walked with edges weighted by accepting-walk counts — uniform over
//! prefix strings, the normalization Figure 9 shows is essential — then
//! the body automaton is walked with the model, restricting every step
//! to (automaton edges ∩ policy-allowed tokens). At accepting states the
//! model's EOS probability decides between stopping and continuing
//! (disambiguating `b` vs `bb` vs `bbb`, §3.3).
//!
//! Episodes that dead-end (every continuation pruned) are retried up to
//! the query's attempt budget; the iterator ends when the budget is
//! exhausted, so `take(n)` terminates even on adversarial queries.
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

use crate::executor::{passes_runtime_checks, CompiledQuery, ExecutionStats, StepOutcome};
use crate::query::PrefixSampling;
use crate::results::MatchResult;

/// Number of episode prefixes drawn (and batch-scored) per block.
const EPISODE_BATCH: usize = 8;

/// The random-sampling result iterator. See the module docs.
pub(crate) struct SamplingIter<'a, M: LanguageModel> {
    engine: Arc<ScoringEngine<&'a M>>,
    tokenizer: &'a BpeTokenizer,
    compiled: CompiledQuery,
    rng: SmallRng,
    walk_table: Option<Arc<WalkTable>>,
    stats: ExecutionStats,
    max_attempts: usize,
    /// Episodes attempted since the last emission (dead-end prefix
    /// draws included); the search is exhausted when this reaches
    /// `max_attempts`. `Iterator::next` grants a fresh budget per call;
    /// a driver resets only on emission.
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
        max_attempts: usize,
    ) -> Self {
        let walk_table = compiled
            .parts
            .walk_table(compiled.max_tokens, compiled.parallelism);
        SamplingIter {
            engine,
            tokenizer,
            compiled,
            rng: SmallRng::seed_from_u64(seed),
            walk_table,
            stats: ExecutionStats::default(),
            max_attempts,
            attempts_since_result: 0,
            pending: VecDeque::new(),
        }
    }

    pub(crate) fn stats(&self) -> ExecutionStats {
        self.stats.merge_scoring(self.engine.stats())
    }

    /// Grant a fresh attempt budget — `Iterator::next`'s contract
    /// (each call may spend up to `max_attempts` episodes).
    pub(crate) fn reset_attempt_budget(&mut self) {
        self.attempts_since_result = 0;
    }

    /// Sample a prefix token sequence, or `None` on a dead end.
    fn sample_prefix(&mut self) -> Option<Vec<TokenId>> {
        let prefix = self.compiled.parts.prefix.as_ref()?;
        let table = self
            .walk_table
            .as_ref()
            .expect("walk table built with prefix"); // lint: allow(panic, "the walk table is built whenever the plan has a prefix, checked above")
        let mut state = prefix.start();
        let mut tokens = Vec::new();
        loop {
            let budget = self.compiled.max_tokens.checked_sub(tokens.len())?;
            let choice = match self.compiled.prefix_sampling {
                PrefixSampling::Normalized => {
                    let dist = table.choice_distribution(prefix, state, budget)?;
                    dist.sample(self.rng.gen::<f64>())
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
    /// front and — when `warm` — its initial body contexts are
    /// batch-scored together, the episode-batched analogue of filling
    /// an accelerator batch. Failed draws consume attempts. The
    /// coalescing driver refills with `warm = false` (its shared engine
    /// tick scores the block instead); either way the refill happens at
    /// the same point in the RNG stream, keeping results byte-identical.
    fn fill_pending(&mut self, warm: bool) {
        if !self.pending.is_empty() {
            return;
        }
        while self.pending.len() < EPISODE_BATCH && self.attempts_since_result < self.max_attempts {
            match self.sample_prefix() {
                Some(tokens) => self.pending.push_back(tokens),
                None => {
                    self.stats.dead_ends += 1;
                    self.attempts_since_result += 1;
                }
            }
        }
        if warm
            && self.pending.len() > 1
            // If the engine has stopped admitting cache entries the warm
            // block's scores would be discarded — skip the warm-up.
            && self.engine.admits_new_entries()
        {
            // Warm the cache for the block's first body steps. Scoring is
            // pure, so this cannot change what the walks sample.
            let contexts: Vec<Vec<TokenId>> = self
                .pending
                .iter()
                .map(|prefix| {
                    let mut ctx = Vec::with_capacity(prefix.len() + 1);
                    ctx.push(self.engine.eos());
                    ctx.extend_from_slice(prefix);
                    ctx
                })
                .collect();
            let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
            let _ = self.engine.score_batch(&refs);
        }
    }

    /// The initial body contexts of the pending episode block — what
    /// the next episodes will score first — uncached only, up to
    /// `limit`. Refills the block if it is empty (the same RNG-stream
    /// point where sequential execution would refill), skipping the
    /// internal warm scoring: the driver's coalesced tick covers it.
    pub(crate) fn frontier_contexts(&mut self, limit: usize) -> Vec<Vec<TokenId>> {
        if limit == 0
            || self.attempts_since_result >= self.max_attempts
            || !self.engine.admits_new_entries()
        {
            return Vec::new();
        }
        let mut out: Vec<Vec<TokenId>> = Vec::new();
        if self.compiled.parts.prefix.is_none() {
            // Every episode starts its body walk at the EOS root.
            let ctx = vec![self.engine.eos()];
            if !self.engine.is_cached(&ctx) {
                out.push(ctx);
            }
        } else {
            self.fill_pending(false);
            for prefix in self.pending.iter().take(limit) {
                let mut ctx = Vec::with_capacity(prefix.len() + 1);
                ctx.push(self.engine.eos());
                ctx.extend_from_slice(prefix);
                if !self.engine.is_cached(&ctx) && !out.contains(&ctx) {
                    out.push(ctx);
                }
            }
        }
        out
    }

    /// Extend `tokens` through the body automaton with the model.
    /// Returns `false` on a dead end.
    fn sample_body(&mut self, tokens: &mut Vec<TokenId>) -> bool {
        let parts = Arc::clone(&self.compiled.parts);
        let body = &parts.body.automaton;
        let mut state = body.start();
        loop {
            self.stats.expansions += 1;
            let at_capacity = tokens.len() >= self.compiled.max_tokens
                || tokens.len() + 1 >= self.engine.max_sequence_len();
            if at_capacity {
                // EOS-required queries cannot confirm termination at the
                // token cap; everything else accepts where it stands.
                return body.is_accepting(state) && !self.compiled.require_eos;
            }
            let mut ctx = Vec::with_capacity(tokens.len() + 1);
            ctx.push(self.engine.eos());
            ctx.extend_from_slice(&*tokens);
            let log_probs = self.engine.score(&ctx);
            self.stats.lm_calls += 1;
            let allowed = self.compiled.policy.filter(&log_probs);

            // Options: automaton edges the policy permits, plus EOS-stop
            // at accepting states.
            let mut choices: Vec<(Option<(TokenId, usize)>, f64)> = Vec::new();
            for (sym, target) in body.transitions(state) {
                if let Some(lp) = allowed.get(sym) {
                    choices.push((Some((sym, target)), lp.exp()));
                }
            }
            if body.is_accepting(state) {
                let eos_lp = log_probs[self.engine.eos() as usize];
                if eos_lp.is_finite() {
                    choices.push((None, eos_lp.exp()));
                }
            }
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
                Some((sym, target)) => {
                    tokens.push(sym);
                    state = target;
                }
            }
        }
    }
}

impl<'a, M: LanguageModel> SamplingIter<'a, M> {
    /// One sampling episode: draw (or take the pending) prefix, walk the
    /// body with the model, and emit if the walk completes and passes
    /// the runtime checks. Returns [`StepOutcome::Done`] once the
    /// attempt budget since the last emission is exhausted.
    pub(crate) fn step(&mut self) -> StepOutcome {
        if self.attempts_since_result >= self.max_attempts {
            return StepOutcome::Done;
        }
        // --- Prefix phase (episode-batched; see fill_pending) ---
        let prefix_tokens = if self.compiled.parts.prefix.is_some() {
            self.fill_pending(true);
            match self.pending.pop_front() {
                Some(t) => t,
                // Every draw in the block dead-ended; the failed draws
                // already consumed attempts.
                None => {
                    return if self.attempts_since_result >= self.max_attempts {
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
            self.stats.dead_ends += 1;
            return StepOutcome::Working;
        }

        if !passes_runtime_checks(
            &self.compiled,
            self.tokenizer,
            &tokens,
            prefix_len,
            &mut self.stats,
        ) {
            return StepOutcome::Working;
        }

        let text = self.tokenizer.decode(&tokens);
        let mut ctx = Vec::with_capacity(tokens.len() + 1);
        ctx.push(self.engine.eos());
        ctx.extend_from_slice(&tokens);
        // Score the emitted match: one engine request per token, summed
        // left to right over the shared rows (the additions, and so the
        // bits, of `relm_lm::sequence_log_prob`). The body walk scored
        // the contexts from the end of the prefix on, so those are hits.
        // The prefix walk reads walk counts only and never calls the
        // model, so the template's contexts are scored here for the
        // first time, and looked up here again on every later emission
        // — about half of this executor's `lm_calls`.
        let mut log_prob = 0.0;
        for i in 1..ctx.len() {
            log_prob += self.engine.score(&ctx[..i])[ctx[i] as usize];
        }
        self.stats.lm_calls += tokens.len() as u64;
        let canonical = self.tokenizer.encode(&text) == tokens;
        self.stats.emitted += 1;
        self.attempts_since_result = 0;
        StepOutcome::Match(MatchResult {
            tokens,
            prefix_len,
            text,
            log_prob,
            canonical,
        })
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
}
