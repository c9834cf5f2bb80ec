//! The batched, cache-aware scoring engine.
//!
//! The paper's throughput comes from driving the LLM with *batched*
//! queries over the compiled token automaton (§3.3): the executor
//! schedules sets of contexts, the accelerator evaluates them together,
//! and a KV-cache-like memo avoids re-evaluating shared prefixes.
//! [`ScoringEngine`] is that layer for this workspace: it sits between
//! the executors and any [`LanguageModel`] and provides
//!
//! 1. **memoization** — a bounded memo table serves revisited contexts
//!    without model work (graph traversals revisit constantly),
//! 2. **deduplication** — identical contexts inside one batch are
//!    evaluated once,
//! 3. **batching** — the surviving misses are scored in one call at
//!    the engine's configured [`Parallelism`]: inline when it is serial
//!    or the batch is small, on the persistent worker pool otherwise —
//!    the engine is the one way into that pool,
//! 4. **accounting** — hit/miss/batch counters feed
//!    `ExecutionStats`, giving every benchmark a cost model,
//! 5. **admission control** — workloads that never revisit a context
//!    (level-synchronous beam search) stop paying for memo writes.
//!
//! There is one memo and one admission rule: the table is always a
//! [`SharedScoringCache`] — byte-budgeted clock eviction, generation
//! tags, reuse-gated admission
//! ([`SharedScoringCache::admission_open`]). A session hands every
//! engine it builds the same cache
//! ([`ScoringEngine::with_shared_cache`]), so its queries pool their
//! memoized distributions; [`ScoringEngine::new`] gives an engine a
//! cache of its own, discarded with the engine.
//!
//! **Rows are shared, not copied.** Every scoring call hands out
//! `Arc<[f64]>` rows: the table and any number of readers hold one
//! immutable allocation. A hit clones the `Arc`; a computed miss is
//! converted once and that same allocation goes into the table;
//! duplicates of one context in a batch share one row. A row a reader
//! still holds outlives its eviction, so the byte budget bounds the
//! table, not the process. Only [`LanguageModel::next_log_probs`] on the
//! engine copies, because that trait hands out fresh `Vec`s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relm_automata::Parallelism;
use relm_bpe::TokenId;

use crate::{LanguageModel, SharedScoringCache};

/// Byte budget of the cache [`ScoringEngine::new`] gives an engine of
/// its own (64 MiB).
const DEFAULT_ENGINE_CACHE_BYTES: usize = 64 << 20;

/// Counters describing the work a [`ScoringEngine`] has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ScoringStats {
    /// Requests served from the memo table (or deduplicated inside a
    /// batch) without touching the model.
    pub cache_hits: u64,
    /// Distinct contexts that required a model evaluation.
    pub cache_misses: u64,
    /// Batched model invocations issued.
    pub batches: u64,
    /// Total contexts evaluated across those invocations
    /// (`batched_contexts / batches` is the mean batch fill).
    pub batched_contexts: u64,
    /// Memo-table entries discarded by the eviction policy over the
    /// cache's lifetime (a session's cache outlives its engines).
    pub cache_evictions: u64,
    /// Estimated resident bytes of the memo table right now (a gauge,
    /// not a counter).
    pub cache_bytes: u64,
    /// Model batches issued through [`ScoringEngine::score_batch_coalesced`]
    /// — the ticks of a multi-query interleaving driver (`run_many`),
    /// as opposed to batches an executor issued for its own traversal.
    pub coalesced_batches: u64,
    /// Contexts evaluated inside those coalesced batches.
    pub coalesced_contexts: u64,
    /// Coalesced batches whose contexts were contributed by **two or
    /// more distinct queries** — the cross-query shared batches that
    /// per-query execution can never produce.
    pub cross_query_batches: u64,
}

impl ScoringStats {
    /// Mean contexts evaluated per model batch (0 when no batch was
    /// issued) — the "batch fill" every benchmark reports.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_contexts as f64 / self.batches as f64
    }
}

/// Batched, memoizing scoring front-end over any [`LanguageModel`].
///
/// The engine itself implements [`LanguageModel`], so model-generic
/// helpers (`sequence_log_prob`, `sample_sequence`, …) can run through
/// it and share its cache and counters.
///
/// # Example
///
/// ```
/// use relm_bpe::BpeTokenizer;
/// use relm_lm::{NGramConfig, NGramLm, ScoringEngine};
///
/// let tok = BpeTokenizer::train("a b c", 4);
/// let engine = ScoringEngine::new(NGramLm::train(&tok, &["a b c"], NGramConfig::small()));
/// let (a, b) = (tok.encode("a"), tok.encode("a b"));
/// let batch = engine.score_batch(&[&a, &b, &a]); // `a` deduplicated
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch[0], batch[2]);
/// let stats = engine.stats();
/// assert_eq!(stats.cache_misses, 2);
/// assert_eq!(stats.cache_hits, 1);
/// assert_eq!(stats.batches, 1);
/// ```
#[derive(Debug)]
pub struct ScoringEngine<M> {
    model: M,
    /// The memo table: the session's cache, or one of the engine's own.
    cache: Arc<SharedScoringCache>,
    /// Resolved worker budget for miss scoring. `Serial` scores misses
    /// inline; a sharded setting routes them to the persistent
    /// [`crate::pool::WorkerPool`]. Sessions thread their configured
    /// [`Parallelism`] here so a serial session never spawns workers.
    parallelism: Parallelism,
    hits: AtomicU64,
    misses: AtomicU64,
    batches: AtomicU64,
    batched_contexts: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_contexts: AtomicU64,
    cross_query_batches: AtomicU64,
}

impl<M: LanguageModel> ScoringEngine<M> {
    /// An engine over `model` with an empty cache of its own, bounded
    /// at 64 MiB.
    pub fn new(model: M) -> Self {
        Self::with_shared_cache(
            model,
            Arc::new(SharedScoringCache::new(DEFAULT_ENGINE_CACHE_BYTES)),
        )
    }

    /// An engine whose memo table is a [`SharedScoringCache`] owned by
    /// the caller — the cross-query persistence path: every engine built
    /// over the same handle serves and fills one pooled table.
    pub fn with_shared_cache(model: M, cache: Arc<SharedScoringCache>) -> Self {
        ScoringEngine {
            model,
            cache,
            parallelism: Parallelism::auto(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_contexts: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            coalesced_contexts: AtomicU64::new(0),
            cross_query_batches: AtomicU64::new(0),
        }
    }

    /// Route miss scoring through the given [`Parallelism`] (builder
    /// style). `Serial` scores misses inline on the calling thread; a
    /// sharded setting scores batches large enough to split on the
    /// persistent worker pool and smaller ones inline. The models do
    /// not fan out on their own, so this setting is the only thing that
    /// decides whether scoring enters the pool. The default is
    /// [`Parallelism::auto`], which reads the host's core count once
    /// per process.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The resolved worker budget for miss scoring.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Evaluate a deduplicated miss set under the configured
    /// [`Parallelism`]: a parallel setting sends a batch large enough to
    /// split to the persistent pool; every other batch is the model's
    /// `next_log_probs_batch`, which the workspace's models leave as a
    /// serial `next_log_probs` map (all paths are bit-identical).
    fn compute_scores(&self, misses: &[&[TokenId]]) -> Vec<Arc<[f64]>> {
        crate::pool::pooled_scores(self.model(), misses, self.parallelism)
            .unwrap_or_else(|| self.model().next_log_probs_batch(misses))
            .into_iter()
            .map(Arc::from)
            .collect()
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Snapshot of the work counters.
    pub fn stats(&self) -> ScoringStats {
        let cache = self.cache.stats();
        ScoringStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_contexts: self.batched_contexts.load(Ordering::Relaxed),
            cache_evictions: cache.evictions,
            cache_bytes: cache.bytes as u64,
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            coalesced_contexts: self.coalesced_contexts.load(Ordering::Relaxed),
            cross_query_batches: self.cross_query_batches.load(Ordering::Relaxed),
        }
    }

    /// Whether `context` is already memoized. Executors use this to pick
    /// prefetch candidates without perturbing the counters.
    pub fn is_cached(&self, context: &[TokenId]) -> bool {
        self.cache.probe(context)
    }

    /// Whether the memo table still admits new entries
    /// ([`SharedScoringCache::admission_open`]). Executors consult this
    /// before scoring ahead of demand (frontier prefetch, episode warm
    /// blocks): while admission is closed, a prefetched score would be
    /// discarded and recomputed, so prefetching stops too.
    pub fn admits_new_entries(&self) -> bool {
        self.cache.admission_open()
    }

    /// Number of memoized contexts.
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Score one context. The row is shared with the memo table (a hit
    /// copies nothing; a miss is converted once and that allocation is
    /// what the table keeps), so it is immutable and may outlive its
    /// eviction.
    pub fn score(&self, context: &[TokenId]) -> Arc<[f64]> {
        if let Some(hit) = self.cache.lookup(context) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_contexts.fetch_add(1, Ordering::Relaxed);
        let computed: Arc<[f64]> = self.model().next_log_probs(context).into();
        if self.cache.admission_open() {
            self.cache.insert(context.to_vec(), Arc::clone(&computed));
        }
        computed
    }

    /// Score a batch of contexts, in input order: hits come from the
    /// memo table, duplicate misses collapse to one evaluation, and the
    /// surviving misses go to the model in a single
    /// [`LanguageModel::next_log_probs_batch`] call. Rows are shared as
    /// in [`Self::score`]; duplicates of one context share one row.
    pub fn score_batch(&self, contexts: &[&[TokenId]]) -> Vec<Arc<[f64]>> {
        if contexts.is_empty() {
            return Vec::new();
        }
        let plan = self.cache.partition_batch(contexts);
        let miss_count = plan.misses.len() as u64;
        self.cache.record(plan.hit_count() as u64, miss_count);
        self.misses.fetch_add(miss_count, Ordering::Relaxed);
        // Duplicate misses within the batch are served without model
        // work, so they count as hits alongside memo-table hits.
        self.hits
            .fetch_add(contexts.len() as u64 - miss_count, Ordering::Relaxed);
        if plan.misses.is_empty() {
            return plan.fill(&[]);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_contexts
            .fetch_add(miss_count, Ordering::Relaxed);
        let computed = self.compute_scores(&plan.misses);
        if self.cache.admission_open() {
            self.cache.insert_many(
                plan.misses
                    .iter()
                    .zip(&computed)
                    .map(|(&ctx, row)| (ctx, Arc::clone(row))),
            );
        }
        plan.fill(&computed)
    }

    /// Score one coalesced batch assembled by a multi-query driver from
    /// the frontiers of `source_queries` distinct in-flight queries —
    /// the engine tick of `run_many`.
    ///
    /// Behaves exactly like [`Self::score_batch`] (hits served, misses
    /// deduplicated and evaluated in one model call), but additionally
    /// attributes any model batch it issues to the coalescing counters
    /// ([`ScoringStats::coalesced_batches`]), and — when the contexts
    /// came from two or more queries — to
    /// [`ScoringStats::cross_query_batches`]. This is the provenance
    /// record proving that scoring work was shared *across* queries
    /// rather than merely batched within one.
    ///
    /// Attribution reads the batch counters before and after the call,
    /// so it is only exact when this engine is driven by **one**
    /// coalescing driver at a time (the `run_many` contract). Scoring
    /// *results* stay correct under concurrency; only the provenance
    /// split between coalesced and executor-issued batches could blur
    /// if other threads score through the same engine mid-call.
    pub fn score_batch_coalesced(
        &self,
        contexts: &[&[TokenId]],
        source_queries: usize,
    ) -> Vec<Arc<[f64]>> {
        let batches_before = self.batches.load(Ordering::Relaxed);
        let contexts_before = self.batched_contexts.load(Ordering::Relaxed);
        let out = self.score_batch(contexts);
        let issued = self.batches.load(Ordering::Relaxed) - batches_before;
        if issued > 0 {
            self.coalesced_batches.fetch_add(issued, Ordering::Relaxed);
            self.coalesced_contexts.fetch_add(
                self.batched_contexts.load(Ordering::Relaxed) - contexts_before,
                Ordering::Relaxed,
            );
            if source_queries >= 2 {
                self.cross_query_batches
                    .fetch_add(issued, Ordering::Relaxed);
            }
        }
        out
    }
}

impl<M: LanguageModel> LanguageModel for ScoringEngine<M> {
    fn vocab_size(&self) -> usize {
        self.model().vocab_size()
    }

    fn eos(&self) -> TokenId {
        self.model().eos()
    }

    fn max_sequence_len(&self) -> usize {
        self.model().max_sequence_len()
    }

    // Models hand out fresh rows, so the shared ones are copied out at
    // this boundary.
    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64> {
        self.score(context).to_vec()
    }

    fn next_log_probs_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f64>> {
        self.score_batch(contexts)
            .iter()
            .map(|row| row.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NGramConfig, NGramLm};
    use relm_bpe::BpeTokenizer;
    use std::sync::Arc;

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let corpus = "the cat sat on the mat. the dog sat on the log.";
        let tok = BpeTokenizer::train(corpus, 60);
        let lm = NGramLm::train(
            &tok,
            &["the cat sat on the mat.", "the dog sat on the log."],
            NGramConfig::xl(),
        );
        (tok, lm)
    }

    #[test]
    fn batch_matches_direct_model_scores() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let contexts: Vec<Vec<_>> = ["the", "the cat", "", "the dog sat"]
            .iter()
            .map(|s| tok.encode(s))
            .collect();
        let refs: Vec<&[_]> = contexts.iter().map(Vec::as_slice).collect();
        let batched = engine.score_batch(&refs);
        for (ctx, out) in contexts.iter().zip(&batched) {
            assert_eq!(out[..], lm.next_log_probs(ctx));
        }
    }

    #[test]
    fn duplicates_in_one_batch_are_deduplicated() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        let out = engine.score_batch(&[&a, &b, &a, &a]);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], out[3]);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 2, "a and b each evaluated once");
        assert_eq!(stats.cache_hits, 2, "the two duplicate `a`s");
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_contexts, 2);
    }

    #[test]
    fn repeat_batches_hit_the_memo_table() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        engine.score_batch(&[&a, &b]);
        engine.score_batch(&[&a, &b]);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.batches, 1, "second batch was all hits");
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn single_scores_share_the_cache() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let a = tok.encode("the");
        let first = engine.score(&a);
        let second = engine.score(&a);
        assert_eq!(first, second);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn rows_are_shared_with_the_memo_table_not_copied() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        let miss = engine.score(&a);
        assert!(
            Arc::ptr_eq(&miss, &engine.score(&a)),
            "a hit is the miss's row"
        );
        let batch = engine.score_batch(&[&b, &a, &b]);
        assert!(Arc::ptr_eq(&batch[1], &miss));
        assert!(
            Arc::ptr_eq(&batch[0], &batch[2]),
            "duplicates of a missing context share its one row"
        );
        assert!(
            Arc::ptr_eq(&engine.score(&b), &batch[0]),
            "the table keeps that row"
        );
    }

    #[test]
    fn engine_is_a_language_model() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        assert_eq!(engine.vocab_size(), lm.vocab_size());
        assert_eq!(engine.eos(), lm.eos());
        assert_eq!(engine.max_sequence_len(), lm.max_sequence_len());
        let tokens = tok.encode("the cat");
        let via_engine = crate::sequence_log_prob(&engine, &tokens, 0);
        let direct = crate::sequence_log_prob(&lm, &tokens, 0);
        assert!((via_engine - direct).abs() < 1e-12);
        assert!(engine.stats().cache_misses > 0);
    }

    #[test]
    fn empty_batch_is_free() {
        let (_tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        assert!(engine.score_batch(&[]).is_empty());
        assert_eq!(engine.stats(), ScoringStats::default());
    }

    #[test]
    fn zero_reuse_workload_stops_admitting_cache_entries() {
        let (_tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let warmup = crate::shared::SHARED_ADMISSION_WARMUP;
        // Distinct contexts, never repeated: past the warm-up window the
        // admission rule must stop growing the table.
        for i in 0..warmup + 64 {
            let ctx = vec![(i % lm.vocab_size() as u64) as TokenId, (i / 7) as TokenId];
            let _ = engine.score(&ctx);
        }
        assert_eq!(engine.cache_len() as u64, warmup, "table kept growing");
        assert!(!engine.admits_new_entries());
        // Values are still correct once admission has closed.
        let probe = vec![3 as TokenId, 1];
        assert_eq!(engine.score(&probe)[..], lm.next_log_probs(&probe));
    }

    #[test]
    fn shared_cache_admission_follows_observed_reuse() {
        // The shared cache decides admission from reuse it has
        // *observed*: a long zero-reuse run closes the gate at the
        // warm-up boundary, and a later query revisiting resident
        // contexts reopens it without any reset.
        let (_tok, lm) = fixture();
        let cache = Arc::new(SharedScoringCache::new(64 << 20));
        let engine = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        let warmup = crate::shared::SHARED_ADMISSION_WARMUP;
        for i in 0..warmup + 64 {
            let ctx = vec![(i % lm.vocab_size() as u64) as TokenId, (i / 7) as TokenId];
            let _ = engine.score(&ctx);
        }
        // Nothing was ever looked up twice, so only the warm-up window
        // was admitted; the 64 contexts after it were scored, returned,
        // and dropped.
        let stats = cache.stats();
        assert_eq!(stats.insertions, warmup, "gate must close at warm-up");
        assert!(!stats.admitting);
        // A later query (fresh engine) hammering one resident context
        // reopens the gate: 4 hits * 32 >= 128 insertions.
        let warm = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        let probe = vec![0 as TokenId, 0];
        for _ in 0..4 {
            let _ = warm.score(&probe);
        }
        assert_eq!(warm.stats().cache_hits, 4);
        assert!(
            cache.stats().admitting,
            "observed reuse must reopen the gate"
        );
        // ... and fresh contexts are admitted again.
        let before = cache.stats().insertions;
        let _ = warm.score(&[1 as TokenId, 999]);
        assert_eq!(cache.stats().insertions, before + 1);
    }

    #[test]
    fn engines_pool_work_through_a_shared_cache() {
        let (tok, lm) = fixture();
        let cache = Arc::new(SharedScoringCache::new(1 << 20));
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        let first = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        first.score_batch(&[&a, &b]);
        assert_eq!(first.stats().cache_misses, 2);
        drop(first);
        // A later engine (a later query of the same session) starts warm.
        let second = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        let out = second.score_batch(&[&a, &b]);
        assert_eq!(out[0][..], lm.next_log_probs(&a));
        let stats = second.stats();
        assert_eq!(stats.cache_hits, 2, "cross-engine hits: {stats:?}");
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.batches, 0);
        assert!(stats.cache_bytes > 0);
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn shared_counters_see_one_miss_per_unique_context() {
        let (tok, lm) = fixture();
        let cache = Arc::new(SharedScoringCache::new(1 << 20));
        let engine = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        // `a` appears three times while uncached: the shared cache must
        // record ONE miss for it, not three (the duplicates collapse
        // onto the same evaluation).
        engine.score_batch(&[&a, &a, &b, &a]);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "unique misses only: {stats:?}");
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.insertions, 2);
        // A warm batch records table hits per served slot.
        engine.score_batch(&[&a, &b]);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.misses, 2, "{stats:?}");
        // Engine-level counters keep the dedup-inclusive view.
        let engine_stats = engine.stats();
        assert_eq!(engine_stats.cache_misses, 2);
        assert_eq!(engine_stats.cache_hits, 4, "2 dup + 2 warm");
    }

    #[test]
    fn generation_bump_forces_recomputation_through_the_engine() {
        let (tok, lm) = fixture();
        let cache = Arc::new(SharedScoringCache::new(1 << 20));
        let a = tok.encode("the");
        let engine = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        engine.score(&a);
        cache.bump_generation();
        let engine2 = ScoringEngine::with_shared_cache(&lm, Arc::clone(&cache));
        engine2.score(&a);
        assert_eq!(
            engine2.stats().cache_misses,
            1,
            "stale entry must not serve"
        );
    }

    #[test]
    fn coalesced_batches_are_attributed() {
        let (tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        let out = engine.score_batch_coalesced(&[&a, &b], 2);
        assert_eq!(out[0][..], lm.next_log_probs(&a));
        let stats = engine.stats();
        assert_eq!(stats.coalesced_batches, 1);
        assert_eq!(stats.coalesced_contexts, 2);
        assert_eq!(stats.cross_query_batches, 1);
        // A fully warm tick issues no model batch: nothing attributed.
        engine.score_batch_coalesced(&[&a, &b], 2);
        assert_eq!(engine.stats().coalesced_batches, 1);
        // A single-source tick is coalesced but not cross-query.
        let c = tok.encode("the dog");
        engine.score_batch_coalesced(&[&c], 1);
        let stats = engine.stats();
        assert_eq!(stats.coalesced_batches, 2);
        assert_eq!(stats.cross_query_batches, 1);
        assert!((stats.mean_batch_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reuse_heavy_workload_keeps_admitting() {
        let (_tok, lm) = fixture();
        let engine = ScoringEngine::new(&lm);
        let warmup = crate::shared::SHARED_ADMISSION_WARMUP;
        // Every context is revisited once: past the warm-up window the
        // observed reuse keeps the gate open.
        for i in 0..warmup + 64 {
            let ctx = vec![(i % lm.vocab_size() as u64) as TokenId, (i / 7) as TokenId];
            let _ = engine.score(&ctx);
            let _ = engine.score(&ctx);
        }
        assert_eq!(engine.cache_len() as u64, warmup + 64);
        assert!(engine.admits_new_entries());
        assert!(engine.is_cached(&[1, 0]));
    }
}
