//! A memoizing language-model wrapper.
//!
//! ReLM's graph traversals revisit contexts constantly: Dijkstra expands a
//! state, pushes its successors, and later re-expands extensions of the
//! same prefix; walk-weighted sampling re-queries shared prefixes across
//! samples. [`CachedLm`] memoizes `next_log_probs` per context, the same
//! role a KV-cache plays for transformer inference.
//!
//! The memo table is **byte-budgeted** (64 MiB by default, see
//! [`CachedLm::with_byte_budget`]) with the same clock-eviction policy as
//! every other memo in the workspace — no code path retains an unbounded
//! `HashMap`, so long audits cannot leak memory through a wrapper that
//! outlives its queries.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::bounded::ClockCache;
use crate::{LanguageModel, TokenId};

/// Default byte budget for a [`CachedLm`] memo table (64 MiB).
pub const DEFAULT_CACHED_LM_BYTES: usize = 64 << 20;

/// Wraps any [`LanguageModel`] with a bounded context → distribution memo
/// table.
///
/// Thread-safe: the table is behind a mutex; the first scorer of a
/// context fills the entry.
///
/// # Example
///
/// ```
/// use relm_bpe::BpeTokenizer;
/// use relm_lm::{CachedLm, LanguageModel, NGramConfig, NGramLm};
///
/// let tok = BpeTokenizer::train("a b c", 4);
/// let lm = CachedLm::new(NGramLm::train(&tok, &["a b c"], NGramConfig::small()));
/// let ctx = tok.encode("a");
/// let first = lm.next_log_probs(&ctx);
/// let second = lm.next_log_probs(&ctx); // served from cache
/// assert_eq!(first, second);
/// assert_eq!(lm.cache_len(), 1);
/// ```
#[derive(Debug)]
pub struct CachedLm<M> {
    inner: M,
    cache: Mutex<ClockCache>,
}

impl<M: LanguageModel> CachedLm<M> {
    /// Wrap `inner` with an empty cache under the default byte budget.
    pub fn new(inner: M) -> Self {
        Self::with_byte_budget(inner, DEFAULT_CACHED_LM_BYTES)
    }

    /// Wrap `inner` with an explicit memo-table byte budget. Once the
    /// budget is reached, clock eviction discards the least recently
    /// referenced distributions to make room.
    pub fn with_byte_budget(inner: M, max_bytes: usize) -> Self {
        CachedLm {
            inner,
            cache: Mutex::new(ClockCache::new(max_bytes)),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwrap, discarding the cache.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Number of cached contexts.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Estimated resident bytes of the memo table.
    pub fn cache_bytes(&self) -> usize {
        self.cache.lock().bytes()
    }

    /// Entries discarded by the eviction policy so far.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.lock().evictions()
    }

    /// Drop all cached distributions.
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// Probe the memo table without computing on a miss. Used by
    /// [`next_log_probs_batch`](LanguageModel::next_log_probs_batch) to
    /// partition a batch into hits and misses before one batched model
    /// call.
    pub fn lookup(&self, context: &[TokenId]) -> Option<Vec<f64>> {
        self.cache.lock().lookup(context).map(|row| row.to_vec())
    }

    /// Whether `context` is memoized.
    pub fn is_cached(&self, context: &[TokenId]) -> bool {
        self.cache.lock().contains(context)
    }

    /// Store a computed distribution (first writer wins, matching the
    /// fill rule of [`next_log_probs`](LanguageModel::next_log_probs)).
    pub fn insert(&self, context: Vec<TokenId>, distribution: Vec<f64>) {
        self.cache.lock().insert(context, distribution.into());
    }
}

impl<M: LanguageModel> LanguageModel for CachedLm<M> {
    fn vocab_size(&self) -> usize {
        self.inner.vocab_size()
    }

    fn eos(&self) -> TokenId {
        self.inner.eos()
    }

    fn max_sequence_len(&self) -> usize {
        self.inner.max_sequence_len()
    }

    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64> {
        if let Some(hit) = self.lookup(context) {
            return hit;
        }
        let computed = self.inner.next_log_probs(context);
        self.cache
            .lock()
            .insert(context.to_vec(), computed.as_slice().into());
        computed
    }

    /// Serve hits from the memo table and forward only the (deduplicated)
    /// misses to the inner model's batched path. The memo mutex is taken
    /// once for the partition and once for the refill, not per context.
    fn next_log_probs_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f64>> {
        let plan = {
            let mut table = self.cache.lock();
            BatchPlan::partition(contexts, |ctx| table.lookup(ctx))
        };
        let mut computed: Vec<Arc<[f64]>> = Vec::new();
        if !plan.misses.is_empty() {
            let rows = self.inner.next_log_probs_batch(&plan.misses);
            computed.extend(rows.into_iter().map(Arc::from));
            let mut table = self.cache.lock();
            for (ctx, row) in plan.misses.iter().zip(&computed) {
                table.insert(ctx.to_vec(), Arc::clone(row));
            }
        }
        // The table's rows are shared; this trait hands out fresh ones.
        let rows = plan.fill(&computed);
        rows.iter().map(|row| row.to_vec()).collect()
    }
}

/// The hit/miss partition of one scoring batch: the shared bookkeeping
/// behind [`CachedLm::next_log_probs_batch`] and
/// [`crate::ScoringEngine::score_batch`]. Hits are resolved up front;
/// duplicate misses collapse onto one evaluation slot.
pub(crate) struct BatchPlan<'a> {
    slots: Vec<Slot>,
    /// Deduplicated contexts that need a model evaluation.
    pub misses: Vec<&'a [TokenId]>,
}

/// One input slot of a [`BatchPlan`].
enum Slot {
    /// Served from the cache: the shared row.
    Hit(Arc<[f64]>),
    /// Needs the model: the context's index into `misses`.
    Miss(usize),
}

impl<'a> BatchPlan<'a> {
    /// Number of input slots resolved from the cache (table hits, not
    /// counting duplicate-miss collapses).
    pub fn hit_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| matches!(slot, Slot::Hit(_)))
            .count()
    }

    /// Partition `contexts` using `lookup` to resolve hits. `lookup` is
    /// `FnMut` so callers can close over a single lock guard instead of
    /// re-acquiring a mutex per context.
    pub fn partition(
        contexts: &[&'a [TokenId]],
        mut lookup: impl FnMut(&[TokenId]) -> Option<Arc<[f64]>>,
    ) -> Self {
        let mut miss_index: std::collections::HashMap<&[TokenId], usize> =
            std::collections::HashMap::new();
        let mut misses: Vec<&[TokenId]> = Vec::new();
        let slots = contexts
            .iter()
            .map(|&ctx| match lookup(ctx) {
                Some(row) => Slot::Hit(row),
                None => Slot::Miss(*miss_index.entry(ctx).or_insert_with(|| {
                    misses.push(ctx);
                    misses.len() - 1
                })),
            })
            .collect();
        BatchPlan { slots, misses }
    }

    /// Resolve the plan with the evaluated miss rows (one per entry of
    /// `misses`, in order): every slot that missed shares its context's
    /// one row.
    pub fn fill(self, computed: &[Arc<[f64]>]) -> Vec<Arc<[f64]>> {
        debug_assert_eq!(computed.len(), self.misses.len());
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Hit(row) => row,
                Slot::Miss(index) => Arc::clone(&computed[index]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NGramConfig, NGramLm};
    use relm_bpe::BpeTokenizer;

    fn fixture() -> (BpeTokenizer, CachedLm<NGramLm>) {
        let tok = BpeTokenizer::train("the cat sat on the mat", 30);
        let lm = NGramLm::train(&tok, &["the cat sat on the mat"], NGramConfig::xl());
        (tok, CachedLm::new(lm))
    }

    #[test]
    fn cache_grows_per_distinct_context() {
        let (tok, lm) = fixture();
        let a = tok.encode("the");
        let b = tok.encode("the cat");
        lm.next_log_probs(&a);
        lm.next_log_probs(&a);
        lm.next_log_probs(&b);
        assert_eq!(lm.cache_len(), 2);
    }

    #[test]
    fn cached_results_equal_inner() {
        let (tok, lm) = fixture();
        let ctx = tok.encode("the cat");
        let cached = lm.next_log_probs(&ctx);
        let direct = lm.inner().next_log_probs(&ctx);
        assert_eq!(cached, direct);
    }

    #[test]
    fn clear_cache_resets() {
        let (tok, lm) = fixture();
        lm.next_log_probs(&tok.encode("the"));
        assert_eq!(lm.cache_len(), 1);
        lm.clear_cache();
        assert_eq!(lm.cache_len(), 0);
    }

    #[test]
    fn metadata_passthrough() {
        let (_tok, lm) = fixture();
        assert_eq!(lm.vocab_size(), lm.inner().vocab_size());
        assert_eq!(lm.eos(), lm.inner().eos());
        assert_eq!(lm.max_sequence_len(), lm.inner().max_sequence_len());
    }

    #[test]
    fn byte_budget_bounds_the_table() {
        let tok = BpeTokenizer::train("the cat sat on the mat", 30);
        let model = NGramLm::train(&tok, &["the cat sat on the mat"], NGramConfig::xl());
        // One distribution is vocab_size * 8 bytes; allow ~4 of them.
        let budget = (model.vocab_size() * 8 + 256) * 4;
        let lm = CachedLm::with_byte_budget(model, budget);
        for i in 0..64u32 {
            let _ = lm.next_log_probs(&[i % 200, i / 3]);
        }
        assert!(lm.cache_bytes() <= budget, "{}", lm.cache_bytes());
        assert!(lm.cache_evictions() > 0, "eviction must have engaged");
        assert!(lm.cache_len() <= 5);
        // Values stay correct under eviction pressure.
        let probe = vec![3u32, 1];
        assert_eq!(lm.next_log_probs(&probe), lm.inner().next_log_probs(&probe));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (tok, lm) = fixture();
        let ctx = tok.encode("the");
        crossbeam::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    for _ in 0..50 {
                        let _ = lm.next_log_probs(&ctx);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(lm.cache_len(), 1);
    }
}
