//! The cross-query scoring cache: one bounded memo table shared by every
//! search a `Relm` client runs against the same model.
//!
//! ReLM audits are not one-shot — memorization sweeps, bias panels, and
//! toxicity batteries issue *many* related queries against one model,
//! and their traversals revisit the same contexts (shared prefixes, the
//! conditioning template, the EOS root). A per-query memo dies with its
//! `SearchResults`; [`SharedScoringCache`] survives it, so the second
//! query of an audit starts warm. It is the KV-cache analogue of the
//! paper's batched-inference layer, extended across queries, and the
//! only scoring memo in the workspace: an engine built outside a
//! session ([`crate::ScoringEngine::new`]) gets one of its own.
//!
//! Safety properties:
//!
//! * **bounded** — its rows live in a byte-budgeted [`Clock`] ring (the
//!   ring a session's plan memo uses too); long audits cannot leak
//!   memory through the memo table;
//! * **generation-tagged** — swapping the model (or tokenizer) behind a
//!   session bumps the generation and drops the outgoing rows in the
//!   same lock hold, so they stop occupying the budget; every row keeps
//!   the tag it was computed under, and a lookup serves only the
//!   current one, so a stale distribution can never be served across
//!   the swap;
//! * **thread-safe** — a `Mutex` around the table plus atomic counters;
//!   engines on different threads may share one cache;
//! * **reuse-gated admission** — after a warm-up window the cache keeps
//!   admitting only while its *observed* mean reuse depth stays above a
//!   floor ([`SharedScoringCache::admission_open`]); workloads whose
//!   entries are never looked up again stop churning the table, and the
//!   gate reopens by itself as soon as reuse accumulates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use relm_bpe::TokenId;

use crate::bounded::Clock;

#[cfg(test)]
mod oracle;

/// Default byte budget for a session's shared scoring cache (128 MiB).
pub const DEFAULT_SHARED_CACHE_BYTES: usize = 128 << 20;

/// Estimated fixed overhead per entry (hash-table slot, `Vec` headers,
/// clock metadata), charged on top of the key/value payload bytes.
const ENTRY_OVERHEAD_BYTES: usize = 112;

/// `(context, distribution)` pairs as exported by
/// [`SharedScoringCache::export_entries`] and re-admitted by
/// [`SharedScoringCache::import_entries`]. A distribution is the
/// `Arc<[f64]>` row the cache itself holds: exporting shares it and
/// importing seats it, so a snapshot's rows are never copied on their
/// way to or from the warm-artifact store.
pub type CacheEntries = Vec<(Vec<TokenId>, Arc<[f64]>)>;

/// Admissions granted unconditionally before the reuse gate engages —
/// the cache needs a population before "observed reuse" means anything.
pub(crate) const SHARED_ADMISSION_WARMUP: u64 = 128;

/// Reuse floor for the admission gate: past warm-up the cache admits
/// while `reuse_hits * DIVISOR >= insertions`, i.e. while at least one
/// entry in `DIVISOR` has ever been served a second time.
const SHARED_ADMISSION_MIN_REUSE_DIVISOR: u64 = 32;

/// The pure admission rule, shared by [`SharedScoringCache::admission_open`]
/// and the inline computation in `stats()` (which already holds the table
/// lock and must not re-take it).
fn admission_rule(insertions: u64, reuse_hits: u64) -> bool {
    insertions < SHARED_ADMISSION_WARMUP
        || reuse_hits.saturating_mul(SHARED_ADMISSION_MIN_REUSE_DIVISOR) >= insertions
}

/// Counters and gauges describing a [`SharedScoringCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct SharedCacheStats {
    /// Lookups served from the table (across all queries).
    pub hits: u64,
    /// Lookups that missed (stale entries count as misses).
    pub misses: u64,
    /// Entries admitted over the cache's lifetime.
    pub insertions: u64,
    /// Entries discarded (budget pressure + stale collection).
    pub evictions: u64,
    /// Internal inconsistencies healed on contact instead of panicking —
    /// partial state left behind when a scoring thread panics mid-update
    /// and the poisoned lock is recovered. Nonzero means a query somewhere
    /// paid one recomputation; before the recovery path it meant every
    /// later query of the process died on the same panic.
    pub recoveries: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Estimated resident bytes right now.
    pub bytes: usize,
    /// The byte budget.
    pub max_bytes: usize,
    /// Current generation tag (bumped on model/tokenizer swap).
    pub generation: u64,
    /// Whether the reuse-gated admission policy is currently admitting
    /// new entries (see [`SharedScoringCache::admission_open`]).
    pub(crate) admitting: bool,
    /// Mean observed reuse depth per admitted entry over the cache's
    /// lifetime — lookups served per insertion, evicted entries included.
    pub(crate) mean_reuse_depth: f64,
}

impl SharedCacheStats {
    /// Fraction of lookups served from the table.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A thread-safe, size-bounded `context -> next-token distribution` memo
/// shared across the queries of one session. See the module docs.
#[derive(Debug)]
pub struct SharedScoringCache {
    table: Mutex<Table>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A memoized row and the generation that computed it. Readers share
/// the row: a hit hands out a clone of the `Arc`, never of the floats,
/// so a row a reader still holds outlives its eviction — the byte
/// budget bounds the table, not the process.
#[derive(Debug)]
struct Row {
    value: Arc<[f64]>,
    generation: u64,
}

/// The cache behind its lock: the clock ring and the policy around it —
/// the byte budget, the generation, and the lifetime counters the
/// admission rule reads. Each context is stored once, as an `Arc` the
/// ring's index shares with its slot.
#[derive(Debug)]
struct Table {
    ring: Clock<Arc<[TokenId]>, Row>,
    max_bytes: usize,
    /// Current generation; a row of any other is never served.
    generation: u64,
    /// Entries admitted over the cache's lifetime.
    insertions: u64,
    /// Lookups served over the cache's lifetime, by entries evicted
    /// since included: with `insertions`, the admission rule's signal.
    reuse_hits: u64,
}

impl Table {
    /// Estimated bytes an entry with this key/value costs.
    fn cost_of(key: &[TokenId], value: &[f64]) -> usize {
        std::mem::size_of_val(key) + std::mem::size_of_val(value) + ENTRY_OVERHEAD_BYTES
    }

    /// Whether `context` holds a row of the current generation. Touches
    /// no referenced bit.
    fn contains(&self, context: &[TokenId]) -> bool {
        self.ring
            .peek(context)
            .is_some_and(|row| row.generation == self.generation)
    }

    /// The row for `context`, setting its referenced bit. A row of
    /// another generation (none survives a bump outside a fault) is
    /// removed on contact and reported as a miss.
    fn lookup(&mut self, context: &[TokenId]) -> Option<Arc<[f64]>> {
        let row = self.ring.get(context)?;
        if row.generation != self.generation {
            self.ring.remove(context);
            return None;
        }
        let value = Arc::clone(&row.value);
        self.reuse_hits += 1;
        Some(value)
    }

    /// Admit `context -> value` unless a current row is there already
    /// (first writer wins), making room under the byte budget. An entry
    /// larger than the whole budget is not admitted.
    fn insert(&mut self, context: Vec<TokenId>, value: Arc<[f64]>) {
        if self.contains(&context) {
            return;
        }
        let cost = Self::cost_of(&context, &value);
        if cost > self.max_bytes {
            return;
        }
        while self.ring.bytes() + cost > self.max_bytes {
            if self.ring.evict_one().is_none() {
                return;
            }
        }
        let row = Row {
            value,
            generation: self.generation,
        };
        self.ring.insert(context.into(), row, cost);
        self.insertions += 1;
    }
}

impl SharedScoringCache {
    /// An empty cache with the given byte budget.
    pub fn new(max_bytes: usize) -> Self {
        SharedScoringCache {
            table: Mutex::new(Table {
                ring: Clock::default(),
                max_bytes,
                generation: 0,
                insertions: 0,
                reuse_hits: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a context, counting the hit or miss. A hit shares the
    /// cached row; nothing is copied.
    pub fn lookup(&self, context: &[TokenId]) -> Option<Arc<[f64]>> {
        let out = self.table.lock().lookup(context);
        match out {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Whether a context is memoized, without perturbing the counters —
    /// the probe executors use to pick prefetch candidates.
    pub fn probe(&self, context: &[TokenId]) -> bool {
        self.table.lock().contains(context)
    }

    /// Partition a scoring batch against the table, holding the mutex
    /// once for the whole batch. No counters are touched here: the
    /// caller reports one miss per *unique* missing context via
    /// [`Self::record`] — a counting per-slot lookup would tally every
    /// duplicate of an uncached context as its own miss.
    pub(crate) fn partition_batch<'a>(&self, contexts: &[&'a [TokenId]]) -> BatchPlan<'a> {
        let mut table = self.table.lock();
        BatchPlan::partition(contexts, |ctx| table.lookup(ctx))
    }

    /// Admit many distributions under one lock acquisition.
    pub(crate) fn insert_many<'a>(
        &self,
        entries: impl Iterator<Item = (&'a [TokenId], Arc<[f64]>)>,
    ) {
        let mut table = self.table.lock();
        for (ctx, dist) in entries {
            table.insert(ctx.to_vec(), dist);
        }
    }

    /// Fold a batch's accounting into the counters: `hits` slots served
    /// from the table, `misses` unique contexts that needed the model.
    pub(crate) fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Admit a distribution (first writer wins; evicts under budget
    /// pressure). A fresh `Vec` is converted once; a row the caller
    /// already shares goes into the table as it is.
    pub fn insert(&self, context: Vec<TokenId>, distribution: impl Into<Arc<[f64]>>) {
        self.table.lock().insert(context, distribution.into());
    }

    /// Invalidate every entry. Call when the model or tokenizer behind
    /// the session changes: stale entries can then never be served, and
    /// their rows are dropped here (counted as evictions), so the byte
    /// budget is free for the incoming model at once. A row a reader
    /// still holds lives until that reader lets go of it.
    pub fn bump_generation(&self) {
        let mut table = self.table.lock();
        table.generation += 1;
        table.ring.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.table.lock().ring.len()
    }

    /// Whether the cache holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the live entries together with the cache's current
    /// generation tag — the export half of the warm-artifact store's
    /// optional scoring-cache persistence. Exporting counts as neither
    /// lookups nor reuse, so persisting a cache is unobservable to its
    /// admission policy. Rows are shared, not copied: the table lock is
    /// held for one reference-count bump and one short context copy per
    /// entry, whatever the vocabulary size.
    pub fn export_entries(&self) -> (u64, CacheEntries) {
        let table = self.table.lock();
        let entries = table
            .ring
            .iter()
            .filter(|(_, row)| row.generation == table.generation)
            .map(|(context, row)| (context.to_vec(), Arc::clone(&row.value)))
            .collect();
        (table.generation, entries)
    }

    /// Re-admit entries captured by [`Self::export_entries`], gated on
    /// the generation tag: entries are admitted only when `generation`
    /// matches this cache's *current* generation, so a snapshot taken
    /// before a `swap_model`/`swap_tokenizer` (which bumps the
    /// generation) can never reintroduce stale distributions — the
    /// import silently becomes a no-op instead. Returns the number of
    /// entries admitted (first writer wins; oversized entries and
    /// budget evictions apply as on any insert).
    pub fn import_entries(
        &self,
        generation: u64,
        entries: impl IntoIterator<Item = (Vec<TokenId>, Arc<[f64]>)>,
    ) -> usize {
        let mut table = self.table.lock();
        if table.generation != generation {
            return 0;
        }
        let before = table.insertions;
        for (context, distribution) in entries {
            table.insert(context, distribution);
        }
        (table.insertions - before) as usize
    }

    /// Whether the reuse-gated admission policy is currently admitting.
    ///
    /// The first 128 insertions (`SHARED_ADMISSION_WARMUP`) are admitted
    /// unconditionally. Past that, the gate stays open while the table's
    /// lifetime reuse (`reuse_hits`, one per lookup served) clears the
    /// floor `reuse_hits * 32 >= insertions` — at least one admitted
    /// entry in 32 has been served again. The gate is *not* sticky: a
    /// zero-reuse burst closes it, and hits against the resident
    /// population reopen it.
    pub fn admission_open(&self) -> bool {
        let table = self.table.lock();
        admission_rule(table.insertions, table.reuse_hits)
    }

    /// Snapshot of the counters and gauges.
    pub fn stats(&self) -> SharedCacheStats {
        let table = self.table.lock();
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: table.insertions,
            evictions: table.ring.evictions(),
            recoveries: table.ring.recoveries(),
            entries: table.ring.len(),
            bytes: table.ring.bytes(),
            max_bytes: table.max_bytes,
            generation: table.generation,
            // Computed inline: the table lock is already held, and
            // parking_lot mutexes are not reentrant.
            admitting: admission_rule(table.insertions, table.reuse_hits),
            mean_reuse_depth: if table.insertions == 0 {
                0.0
            } else {
                table.reuse_hits as f64 / table.insertions as f64
            },
        }
    }
}

/// The hit/miss partition of one scoring batch, made by
/// [`SharedScoringCache::partition_batch`] for
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
    /// `FnMut` so the caller can close over a single lock guard instead
    /// of re-acquiring a mutex per context.
    fn partition(
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

impl Default for SharedScoringCache {
    fn default() -> Self {
        SharedScoringCache::new(DEFAULT_SHARED_CACHE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = SharedScoringCache::new(1 << 20);
        assert!(cache.lookup(&[1]).is_none());
        cache.insert(vec![1], vec![0.0, -1.0]);
        assert_eq!(cache.lookup(&[1]).as_deref(), Some(&[0.0, -1.0][..]));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probe_does_not_count() {
        let cache = SharedScoringCache::new(1 << 20);
        cache.insert(vec![3], vec![0.0]);
        assert!(cache.probe(&[3]));
        assert!(!cache.probe(&[4]));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 0);
    }

    #[test]
    fn generation_bump_hides_old_entries() {
        let cache = SharedScoringCache::new(1 << 20);
        cache.insert(vec![5], vec![-2.0]);
        cache.bump_generation();
        assert!(cache.lookup(&[5]).is_none());
        assert!(cache.is_empty());
        cache.insert(vec![5], vec![-3.0]);
        assert_eq!(cache.lookup(&[5]).as_deref(), Some(&[-3.0][..]));
    }

    #[test]
    fn admission_stays_open_through_warmup() {
        let cache = SharedScoringCache::new(1 << 20);
        for i in 0..SHARED_ADMISSION_WARMUP as u32 - 1 {
            assert!(cache.admission_open(), "closed during warmup at {i}");
            cache.insert(vec![i], vec![0.0]);
        }
        assert!(cache.admission_open());
        assert!(cache.stats().admitting);
    }

    #[test]
    fn zero_reuse_closes_admission_and_reuse_reopens_it() {
        let cache = SharedScoringCache::new(1 << 20);
        for i in 0..SHARED_ADMISSION_WARMUP as u32 {
            cache.insert(vec![i], vec![0.0]);
        }
        // Warm-up spent with nothing ever looked up again: gate closes.
        assert!(!cache.admission_open());
        let stats = cache.stats();
        assert!(!stats.admitting);
        assert_eq!(stats.mean_reuse_depth, 0.0);
        // 4 hits * 32 = 128 >= 128 insertions: the gate reopens on its
        // own — no reset, no generation bump.
        for hit in 0..4 {
            assert!(!cache.admission_open(), "reopened early at hit {hit}");
            assert!(cache.lookup(&[0]).is_some());
        }
        assert!(cache.admission_open());
        let stats = cache.stats();
        assert!(stats.admitting);
        assert!(stats.mean_reuse_depth > 0.0);
    }

    #[test]
    fn export_import_round_trips_live_entries() {
        let cache = SharedScoringCache::new(1 << 20);
        cache.insert(vec![1], vec![-1.0, -2.0]);
        cache.insert(vec![2, 3], vec![-0.5]);
        let (generation, entries) = cache.export_entries();
        assert_eq!(entries.len(), 2);

        let restored = SharedScoringCache::new(1 << 20);
        let admitted = restored.import_entries(generation, entries);
        assert_eq!(admitted, 2);
        assert_eq!(restored.lookup(&[1]).as_deref(), Some(&[-1.0, -2.0][..]));
        assert_eq!(restored.lookup(&[2, 3]).as_deref(), Some(&[-0.5][..]));
    }

    #[test]
    fn export_entries_shares_rows() {
        let cache = SharedScoringCache::new(1 << 20);
        cache.insert(vec![1], vec![-1.0, -2.0]);
        let resident = cache.lookup(&[1]).expect("resident");
        let (generation, entries) = cache.export_entries();
        assert!(Arc::ptr_eq(&entries[0].1, &resident), "exported by copy");
        // And the importing side seats the very row it is handed.
        let restored = SharedScoringCache::new(1 << 20);
        assert_eq!(restored.import_entries(generation, entries), 1);
        let seated = restored.lookup(&[1]).expect("imported");
        assert!(Arc::ptr_eq(&seated, &resident), "imported by copy");
    }

    #[test]
    fn import_with_stale_generation_is_a_no_op() {
        let cache = SharedScoringCache::new(1 << 20);
        cache.insert(vec![7], vec![-4.0]);
        let (generation, entries) = cache.export_entries();
        // A model/tokenizer swap after the snapshot: the tagged entries
        // may describe the *old* model and must never be re-admitted.
        cache.bump_generation();
        assert_eq!(cache.import_entries(generation, entries), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn export_does_not_perturb_counters() {
        let cache = SharedScoringCache::new(1 << 20);
        cache.insert(vec![1], vec![0.0]);
        let before = cache.stats();
        let _ = cache.export_entries();
        let after = cache.stats();
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.misses, after.misses);
        assert_eq!(before.mean_reuse_depth, after.mean_reuse_depth);
    }

    #[test]
    fn shared_across_threads() {
        let cache = SharedScoringCache::new(1 << 20);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50u32 {
                        cache.insert(vec![t, i], vec![f64::from(i)]);
                        let _ = cache.lookup(&[t, i]);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 200);
    }

    fn dist(n: usize, seed: f64) -> Arc<[f64]> {
        (0..n).map(|i| seed - i as f64).collect()
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let c = SharedScoringCache::new(1 << 20);
        c.insert(vec![1], dist(4, 0.0));
        c.insert(vec![2], dist(4, 1.0));
        assert_eq!(c.len(), 2);
        c.bump_generation();
        assert_eq!(c.len(), 0, "stale entries are not live");
        assert_eq!(c.lookup(&[1]), None, "stale entry must miss");
        // Re-insert under the new generation serves the new value.
        c.insert(vec![1], dist(4, 7.0));
        assert_eq!(c.lookup(&[1]), Some(dist(4, 7.0)));
    }

    #[test]
    fn generation_bump_returns_the_outgoing_rows_to_the_budget() {
        let c = SharedScoringCache::new(1 << 20);
        for i in 0..6u32 {
            c.insert(vec![i], dist(8, f64::from(i)));
        }
        let held = c.lookup(&[0]).expect("resident");
        c.bump_generation();
        // Regression: the bump only moved a tag, so the old rows stayed
        // resident and charged until the hand evicted them one insert at
        // a time.
        let stats = c.stats();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.evictions, 6, "collected rows count as evictions");
        assert_eq!(held[..], dist(8, 0.0)[..], "a reader's row outlives it");
        c.insert(vec![0], dist(8, 9.0));
        assert_eq!(c.lookup(&[0]), Some(dist(8, 9.0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().bytes, Table::cost_of(&[0], &dist(8, 9.0)));
    }

    #[test]
    fn stale_entries_are_reclaimed_by_the_sweep() {
        let c = SharedScoringCache::new(Table::cost_of(&[0], &dist(8, 0.0)) * 4);
        for i in 0..4u32 {
            c.insert(vec![i], dist(8, f64::from(i)));
        }
        c.bump_generation();
        // A budget the outgoing generation had filled admits a full
        // budget of new entries.
        for i in 10..14u32 {
            c.insert(vec![i], dist(8, f64::from(i)));
        }
        assert_eq!(c.len(), 4);
        for i in 10..14u32 {
            assert!(c.lookup(&[i]).is_some(), "entry {i} admitted post-bump");
        }
    }

    /// One step of the differential below. Keys index [`context`].
    #[derive(Debug, Clone)]
    enum TableOp {
        Insert(u32, usize),
        Lookup(u32),
        BumpGeneration,
        /// Entries, and whether the snapshot is of another generation.
        Import(Vec<(u32, usize)>, bool),
        InjectDangling(u32),
    }

    /// Contexts of one to three tokens, so entries differ in cost.
    fn context(key: u32) -> Vec<TokenId> {
        vec![key; 1 + key as usize % 3]
    }

    fn row(key: u32, len: usize) -> Arc<[f64]> {
        (0..len).map(|i| -f64::from(key) - i as f64).collect()
    }

    fn table_op() -> impl Strategy<Value = TableOp> {
        let insert = || (0u32..10, 1usize..24).prop_map(|(k, n)| TableOp::Insert(k, n));
        let lookup = || (0u32..10).prop_map(TableOp::Lookup);
        prop_oneof![
            insert(),
            insert(),
            lookup(),
            lookup(),
            lookup(),
            Just(TableOp::BumpGeneration),
            (
                proptest::collection::vec((0u32..10, 1usize..24), 0..4),
                0u32..4
            )
                .prop_map(|(entries, other)| TableOp::Import(entries, other == 0)),
            (0u32..10).prop_map(TableOp::InjectDangling),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// The live cache and a copy of the table it used to be
        /// ([`oracle::ClockCache`]) under one random sequence of
        /// inserts, lookups, generation bumps, imports and injected
        /// dangling slots: after every operation they must give the
        /// same answer and hold the same entries in the same slot order
        /// (so the clock hand chose the same victims, in the same
        /// order), with equal bytes, evictions, recoveries, entries,
        /// insertions, generation and reuse.
        #[test]
        fn proptest_ring_matches_the_old_scoring_table(
            budget in 300usize..2_000,
            ops in proptest::collection::vec(table_op(), 1..80),
        ) {
            let live = SharedScoringCache::new(budget);
            let mut old = oracle::ClockCache::new(budget);
            // Keys whose slot was emptied and not yet contacted again.
            let mut dangling: Vec<Vec<TokenId>> = Vec::new();
            for op in ops {
                // A write over a dangling key comes after a lookup that
                // heals it: the order in which the engine contacts a
                // context (partition the batch, then insert its misses).
                let written: Vec<u32> = match &op {
                    TableOp::Insert(k, _) => vec![*k],
                    TableOp::Import(entries, _) => entries.iter().map(|&(k, _)| k).collect(),
                    _ => Vec::new(),
                };
                for k in written {
                    if dangling.contains(&context(k)) {
                        prop_assert_eq!(live.lookup(&context(k)), old.lookup(&context(k)));
                        dangling.retain(|c| *c != context(k));
                    }
                }
                match op {
                    TableOp::Insert(k, n) => {
                        live.insert(context(k), row(k, n));
                        old.insert(context(k), row(k, n));
                    }
                    TableOp::Lookup(k) => {
                        prop_assert_eq!(live.lookup(&context(k)), old.lookup(&context(k)));
                        dangling.retain(|c| *c != context(k));
                    }
                    TableOp::BumpGeneration => {
                        live.bump_generation();
                        old.bump_generation();
                        dangling.clear();
                    }
                    TableOp::Import(entries, other) => {
                        let generation = old.generation() + u64::from(other);
                        let entries: Vec<_> =
                            entries.iter().map(|&(k, n)| (context(k), row(k, n))).collect();
                        prop_assert_eq!(
                            live.import_entries(generation, entries.clone()),
                            old.import(generation, entries)
                        );
                    }
                    TableOp::InjectDangling(k) => {
                        let broke = live.table.lock().ring.inject_dangling(&context(k)[..]);
                        prop_assert_eq!(broke, old.inject_dangling(&context(k)));
                        if broke {
                            dangling.push(context(k));
                        }
                    }
                }
                let resident: Vec<Vec<TokenId>> =
                    live.export_entries().1.into_iter().map(|(k, _)| k).collect();
                let old_resident: Vec<Vec<TokenId>> =
                    old.live_entries().map(|(k, _)| k.to_vec()).collect();
                prop_assert_eq!(resident, old_resident);
                let stats = live.stats();
                // The copy's injection also took the broken entry off its
                // live count; the ring counts mapped keys, so it includes
                // a dangling mapping until contact heals it.
                prop_assert_eq!(
                    (stats.bytes, stats.evictions, stats.recoveries, stats.entries),
                    (old.bytes(), old.evictions(), old.recoveries(), old.len() + dangling.len())
                );
                prop_assert_eq!(
                    (stats.insertions, stats.generation, stats.mean_reuse_depth.to_bits()),
                    (old.insertions(), old.generation(), old.mean_reuse_depth().to_bits())
                );
            }
        }
    }
}
