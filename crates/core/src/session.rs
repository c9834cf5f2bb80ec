//! The [`Relm`] client and the state it keeps across queries:
//! cross-query plan memoization and a shared, bounded scoring cache.
//!
//! ReLM audits are batteries, not one-shots: a memorization sweep runs
//! the same URL pattern against hundreds of prefixes, a bias panel runs
//! one template per gender × configuration, a toxicity battery compiles
//! a query per shard match. A runtime with no state would recompile the
//! query (regex → NFA → DFA → token automaton — the measured wall-clock
//! majority on small searches) and throw away the scoring memo after
//! every call. A [`Relm`] client keeps both:
//!
//! * a **compiled-plan memo** keyed by `(pattern, prefix, tokenization
//!   strategy, preprocessors, tokenizer fingerprint)` — repeated or
//!   structurally shared queries skip compilation entirely;
//! * a **size-bounded shared scoring cache**
//!   ([`relm_lm::SharedScoringCache`]: byte-budgeted, clock-evicted,
//!   generation-tagged) consulted by the [`relm_lm::ScoringEngine`] of
//!   every query the client executes — the KV-cache analogue of §3.3's
//!   batched inference, extended *across* queries.
//!
//! Correctness: scoring is deterministic and pure, so serving a
//! distribution memoized by an earlier query cannot change any
//! traversal decision — warm results are byte-identical to cold ones
//! (enforced by `tests/session.rs`). Swapping the model or tokenizer
//! bumps the cache generation (and a tokenizer swap empties the plan
//! memo), so stale entries can never be served.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use relm_automata::Parallelism;
use relm_bpe::BpeTokenizer;
use relm_lm::{Clock, LanguageModel, ScoringEngine, SharedCacheStats, SharedScoringCache};
use relm_store::{ArtifactKey, CacheArtifact, PlanArtifact, PlanStore, StoreError};

use crate::compiler::CompiledAutomaton;
use crate::executor::{
    assemble_compiled, compile_parts, execute_with_engine, CompiledSearch, PlanParts, SearchResults,
};
use crate::query::{SearchQuery, TokenizationStrategy};
use crate::RelmError;

/// Default byte budget for a client's plan memo (64 MiB).
const DEFAULT_PLAN_MEMO_BYTES: usize = 64 << 20;

/// Estimated fixed overhead per memoized plan (hash-map slot, `Vec`
/// headers, clock metadata), charged on top of the key strings and the
/// automata payload.
const PLAN_ENTRY_OVERHEAD_BYTES: usize = 256;

/// Tuning knobs for a [`Relm`] client, handed to
/// [`crate::RelmBuilder::config`]. Build with the `with_*` methods —
/// the struct is `#[non_exhaustive]`, so new knobs can be added without
/// a breaking release:
///
/// ```
/// use relm_core::SessionConfig;
///
/// let config = SessionConfig::new()
///     .with_plan_memo_capacity(64)
///     .with_plan_memo_bytes(16 << 20);
/// assert_ne!(config, SessionConfig::new());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct SessionConfig {
    /// Byte budget of the shared scoring cache.
    pub(crate) scoring_cache_bytes: usize,
    /// Maximum number of memoized compiled plans (clock-evicted).
    pub(crate) plan_memo_capacity: usize,
    /// Byte budget of the plan memo: every memoized plan is charged its
    /// estimated automata footprint, so one URL-scale plan cannot
    /// dominate memory unnoticed. Plans larger than the whole budget
    /// are compiled but never memoized.
    pub(crate) plan_memo_bytes: usize,
    /// Worker budget for the executors' frontier work: the Dijkstra
    /// prefetch, walk tables and pooled scoring.
    /// Plan compilation runs on the calling thread whatever the
    /// setting. Defaults to one worker per available core;
    /// [`Parallelism::Serial`] is the single-threaded reference path.
    /// Results are **byte-identical** for every setting — sharded work
    /// merges deterministically — so this knob trades wall-clock only,
    /// never answers, and is deliberately not part of the plan-memo key.
    pub parallelism: Parallelism,
    /// Directory of an on-disk warm-artifact store
    /// ([`relm_store::PlanStore`]). When set, the client consults the
    /// store on every plan-memo miss before compiling (a disk hit skips
    /// compilation entirely — a plan loaded from disk executes
    /// bit-for-bit identically to a fresh compile) and writes every
    /// freshly compiled plan back, so warmth survives the process:
    /// compile once, serve everywhere. `None` (the default) keeps all
    /// warmth in-memory. Corrupt or mismatched artifacts are treated as
    /// misses and recompiled — the store can slow a cold start, never
    /// wrong an answer.
    pub(crate) plan_store: Option<PathBuf>,
}

impl SessionConfig {
    /// The default budgets (alias of `Default::default()`).
    pub fn new() -> Self {
        SessionConfig {
            scoring_cache_bytes: relm_lm::DEFAULT_SHARED_CACHE_BYTES,
            plan_memo_capacity: 256,
            plan_memo_bytes: DEFAULT_PLAN_MEMO_BYTES,
            parallelism: Parallelism::auto(),
            plan_store: None,
        }
    }

    /// Set the shared scoring cache's byte budget.
    #[must_use]
    pub fn with_scoring_cache_bytes(mut self, bytes: usize) -> Self {
        self.scoring_cache_bytes = bytes;
        self
    }

    /// Set the plan memo's entry-count cap.
    #[must_use]
    pub fn with_plan_memo_capacity(mut self, capacity: usize) -> Self {
        self.plan_memo_capacity = capacity;
        self
    }

    /// Set the plan memo's byte budget.
    #[must_use]
    pub fn with_plan_memo_bytes(mut self, bytes: usize) -> Self {
        self.plan_memo_bytes = bytes;
        self
    }

    /// Set the worker budget for frontier work and pooled scoring.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Persist compiled plans to (and restore them from) an on-disk
    /// warm-artifact store rooted at `path` (created if absent).
    #[must_use]
    pub fn with_plan_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.plan_store = Some(path.into());
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::new()
    }
}

/// Aggregated reuse counters for a client ([`Relm::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct SessionStats {
    /// Plans served from the memo without compilation.
    pub plan_hits: u64,
    /// Plans compiled fresh.
    pub plan_misses: u64,
    /// Compiled plans currently memoized.
    pub plan_entries: usize,
    /// Plans evicted from the memo under count or byte pressure, or
    /// dropped by [`Relm::swap_tokenizer`].
    pub plan_evictions: u64,
    /// Estimated resident bytes of the memoized plans (a gauge).
    pub plan_bytes: usize,
    /// Plans restored from the on-disk warm-artifact store instead of
    /// compiled — at boot preload ([`Relm::preload_plans`]) or
    /// on a plan-memo miss. Zero when no store is configured.
    pub store_hits: u64,
    /// Plan-memo misses that consulted the configured store and found
    /// no usable artifact (missing, corrupt, or mismatched), falling
    /// back to compilation. Zero when no store is configured.
    pub store_misses: u64,
    /// Bytes written to the configured store (plan artifacts on
    /// compile write-back, cache snapshots on
    /// [`Relm::save_scoring_cache`]).
    pub store_bytes_written: u64,
    /// Shared scoring-cache counters (hits/misses span queries).
    pub scoring: SharedCacheStats,
}

impl SessionStats {
    /// Fraction of plans served from the memo.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            return 0.0;
        }
        self.plan_hits as f64 / total as f64
    }
}

/// The compilation-relevant identity of a query. Execution flags
/// (policy, strategy, seeds, caps) are deliberately absent: they are
/// attached per-run and do not affect the automata. The client's
/// [`Parallelism`] is absent too: compilation never reads it, so every
/// client builds the same automata for a query. The pattern, prefix,
/// and preprocessor configuration are stored **exactly** (the
/// preprocessor list as its full structural encoding, not a hash), so a
/// memo hit can never serve automata compiled from a different query;
/// the tokenizer enters as its fingerprint, which is safe because
/// [`Relm::swap_tokenizer`] clears the memo — keys from two
/// different tokenizers never coexist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    pattern: String,
    prefix: Option<String>,
    tokenization: TokenizationStrategy,
    preprocessors: Vec<u64>,
    tokenizer: u64,
}

impl PlanKey {
    /// The on-disk form of this key: field-for-field identical, with
    /// the tokenization strategy lowered to its stable wire tag.
    fn to_artifact(&self) -> ArtifactKey {
        ArtifactKey {
            pattern: self.pattern.clone(),
            prefix: self.prefix.clone(),
            tokenization: match self.tokenization {
                TokenizationStrategy::Canonical => 0,
                TokenizationStrategy::All => 1,
            },
            preprocessors: self.preprocessors.clone(),
            tokenizer: self.tokenizer,
        }
    }

    /// The in-memory form of a stored key; `None` if the wire tag names
    /// a tokenization strategy this build does not know.
    fn from_artifact(key: &ArtifactKey) -> Option<Self> {
        let tokenization = match key.tokenization {
            0 => TokenizationStrategy::Canonical,
            1 => TokenizationStrategy::All,
            _ => return None,
        };
        Some(PlanKey {
            pattern: key.pattern.clone(),
            prefix: key.prefix.clone(),
            tokenization,
            preprocessors: key.preprocessors.clone(),
            tokenizer: key.tokenizer,
        })
    }

    /// Estimated heap bytes of one copy of this key (pattern and prefix
    /// strings dominate; bench-style queries build patterns as
    /// multi-kilobyte lexicon disjunctions).
    fn estimated_bytes(&self) -> usize {
        self.pattern.len()
            + self.prefix.as_ref().map_or(0, String::len)
            + self.preprocessors.len() * std::mem::size_of::<u64>()
    }

    fn of(query: &SearchQuery, tokenizer_fingerprint: u64) -> Self {
        let mut pre = Vec::new();
        for p in &query.preprocessors {
            p.encode_into(&mut pre);
        }
        PlanKey {
            pattern: query.query_string.pattern.clone(),
            prefix: query.query_string.prefix.clone(),
            tokenization: query.tokenization,
            preprocessors: pre,
            tokenizer: tokenizer_fingerprint,
        }
    }
}

/// What [`PlanMemo::insert`] did with the offered plan — the signal
/// [`Relm::plan_traced`] uses to elect exactly one store
/// write-back per fresh compile when shards race on the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanInsert {
    /// This caller's plan is now the memoized one: it won the race
    /// (if there was one) and owns the store write-back.
    Inserted,
    /// An equivalent plan was memoized first; this compile is a
    /// duplicate and must not write back (the winner already did).
    Duplicate,
    /// The plan cannot be memoized (oversized, or no room could be
    /// made). Nothing holds it, so the compiler persists it anyway.
    NotMemoizable,
}

/// Where [`Relm::plan_traced`] found the plan it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Served from the in-memory plan memo.
    Memo,
    /// Restored from the on-disk plan store on a memo miss.
    Store,
    /// Compiled fresh (memo and store both missed).
    Compiled,
}

/// The bounded plan memo: count-capped **and byte-budgeted**, over the
/// same [`Clock`] ring as the scoring cache's
/// [`relm_lm::SharedScoringCache`] — each hit sets a plan's referenced
/// bit; under pressure the ring's hand evicts the first unreferenced
/// plan, and a mapping left dangling by a panicked thread heals on
/// contact (one recompilation, counted by the ring's `recoveries`).
/// Every plan is charged its estimated automata footprint
/// ([`PlanParts::estimated_bytes`]) plus both copies of its key, so one
/// URL-scale automaton cannot quietly dominate client memory the way a
/// count-only cap allowed.
#[derive(Debug)]
struct PlanMemo {
    ring: Clock<PlanKey, Arc<PlanParts>>,
    capacity: usize,
    max_bytes: usize,
}

impl PlanMemo {
    fn new(capacity: usize, max_bytes: usize) -> Self {
        PlanMemo {
            ring: Clock::default(),
            capacity: capacity.max(1),
            max_bytes,
        }
    }

    /// Estimated resident bytes of one entry: fixed overhead, both
    /// copies of the key (slot + index map), and the plan payload.
    fn cost_of(key: &PlanKey, parts: &PlanParts) -> usize {
        PLAN_ENTRY_OVERHEAD_BYTES + 2 * key.estimated_bytes() + parts.estimated_bytes()
    }

    fn get(&mut self, key: &PlanKey) -> Option<Arc<PlanParts>> {
        let parts = Arc::clone(self.ring.get(key)?);
        // Re-cost on every hit: execute-time artifacts (the memoized
        // walk table) materialize *after* insert, so the byte gauge
        // would otherwise under-report and a table-heavy plan could
        // dominate memory uncharged. The budget is re-enforced here;
        // the fetched entry's referenced bit gives it a second chance,
        // and the returned `Arc` stays valid even if it is evicted.
        self.ring.set_cost(key, Self::cost_of(key, &parts));
        while self.ring.bytes() > self.max_bytes && self.ring.evict_one().is_some() {}
        Some(parts)
    }

    fn insert(&mut self, key: PlanKey, parts: Arc<PlanParts>) -> PlanInsert {
        if self.ring.contains_key(&key) {
            return PlanInsert::Duplicate; // first writer wins
        }
        let cost = Self::cost_of(&key, &parts);
        if cost > self.max_bytes {
            // An oversized plan is compiled but never memoized.
            return PlanInsert::NotMemoizable;
        }
        while self.ring.len() >= self.capacity || self.ring.bytes() + cost > self.max_bytes {
            if self.ring.evict_one().is_none() {
                return PlanInsert::NotMemoizable;
            }
        }
        self.ring.insert(key, parts, cost);
        PlanInsert::Inserted
    }
}

#[cfg(test)]
mod oracle;

/// Write a memoized plan to `store` in place: the store's encoder
/// reads the automata and tables where the memo keeps them, so nothing
/// is cloned to be saved. The walk table travels only if this process
/// materialized it (it is an execute-time artifact); a plan saved
/// before its first sampling execute simply restores without it and
/// rebuilds on demand.
fn save_parts(store: &PlanStore, key: &PlanKey, parts: &PlanParts) -> Result<u64, StoreError> {
    store.save_plan_parts(
        &key.to_artifact(),
        parts.prefix.as_ref(),
        &parts.body.automaton,
        parts.body.needs_canonical_check,
        &parts.deferred_filters,
        parts.walk_table_snapshot().as_deref(),
    )
}

/// Reassemble store-loaded artifacts into an executable plan — the
/// inverse of [`save_parts`]. Restored automata are structurally
/// identical to freshly compiled ones and the walk table is bit-exact,
/// so execution downstream of a restore is byte-identical to a cold
/// compile (enforced by `tests/store.rs`).
fn restore_parts(artifact: PlanArtifact) -> PlanParts {
    PlanParts::from_restored(
        artifact.prefix,
        CompiledAutomaton {
            automaton: artifact.body,
            needs_canonical_check: artifact.needs_canonical_check,
        },
        artifact.deferred_filters,
        artifact.walk_table.map(Arc::new),
    )
}

/// The ReLM client: one handle owning the model, the tokenizer, the
/// compiled-plan memo, the shared scoring cache and the optional plan
/// store — the single entry point of the public API. See the module
/// docs for what it keeps warm across queries.
///
/// `M` is any [`LanguageModel`], including `&M` for a model owned
/// elsewhere. A client is built only by [`Relm::new`] or
/// [`crate::RelmBuilder::build`], which validate that the model and
/// tokenizer fit together; every later call can then assume it.
///
/// # Example
///
/// ```
/// use relm_bpe::BpeTokenizer;
/// use relm_core::{QueryString, Relm, SearchQuery};
/// use relm_lm::{NGramConfig, NGramLm};
///
/// let corpus = "the cat sat on the mat. the dog sat on the log.";
/// let tokenizer = BpeTokenizer::train(corpus, 60);
/// let model = NGramLm::train(
///     &tokenizer,
///     &["the cat sat on the mat", "the dog sat on the log"],
///     NGramConfig::xl(),
/// );
/// let client = Relm::new(model, tokenizer)?;
/// let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
/// let cold: Vec<_> = client.search(&query)?.take(2).collect();
/// let warm: Vec<_> = client.search(&query)?.take(2).collect(); // no recompile
/// assert_eq!(cold, warm);
/// assert_eq!(client.stats().plan_hits, 1);
/// # Ok::<(), relm_core::RelmError>(())
/// ```
#[derive(Debug)]
pub struct Relm<M> {
    model: M,
    tokenizer: BpeTokenizer,
    tokenizer_fingerprint: u64,
    config: SessionConfig,
    scoring_cache: Arc<SharedScoringCache>,
    plans: Mutex<PlanMemo>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    /// The on-disk warm-artifact store, when
    /// [`SessionConfig::with_plan_store`] is set and the directory could be
    /// opened (an unopenable store degrades to the storeless path —
    /// the client must keep answering queries).
    store: Option<PlanStore>,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_bytes_written: AtomicU64,
}

impl<M: LanguageModel> Relm<M> {
    /// Wire up a client whose model/tokenizer pairing
    /// [`crate::RelmBuilder::build`] has already checked.
    pub(crate) fn assemble(model: M, tokenizer: BpeTokenizer, config: SessionConfig) -> Self {
        let tokenizer_fingerprint = tokenizer.fingerprint();
        let store = config
            .plan_store
            .as_deref()
            .and_then(|path| PlanStore::open(path).ok());
        Relm {
            model,
            tokenizer,
            tokenizer_fingerprint,
            scoring_cache: Arc::new(SharedScoringCache::new(config.scoring_cache_bytes)),
            plans: Mutex::new(PlanMemo::new(
                config.plan_memo_capacity,
                config.plan_memo_bytes,
            )),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            store,
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_bytes_written: AtomicU64::new(0),
            config,
        }
    }

    /// The budgets this client was built with.
    pub fn config(&self) -> SessionConfig {
        self.config.clone()
    }

    /// The client's model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The client's tokenizer.
    pub fn tokenizer(&self) -> &BpeTokenizer {
        &self.tokenizer
    }

    /// A scoring engine over the client's model wired to its shared
    /// cache at the configured parallelism — the engine every
    /// execution scores through, and the one to use for scoring work
    /// outside `search` (ancestral sampling, scoring sweeps) that
    /// should pool its memo with the client's queries. The engine
    /// implements [`LanguageModel`].
    pub fn engine(&self) -> ScoringEngine<&M> {
        ScoringEngine::with_shared_cache(&self.model, Arc::clone(&self.scoring_cache))
            .with_parallelism(self.config.parallelism)
    }

    /// Compile `query` into an executable plan, serving the automata
    /// from the plan memo when an equivalent query was compiled before.
    ///
    /// # Errors
    ///
    /// Invalid patterns, empty languages, inconsistent parameters.
    /// Failed compilations are not memoized.
    pub fn plan(&self, query: &SearchQuery) -> Result<CompiledSearch, RelmError> {
        self.plan_traced(query).map(|(plan, _)| plan)
    }

    /// [`Relm::plan`], additionally reporting *where* the plan came
    /// from ([`PlanSource`]) — the per-shard attribution a sharded
    /// server needs that the client-global hit counters cannot give.
    ///
    /// # Errors
    ///
    /// The same errors as [`Relm::plan`].
    pub fn plan_traced(
        &self,
        query: &SearchQuery,
    ) -> Result<(CompiledSearch, PlanSource), RelmError> {
        let key = PlanKey::of(query, self.tokenizer_fingerprint);
        let memoized = self.plans.lock().get(&key);
        let (parts, source) = match memoized {
            Some(parts) => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                (parts, PlanSource::Memo)
            }
            None => {
                self.plan_misses.fetch_add(1, Ordering::Relaxed);
                match self.load_from_store(&key) {
                    Some(restored) => {
                        self.plans.lock().insert(key, Arc::clone(&restored));
                        (restored, PlanSource::Store)
                    }
                    None => {
                        let parts = Arc::new(compile_parts(query, &self.tokenizer)?);
                        // Memoize *before* persisting: when N shards
                        // race on the same fresh key, only the insert
                        // winner (or an unmemoizable compile nothing
                        // holds) writes back, so the store sees exactly
                        // one write per fresh compile.
                        let claim = self.plans.lock().insert(key.clone(), Arc::clone(&parts));
                        if claim != PlanInsert::Duplicate {
                            self.write_back(&key, &parts);
                        }
                        (parts, PlanSource::Compiled)
                    }
                }
            }
        };
        let compiled = assemble_compiled(
            query,
            parts,
            self.model.max_sequence_len(),
            self.config.parallelism,
        )?;
        Ok((
            CompiledSearch::from_query(query, compiled, self.tokenizer_fingerprint),
            source,
        ))
    }

    /// Consult the configured store for `key` on a plan-memo miss.
    /// Every failure mode — no store, missing file, corruption of any
    /// kind, a hash-collided file answering a different key — is a
    /// miss: the caller falls back to compilation, so the store can
    /// slow a cold start but never wrong an answer or kill a query.
    fn load_from_store(&self, key: &PlanKey) -> Option<Arc<PlanParts>> {
        let store = self.store.as_ref()?;
        match store.load_plan(&key.to_artifact()) {
            Ok(Some(artifact)) => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(restore_parts(artifact)))
            }
            Ok(None) | Err(_) => {
                self.store_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist a freshly compiled plan to the configured store. Write
    /// failures are swallowed (the gauge simply does not grow): plan
    /// persistence is a warm-start optimization, never a correctness
    /// dependency.
    fn write_back(&self, key: &PlanKey, parts: &PlanParts) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        if let Ok(bytes) = save_parts(store, key, parts) {
            self.store_bytes_written.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Restore every compatible plan artifact from the configured
    /// store into the plan memo — the boot-time warm start of a
    /// serving replica. Artifacts keyed to a different tokenizer are
    /// skipped (their automata speak different token ids); corrupt
    /// files are skipped too (an on-demand miss will recompile and
    /// overwrite them). Returns the number of plans restored; each one
    /// counts as a store hit.
    ///
    /// # Errors
    ///
    /// [`RelmError::Store`] if no store is configured (or it failed to
    /// open) or the store directory cannot be listed.
    pub fn preload_plans(&self) -> Result<usize, RelmError> {
        let store = self.require_store()?;
        let mut restored = 0;
        for path in store.plan_files()? {
            let Ok(artifact) = PlanStore::read_plan_file(&path) else {
                continue;
            };
            if artifact.key.tokenizer != self.tokenizer_fingerprint {
                continue;
            }
            let Some(key) = PlanKey::from_artifact(&artifact.key) else {
                continue;
            };
            let parts = Arc::new(restore_parts(artifact));
            self.plans.lock().insert(key, parts);
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            restored += 1;
        }
        Ok(restored)
    }

    /// Re-persist every memoized plan to the configured store,
    /// **including** the execute-time walk tables materialized since
    /// the compile-time write-back — so a replica restoring these plans
    /// starts sampling-warm too. Returns
    /// the total bytes written.
    ///
    /// Each plan is encoded straight from the memo's shared
    /// `Arc<PlanParts>` — the memo lock is held only to collect those
    /// handles, and no automaton or table is cloned — into one exactly
    /// sized buffer per file, by the same encoder
    /// [`relm_store::PlanArtifact::to_bytes`] uses.
    ///
    /// # Errors
    ///
    /// [`RelmError::Store`] if no store is configured or a write
    /// fails.
    pub fn persist_plans(&self) -> Result<u64, RelmError> {
        let store = self.require_store()?;
        let snapshot: Vec<(PlanKey, Arc<PlanParts>)> = self
            .plans
            .lock()
            .ring
            .iter()
            .map(|(key, parts)| (key.clone(), Arc::clone(parts)))
            .collect();
        let mut total = 0;
        for (key, parts) in snapshot {
            total += save_parts(store, &key, &parts)?;
        }
        self.store_bytes_written.fetch_add(total, Ordering::Relaxed);
        Ok(total)
    }

    /// Snapshot the shared scoring cache's live entries into the
    /// configured store, tagged with the cache's current generation and
    /// the client tokenizer's fingerprint. Returns the bytes written.
    /// The cache's rows are shared with the snapshot, not copied (see
    /// [`relm_lm::SharedScoringCache::export_entries`]).
    ///
    /// # Errors
    ///
    /// [`RelmError::Store`] if no store is configured or the write
    /// fails.
    pub fn save_scoring_cache(&self) -> Result<u64, RelmError> {
        let store = self.require_store()?;
        let (generation, entries) = self.scoring_cache.export_entries();
        let artifact = CacheArtifact {
            generation,
            tokenizer: self.tokenizer_fingerprint,
            entries,
        };
        let bytes = store.save_cache(&artifact)?;
        self.store_bytes_written.fetch_add(bytes, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Restore a scoring-cache snapshot from the configured store,
    /// returning how many distributions were imported. The import is a
    /// silent no-op (returning 0) when no snapshot exists, when the
    /// snapshot was taken over a different tokenizer, or when its
    /// generation tag differs from the live cache's — a snapshot taken
    /// before a [`Self::swap_model`] or [`Self::swap_tokenizer`] can
    /// never serve a stale distribution afterwards. Each imported row
    /// is the allocation the decoder made for it, seated as is.
    ///
    /// # Errors
    ///
    /// [`RelmError::Store`] if no store is configured or the snapshot
    /// file exists but cannot be read (corrupt snapshots fail closed
    /// rather than half-import).
    pub fn load_scoring_cache(&self) -> Result<usize, RelmError> {
        let store = self.require_store()?;
        let Some(artifact) = store.load_cache()? else {
            return Ok(0);
        };
        if artifact.tokenizer != self.tokenizer_fingerprint {
            return Ok(0);
        }
        Ok(self
            .scoring_cache
            .import_entries(artifact.generation, artifact.entries))
    }

    /// The configured store, or the typed error explicit store
    /// operations surface.
    fn require_store(&self) -> Result<&PlanStore, RelmError> {
        self.store.as_ref().ok_or_else(|| {
            RelmError::Store("no plan store configured (or it failed to open)".into())
        })
    }

    /// Execute a compiled plan against the client's model, scoring
    /// through the shared cache.
    ///
    /// # Errors
    ///
    /// [`RelmError::InvalidQuery`] if `plan` was compiled for a
    /// different tokenizer (e.g. held across
    /// [`Self::swap_tokenizer`] — its automata are over the old token
    /// ids) or its token budget exceeds the current model's maximum
    /// sequence length (a plan held across [`Self::swap_model`] to a
    /// smaller-context model).
    pub fn execute(&self, plan: &CompiledSearch) -> Result<SearchResults<'_, M>, RelmError> {
        self.execute_on(Arc::new(self.engine()), plan)
    }

    /// Execute a compiled plan through `engine` — the one execution
    /// path. [`Self::execute`] hands it a fresh engine of its own;
    /// [`crate::QueryDriver`] (and therefore [`Relm::run_many`] and the
    /// serving layer) hands every execution admitted to it a clone of
    /// **one** engine, so their scoring batches coalesce.
    ///
    /// # Errors
    ///
    /// The same compatibility errors as [`Self::execute`].
    pub(crate) fn execute_on<'a>(
        &'a self,
        engine: Arc<ScoringEngine<&'a M>>,
        plan: &CompiledSearch,
    ) -> Result<SearchResults<'a, M>, RelmError> {
        plan.check_compatible(self.tokenizer_fingerprint, self.model.max_sequence_len())?;
        Ok(execute_with_engine(
            engine,
            &self.tokenizer,
            plan,
            self.plan_hits.load(Ordering::Relaxed),
        ))
    }

    /// Plan and execute one query — the client's primary single-query
    /// path.
    ///
    /// # Errors
    ///
    /// The same errors as [`Self::plan`] and [`Self::execute`].
    pub fn search(&self, query: &SearchQuery) -> Result<SearchResults<'_, M>, RelmError> {
        let plan = self.plan(query)?;
        self.execute(&plan)
    }

    /// Swap the model behind the client, bumping the scoring cache's
    /// generation so no distribution computed by the old model can ever
    /// be served. Compiled plans survive (they depend only on the
    /// tokenizer), so the new model starts compile-warm but score-cold.
    ///
    /// Requires `&mut self`: no search borrowed from this client can be
    /// live across a swap.
    ///
    /// # Errors
    ///
    /// [`RelmError::InvalidQuery`] if the new model's vocabulary is
    /// smaller than the client's tokenizer's — the automata would index
    /// past the model's distributions. The client is left unchanged
    /// (the offered model is dropped).
    pub fn swap_model(&mut self, model: M) -> Result<M, RelmError> {
        if model.vocab_size() < self.tokenizer.vocab_size() {
            return Err(RelmError::InvalidQuery(
                "model vocabulary is smaller than the client tokenizer's".into(),
            ));
        }
        let old = std::mem::replace(&mut self.model, model);
        self.scoring_cache.bump_generation();
        Ok(old)
    }

    /// Swap the tokenizer, dropping every memoized plan (they speak the
    /// old token ids; [`SessionStats::plan_evictions`] counts them) and
    /// bumping the scoring cache's generation (token ids change
    /// meaning).
    ///
    /// # Errors
    ///
    /// [`RelmError::InvalidQuery`] if the new tokenizer's vocabulary is
    /// larger than the client's model's — compiled automata would emit
    /// token ids the model has no distribution entry for. The client is
    /// left unchanged (the offered tokenizer is dropped).
    pub fn swap_tokenizer(&mut self, tokenizer: BpeTokenizer) -> Result<BpeTokenizer, RelmError> {
        if tokenizer.vocab_size() > self.model.vocab_size() {
            return Err(RelmError::InvalidQuery(
                "tokenizer vocabulary exceeds the client model's".into(),
            ));
        }
        self.tokenizer_fingerprint = tokenizer.fingerprint();
        // Every plan speaks the old token ids: drop them all, counted as
        // evictions, keeping the memo's lifetime counters.
        self.plans.lock().ring.clear();
        self.scoring_cache.bump_generation();
        Ok(std::mem::replace(&mut self.tokenizer, tokenizer))
    }

    /// Aggregated reuse counters (plan memo, plan store and shared
    /// scoring cache).
    pub fn stats(&self) -> SessionStats {
        let (plan_entries, plan_evictions, plan_bytes) = {
            let plans = self.plans.lock();
            let ring = &plans.ring;
            (ring.len(), ring.evictions(), ring.bytes())
        };
        SessionStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_entries,
            plan_evictions,
            plan_bytes,
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            store_bytes_written: self.store_bytes_written.load(Ordering::Relaxed),
            scoring: self.scoring_cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryString;
    use crate::Preprocessor;
    use proptest::prelude::*;
    use relm_lm::{NGramConfig, NGramLm};

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let docs = [
            "the cat sat on the mat",
            "the cat sat on the mat",
            "the dog sat on the log",
        ];
        let corpus = docs.join(". ");
        let tok = BpeTokenizer::train(&corpus, 80);
        let lm = NGramLm::train(&tok, &docs, NGramConfig::xl());
        (tok, lm)
    }

    #[test]
    fn repeated_queries_hit_the_plan_memo() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let first: Vec<_> = session.search(&query).unwrap().take(2).collect();
        let second: Vec<_> = session.search(&query).unwrap().take(2).collect();
        assert_eq!(first, second);
        let stats = session.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.plan_entries, 1);
        assert!((stats.plan_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn execution_flags_do_not_fragment_the_memo() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        let base = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let _ = session.search(&base).unwrap().take(1).count();
        // Different policy / caps / strategy, same automata.
        let variant = base
            .clone()
            .with_policy(relm_lm::DecodingPolicy::top_k(5))
            .with_max_expansions(999)
            .with_strategy(crate::SearchStrategy::Beam { width: 4 });
        let _ = session.search(&variant).unwrap().take(1).count();
        assert_eq!(session.stats().plan_hits, 1, "flags are not in the key");
    }

    #[test]
    fn different_patterns_or_preprocessors_miss() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        let a = SearchQuery::new(QueryString::new("the cat"));
        let b = SearchQuery::new(QueryString::new("the dog"));
        let c = SearchQuery::new(QueryString::new("the cat"))
            .with_preprocessor(Preprocessor::levenshtein(1));
        for q in [&a, &b, &c] {
            let _ = session.search(q).unwrap().take(1).count();
        }
        let stats = session.stats();
        assert_eq!(stats.plan_misses, 3);
        assert_eq!(stats.plan_hits, 0);
    }

    #[test]
    fn scoring_cache_warms_across_queries() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let _ = session.search(&query).unwrap().take(2).count();
        let cold_scoring = session.stats().scoring;
        assert!(cold_scoring.insertions > 0);
        let mut warm = session.search(&query).unwrap();
        let _ = (&mut warm).take(2).count();
        let warm_stats = warm.stats();
        assert_eq!(
            warm_stats.cache_misses, 0,
            "second identical query must be fully cache-served: {warm_stats:?}"
        );
        assert!(warm_stats.cache_hits > 0);
        assert!(warm_stats.plan_cache_hits > 0);
    }

    #[test]
    fn plan_memo_capacity_is_enforced() {
        let (tok, lm) = fixture();
        let session = Relm::builder(lm, tok)
            .config(SessionConfig {
                plan_memo_capacity: 2,
                ..SessionConfig::default()
            })
            .build()
            .unwrap();
        for pattern in ["the cat", "the dog", "the ((cat)|(dog))"] {
            let _ = session
                .search(&SearchQuery::new(QueryString::new(pattern)))
                .unwrap()
                .take(1)
                .count();
        }
        assert_eq!(session.stats().plan_entries, 2);
        // Least-recently-used plan ("the cat") was evicted; the newest
        // two still hit.
        let _ = session
            .search(&SearchQuery::new(QueryString::new("the ((cat)|(dog))")))
            .unwrap()
            .take(1)
            .count();
        assert_eq!(session.stats().plan_hits, 1);
    }

    #[test]
    fn plan_memo_byte_budget_is_enforced() {
        let (tok, lm) = fixture();
        let probe = Relm::new(lm, tok).unwrap();
        let q = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        probe.plan(&q).unwrap();
        let one_plan = probe.stats().plan_bytes;
        assert!(one_plan > PLAN_ENTRY_OVERHEAD_BYTES);

        // A budget of ~1.5 plans: compiling three patterns must evict.
        let (tok, lm) = fixture();
        let budget = one_plan + one_plan / 2;
        let session = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_memo_bytes(budget))
            .build()
            .unwrap();
        for pattern in [
            "the ((cat)|(dog)) sat",
            "the ((dog)|(cat)) ate",
            "the cat sat on the mat",
        ] {
            session
                .plan(&SearchQuery::new(QueryString::new(pattern)))
                .unwrap();
        }
        let stats = session.stats();
        assert!(
            stats.plan_bytes <= budget,
            "{} > {budget}",
            stats.plan_bytes
        );
        assert!(stats.plan_evictions >= 1, "{stats:?}");
        assert!(stats.plan_entries < 3, "{stats:?}");
    }

    #[test]
    fn memo_hits_recharge_execute_time_walk_tables() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        // A prefixed sampling query: executing it builds (and memoizes)
        // the prefix machine's walk table inside the plan.
        let query = SearchQuery::new(
            QueryString::new("the ((cat)|(dog)) sat").with_prefix("the ((cat)|(dog))"),
        )
        .with_strategy(crate::SearchStrategy::RandomSampling { seed: 3 });
        session.plan(&query).unwrap();
        let at_insert = session.stats().plan_bytes;
        let _ = session.search(&query).unwrap().take(2).count(); // builds the table
        let _ = session.plan(&query).unwrap(); // hit: re-costs the entry
        let recharged = session.stats().plan_bytes;
        assert!(
            recharged > at_insert,
            "walk table must be charged on the next hit: {at_insert} -> {recharged}"
        );
    }

    #[test]
    fn oversized_plan_is_compiled_but_not_memoized() {
        let (tok, lm) = fixture();
        let session = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_memo_bytes(64))
            .build()
            .unwrap();
        let q = SearchQuery::new(QueryString::new("the cat"));
        session.plan(&q).unwrap();
        let stats = session.stats();
        assert_eq!(stats.plan_entries, 0);
        assert_eq!(stats.plan_bytes, 0);
        session.plan(&q).unwrap();
        assert_eq!(session.stats().plan_misses, 2, "never served from memo");
    }

    #[test]
    fn clock_eviction_gives_hit_plans_a_second_chance() {
        let (tok, lm) = fixture();
        let session = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_memo_capacity(2))
            .build()
            .unwrap();
        let hot = SearchQuery::new(QueryString::new("the cat"));
        session.plan(&hot).unwrap();
        session
            .plan(&SearchQuery::new(QueryString::new("the dog")))
            .unwrap();
        // Touch the hot plan so its referenced bit protects it.
        session.plan(&hot).unwrap();
        session
            .plan(&SearchQuery::new(QueryString::new("the cow")))
            .unwrap();
        // "the dog" (unreferenced) was the victim; the hot plan still hits.
        session.plan(&hot).unwrap();
        let stats = session.stats();
        assert_eq!(stats.plan_hits, 2);
        assert_eq!(stats.plan_entries, 2);
        assert_eq!(stats.plan_evictions, 1);
    }

    #[test]
    fn dangling_plan_memo_entry_is_healed_not_a_panic() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        session.plan(&query).unwrap();
        // Simulate the partial state a mid-update panic leaves behind
        // once the memo's poisoned lock is recovered: the index maps the
        // key to a slot that no longer holds an entry.
        {
            let key = PlanKey::of(&query, session.tokenizer_fingerprint);
            // The slot is deliberately NOT pushed onto the free list: a
            // mid-panic thread would not have gotten that far either. The
            // heal path must reclaim the slot itself.
            assert!(session.plans.lock().ring.inject_dangling(&key));
        }
        // Regression: this plan() used to `expect("mapped slot is
        // live")` — a panic that, behind the session's plan-memo mutex,
        // killed every later query of a long-lived server. Now it heals:
        // one recompilation, counted by the memo's ring.
        let replanned = session.plan(&query).unwrap();
        let solo: Vec<_> = session.execute(&replanned).unwrap().take(2).collect();
        assert_eq!(solo.len(), 2);
        let stats = session.stats();
        assert_eq!(session.plans.lock().ring.recoveries(), 1);
        assert_eq!(stats.plan_misses, 2, "healed lookup recompiles");
        // The healed key memoizes again and serves hits — reusing the
        // reclaimed slot rather than growing the ring.
        session.plan(&query).unwrap();
        assert_eq!(session.stats().plan_hits, 1);
        assert_eq!(
            session.plans.lock().ring.slot_count(),
            1,
            "slot was reclaimed"
        );
    }

    #[test]
    fn compile_errors_are_not_memoized() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        let bad = SearchQuery::new(QueryString::new("a("));
        assert!(session.plan(&bad).is_err());
        assert!(session.plan(&bad).is_err());
        let stats = session.stats();
        assert_eq!(stats.plan_entries, 0);
        assert_eq!(stats.plan_misses, 2);
    }

    #[test]
    fn swap_model_bumps_generation_and_keeps_plans() {
        let (tok, lm) = fixture();
        let other = NGramLm::train(
            &tok,
            &["the dog sat on the log", "the dog sat on the log"],
            NGramConfig::xl(),
        );
        let mut session = Relm::new(lm, tok.clone()).unwrap();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let before: Vec<_> = session.search(&query).unwrap().take(2).collect();
        let gen_before = session.stats().scoring.generation;
        session.swap_model(other).unwrap();
        assert_eq!(session.stats().scoring.generation, gen_before + 1);
        let after: Vec<_> = session.search(&query).unwrap().take(2).collect();
        // Same language, but the dog-heavy model must rank "dog" first —
        // proof the old model's distributions were not reused.
        assert_ne!(before[0].text, after[0].text);
        assert_eq!(after[0].text, "the dog sat");
        assert_eq!(session.stats().plan_hits, 1, "plans survive a model swap");
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("relm-session-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn plan_store_round_trips_across_sessions() {
        let dir = temp_store_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let query = SearchQuery::new(
            QueryString::new("the ((cat)|(dog)) sat").with_prefix("the ((cat)|(dog))"),
        )
        .with_strategy(crate::SearchStrategy::RandomSampling { seed: 3 });

        let (tok, lm) = fixture();
        let cold = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        let cold_matches: Vec<_> = cold.search(&query).unwrap().take(2).collect();
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.store_hits, 0);
        assert_eq!(cold_stats.store_misses, 1, "consulted before compiling");
        assert!(cold_stats.store_bytes_written > 0, "plan written back");

        // A brand-new session (fresh memo) over the same store must
        // serve the plan from disk and produce bit-identical matches.
        let (tok, lm) = fixture();
        let warm = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        let warm_matches: Vec<_> = warm.search(&query).unwrap().take(2).collect();
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.store_hits, 1, "{warm_stats:?}");
        assert_eq!(warm_stats.store_misses, 0);
        assert_eq!(cold_matches, warm_matches);
        for (c, w) in cold_matches.iter().zip(&warm_matches) {
            assert_eq!(c.log_prob.to_bits(), w.log_prob.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_artifact_falls_back_to_compilation() {
        let dir = temp_store_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let (tok, lm) = fixture();
        let writer = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        writer.plan(&query).unwrap();
        // Corrupt every artifact in place (flip a payload byte).
        let mut corrupted = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
        assert!(corrupted > 0);
        let (tok, lm) = fixture();
        let reader = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        let matches: Vec<_> = reader.search(&query).unwrap().take(2).collect();
        assert_eq!(matches.len(), 2, "corruption must not kill the query");
        let stats = reader.stats();
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_misses, 1, "corrupt artifact is a miss");
        assert_eq!(stats.plan_misses, 1, "recompiled");
        // The recompile overwrote the corrupt file: preloading a third
        // session now restores it cleanly.
        let (tok, lm) = fixture();
        let third = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        assert_eq!(third.preload_plans().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preload_skips_other_tokenizers_and_counts_hits() {
        let dir = temp_store_dir("preload");
        let _ = std::fs::remove_dir_all(&dir);
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let (tok, lm) = fixture();
        let writer = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        writer.plan(&query).unwrap();

        // Same store, different tokenizer: nothing compatible to load.
        let other_tok = BpeTokenizer::train("the cat sat on the mat. the dog sat.", 40);
        let (_, lm) = fixture();
        let foreign = Relm::builder(lm, other_tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        assert_eq!(foreign.preload_plans().unwrap(), 0);

        let (tok, lm) = fixture();
        let warm = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        assert_eq!(warm.preload_plans().unwrap(), 1);
        assert_eq!(warm.stats().store_hits, 1);
        // The preloaded plan serves from the memo without recompiling.
        warm.plan(&query).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.plan_hits, 1);
        assert_eq!(stats.plan_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scoring_cache_snapshot_round_trips_and_respects_generation() {
        let dir = temp_store_dir("cache");
        let _ = std::fs::remove_dir_all(&dir);
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let (tok, lm) = fixture();
        let writer = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        let _ = writer.search(&query).unwrap().take(2).count();
        assert!(writer.save_scoring_cache().unwrap() > 0);

        // A fresh session imports the snapshot (same generation 0) and
        // serves the repeated query without any model misses.
        let (tok, lm) = fixture();
        let warm = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        assert!(warm.load_scoring_cache().unwrap() > 0);
        let mut results = warm.search(&query).unwrap();
        let _ = (&mut results).take(2).count();
        assert_eq!(results.stats().cache_misses, 0, "fully snapshot-served");

        // After a model swap the generation moves on: the same snapshot
        // must refuse to import.
        let (tok, lm) = fixture();
        let mut swapped = Relm::builder(lm, tok)
            .config(SessionConfig::new().with_plan_store(&dir))
            .build()
            .unwrap();
        let replacement = NGramLm::train(
            swapped.tokenizer(),
            &["the dog sat on the log", "the dog sat on the log"],
            NGramConfig::xl(),
        );
        swapped.swap_model(replacement).unwrap();
        assert_eq!(swapped.load_scoring_cache().unwrap(), 0, "stale generation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_operations_without_a_store_surface_typed_errors() {
        let (tok, lm) = fixture();
        let session = Relm::new(lm, tok).unwrap();
        for err in [
            session.preload_plans().unwrap_err(),
            session.save_scoring_cache().unwrap_err(),
            session.load_scoring_cache().unwrap_err(),
        ] {
            assert_eq!(err.kind(), crate::RelmErrorKind::Store);
        }
    }

    #[test]
    fn swap_tokenizer_rekeys_plans() {
        let (tok, lm) = fixture();
        let retrained = BpeTokenizer::train("the cat sat on the mat. the dog sat.", 40);
        assert_ne!(tok.fingerprint(), retrained.fingerprint());
        let mut session = Relm::new(lm, tok).unwrap();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let _ = session.search(&query).unwrap().take(1).count();
        session.swap_tokenizer(retrained).unwrap();
        let _ = session.search(&query).unwrap().take(1).count();
        let stats = session.stats();
        assert_eq!(stats.plan_hits, 0, "old plans unreachable after re-key");
        assert_eq!(stats.plan_misses, 2);
    }

    /// The live memo's resident keys in slot order.
    fn live_resident(memo: &PlanMemo) -> Vec<PlanKey> {
        memo.ring.iter().map(|(key, _)| key.clone()).collect()
    }

    /// The live memo's `(len, bytes, evictions, recoveries)`.
    fn live_gauges(memo: &PlanMemo) -> (usize, usize, u64, u64) {
        let ring = &memo.ring;
        (
            ring.len(),
            ring.bytes(),
            ring.evictions(),
            ring.recoveries(),
        )
    }

    /// Empty the live memo's slot for `key` and leave the mapping behind.
    fn live_inject(memo: &mut PlanMemo, key: &PlanKey) -> bool {
        memo.ring.inject_dangling(key)
    }

    /// One step of the plan-memo differential. Key `i` always offers
    /// plan `i % 4` of [`memo_plans`].
    #[derive(Debug, Clone)]
    enum MemoOp {
        Insert(usize),
        Get(usize),
        /// Materialize (or grow) the plan's walk table for a token
        /// budget, then get it: the hit re-costs the entry.
        Recost(usize, usize),
        InjectDangling(usize),
    }

    fn memo_op() -> impl Strategy<Value = MemoOp> {
        prop_oneof![
            (0usize..8).prop_map(MemoOp::Insert),
            (0usize..8).prop_map(MemoOp::Insert),
            (0usize..8).prop_map(MemoOp::Get),
            (0usize..8, prop_oneof![Just(4usize), Just(8), Just(16)])
                .prop_map(|(i, tokens)| MemoOp::Recost(i, tokens)),
            (0usize..8).prop_map(MemoOp::InjectDangling),
        ]
    }

    /// Keys of different lengths, so entries differ in cost by key too.
    fn memo_key(i: usize) -> PlanKey {
        PlanKey {
            pattern: format!("plan {i} {}", "x".repeat(i * 40)),
            prefix: None,
            tokenization: TokenizationStrategy::Canonical,
            preprocessors: Vec::new(),
            tokenizer: 0,
        }
    }

    /// Four fresh plans; the two prefixed ones grow when a walk table
    /// is materialized inside them.
    fn memo_plans(tok: &BpeTokenizer) -> Vec<Arc<PlanParts>> {
        [
            ("the cat", None),
            ("the ((cat)|(dog)) sat", Some("the")),
            ("the cow ate", None),
            ("the ((cat)|(cow)) ((sat)|(ate))", Some("the ((cat)|(cow))")),
        ]
        .into_iter()
        .map(|(pattern, prefix)| {
            let mut query = QueryString::new(pattern);
            if let Some(prefix) = prefix {
                query = query.with_prefix(prefix);
            }
            let query = SearchQuery::new(query);
            Arc::new(compile_parts(&query, tok).unwrap())
        })
        .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 2048 }))]

        /// The live plan memo and a copy of the table it used to be
        /// ([`oracle::PlanMemo`]) under one random sequence of inserts,
        /// gets, re-costs and injected dangling slots: after every
        /// operation they must give the same answer (the same plan, or
        /// the same `PlanInsert`) and hold the same plans in the same
        /// slot order (so the hand chose the same victims, in the same
        /// order), with equal len, bytes, evictions and recoveries.
        #[test]
        fn proptest_ring_matches_the_old_plan_memo(
            capacity in 1usize..6,
            scale in 2usize..12,
            ops in proptest::collection::vec(memo_op(), 1..64),
        ) {
            let (tok, _) = fixture();
            let plans = memo_plans(&tok);
            let plan = |i: usize| Arc::clone(&plans[i % plans.len()]);
            // From half a typical plan to almost three.
            let max_bytes = PlanMemo::cost_of(&memo_key(0), &plans[1]) * scale / 4;
            let mut live = PlanMemo::new(capacity, max_bytes);
            let mut old = oracle::PlanMemo::new(capacity, max_bytes);
            let served = |parts: Option<Arc<PlanParts>>| parts.map(|p| Arc::as_ptr(&p));
            for op in ops {
                match op {
                    MemoOp::Insert(i) => prop_assert_eq!(
                        live.insert(memo_key(i), plan(i)),
                        old.insert(memo_key(i), plan(i))
                    ),
                    MemoOp::Get(i) => prop_assert_eq!(
                        served(live.get(&memo_key(i))),
                        served(old.get(&memo_key(i)))
                    ),
                    MemoOp::Recost(i, tokens) => {
                        let _ = plan(i).walk_table(tokens, Parallelism::Serial);
                        prop_assert_eq!(
                            served(live.get(&memo_key(i))),
                            served(old.get(&memo_key(i)))
                        );
                    }
                    MemoOp::InjectDangling(i) => prop_assert_eq!(
                        live_inject(&mut live, &memo_key(i)),
                        old.inject_dangling(&memo_key(i))
                    ),
                }
                prop_assert_eq!(live_resident(&live), old.resident());
                prop_assert_eq!(live_gauges(&live), old.gauges());
            }
        }
    }
}
