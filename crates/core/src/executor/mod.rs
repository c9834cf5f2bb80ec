//! The ReLM Executor (§3.3): traversals of the LLM automaton against the
//! model.
//!
//! Three traversals are provided — Dijkstra ([`shortest`]), beam search
//! ([`beam`]) and random sampling ([`sampling`]) — and all three apply
//! one expansion rule, written once in [`Kernel`]:
//!
//! * **Cap.** A path of `n` tokens may extend iff `n < max_tokens` and
//!   `n + 1 < max_sequence_len`.
//! * **Start and bridge.** A path starts on the prefix machine if the
//!   plan has one, otherwise on the body. A prefix-accepting path
//!   bridges to the body's start at no cost, its `prefix_len` set to its
//!   length.
//! * **Successors.** Prefix edges take any token with a finite raw
//!   log-prob, at that cost: conditioning context is in the language by
//!   definition, so the decoding rules do not apply. Body edges take the
//!   tokens the decoding policy keeps, at the policy's value.
//! * **Completion.** A body-accepting path completes at no cost, at any
//!   length — unless the query requires EOS. Then it completes only if
//!   it may extend and the policy keeps EOS, at EOS's cost.
//! * **Emission.** A completed path is emitted if it passes the runtime
//!   checks (canonicity, when the canonical automaton fell back to the
//!   full construction, and the deferred filters); Dijkstra and beam
//!   also drop repeated token sequences and, under `distinct_texts`,
//!   repeated texts.
//!
//! Each traversal keeps only its order: Dijkstra pops the cheapest path
//! (matches come out in non-increasing probability), beam search sorts
//! and cuts each level to its width, and the sampler draws — prefixes
//! uniformly over prefix strings by walk counts (Appendix C), then body
//! steps from the model restricted to the automaton, with EOS weighing
//! stop against continue at accepting states.
//!
//! The pipeline is split in two: planning compiles a query into a
//! [`CompiledSearch`] (regex → NFA → DFA → token automaton — the
//! expensive part) and execution runs a compiled plan against a model.
//! [`crate::Relm`] owns both halves: it memoizes the plans and pools
//! the scoring cache across queries.

mod beam;
mod sampling;
mod shortest;

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use relm_automata::{Dfa, WalkTable};
use relm_bpe::{BpeTokenizer, TokenId};
use relm_lm::{DecodingPolicy, LanguageModel, ScoringEngine};
use relm_regex::Regex;

use crate::compiler::{compile_canonical, compile_full, CanonicalLimits, CompiledAutomaton};
use crate::query::{PrefixSampling, SearchQuery, SearchStrategy, TokenizationStrategy};
use crate::results::MatchResult;
use crate::RelmError;

pub(crate) use beam::BeamIter;
pub(crate) use sampling::SamplingIter;
pub(crate) use shortest::ShortestPathIter;

/// What one bounded unit of executor work produced. The unit is the
/// natural quantum of each traversal — one Dijkstra pop, one beam level
/// (or one emission from the finished beam), one sampling episode — so a
/// driver can interleave several executions fairly without any of them
/// running away.
#[derive(Debug)]
pub(crate) enum StepOutcome {
    /// The step emitted a match.
    Match(MatchResult),
    /// Work was done but nothing emitted yet; step again.
    Working,
    /// The search is exhausted (language, expansion cap, or attempt
    /// budget): no further step can emit.
    Done,
}

/// Counters exposed by a finished (or in-progress) search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutionStats {
    /// Dijkstra node expansions (shortest path), paths scored per level
    /// (beam search) or sampling steps.
    pub expansions: u64,
    /// Scoring requests issued by the traversal (before caching).
    pub lm_calls: u64,
    /// Matches emitted. Counted as matches are pulled: a search stopped
    /// by `take(n)` counts at most `n`, whatever else it found.
    pub emitted: u64,
    /// Sampling episodes that dead-ended and were retried.
    pub dead_ends: u64,
    /// Scoring requests served from the [`relm_lm::ScoringEngine`] memo
    /// table (or deduplicated within a batch) without model work. Hits
    /// on the client's shared cache from earlier queries' work count
    /// here too.
    pub cache_hits: u64,
    /// Distinct contexts that required a model evaluation.
    pub cache_misses: u64,
    /// Batched model invocations issued by the engine.
    pub batches: u64,
    /// Total contexts evaluated across those invocations
    /// (`batched_contexts / batches` is the mean batch fill).
    pub batched_contexts: u64,
    /// Scoring-cache entries discarded by the eviction policy (for the
    /// client's shared cache: the cache's lifetime total).
    pub cache_evictions: u64,
    /// Estimated resident bytes of the scoring cache (a gauge).
    pub cache_bytes: u64,
    /// Client plan-memo hits observed when this search was executed
    /// (cumulative client counter).
    pub plan_cache_hits: u64,
    /// Always 0 since the multi-query driver's coalescing tick was
    /// deleted; the frozen benchmark still reads it, and ROADMAP item
    /// 1(e) drops it with its `driver.ticks_run` row.
    pub coalesce_ticks: u64,
    /// Always 0, for the same reason; dropped with the
    /// `driver.ticks_skipped` row.
    pub coalesce_ticks_skipped: u64,
    /// Always 0 since speculative scoring was deleted; the frozen
    /// benchmark still reads it, and the next bench PR drops it with its
    /// `engine.speculative_scored` row.
    pub speculative_scored: u64,
    /// Always 0, for the same reason; dropped by the next bench PR with
    /// its `engine.speculation_hit_share` row.
    pub speculation_hits: u64,
}

/// The memoizable product of query compilation: the token-space automata
/// and runtime-check languages. Everything here depends only on
/// `(pattern, prefix, tokenization, preprocessors, tokenizer)` — never
/// on the model or per-run execution flags — which is exactly what makes
/// it shareable across queries via [`crate::Relm`]'s plan memo.
#[derive(Debug)]
pub(crate) struct PlanParts {
    /// Compiled prefix machine, if the query has a conditioning prefix.
    pub prefix: Option<Dfa>,
    /// The body (suffix) machine plus its canonicity flag.
    pub body: CompiledAutomaton,
    /// Deferred (runtime) filter languages.
    pub deferred_filters: Vec<Dfa>,
    /// Lazily built walk-count table over the prefix machine
    /// (`max_tokens` is an execution flag, not part of the plan key, so
    /// the table is built at execute time). Only the largest-budget
    /// table is kept — a table built for budget `L` answers any query
    /// with budget `≤ L` — so a client sweeping `max_tokens` holds one
    /// table, not one per budget. Warm sampling queries of a memoized
    /// plan reuse it instead of rebuilding per execute.
    walk_table: Mutex<Option<Arc<WalkTable>>>,
}

impl PlanParts {
    /// Reassemble a plan from store-loaded artifacts — the inverse of
    /// tearing one apart for serialization. The walk table arrives
    /// already built (if the saving process had materialized it); a
    /// restored table for budget `L` keeps serving any later query with
    /// budget `≤ L`, exactly as if this process had built it.
    pub(crate) fn from_restored(
        prefix: Option<Dfa>,
        body: CompiledAutomaton,
        deferred_filters: Vec<Dfa>,
        walk_table: Option<Arc<WalkTable>>,
    ) -> Self {
        PlanParts {
            prefix,
            body,
            deferred_filters,
            walk_table: Mutex::new(walk_table),
        }
    }

    /// Snapshot of the memoized walk table (for serialization).
    pub(crate) fn walk_table_snapshot(&self) -> Option<Arc<WalkTable>> {
        self.walk_table.lock().clone()
    }

    /// Estimated resident heap bytes of the compiled automata (prefix,
    /// body, and deferred-filter machines) **plus** the walk table
    /// memoized inside the plan. At plan-compile time the table is still
    /// `None` (it is an execute-time artifact sized by `max_tokens`), so
    /// the client's byte-budgeted plan memo charges it by re-costing
    /// the entry on later memo hits. Used to charge a URL-scale plan its
    /// real footprint.
    pub(crate) fn estimated_bytes(&self) -> usize {
        let prefix = self.prefix.as_ref().map_or(0, Dfa::estimated_bytes);
        let filters: usize = self.deferred_filters.iter().map(Dfa::estimated_bytes).sum();
        let walk_table = self
            .walk_table
            .lock()
            .as_ref()
            .map_or(0, |t| t.estimated_bytes());
        prefix + self.body.automaton.estimated_bytes() + filters + walk_table
    }

    /// The walk-count table for the prefix machine covering at least
    /// `max_tokens`, building (or upgrading to the larger budget) and
    /// memoizing it on first use. `None` when the plan has no prefix.
    pub(crate) fn walk_table(&self, max_tokens: usize) -> Option<Arc<WalkTable>> {
        let prefix = self.prefix.as_ref()?;
        let mut table = self.walk_table.lock();
        match table.as_ref() {
            Some(existing) if existing.max_len() >= max_tokens => Some(Arc::clone(existing)),
            _ => {
                let built = Arc::new(WalkTable::new(prefix, max_tokens));
                *table = Some(Arc::clone(&built));
                Some(built)
            }
        }
    }
}

/// The compiled form of a query: shared automata plus execution flags.
#[derive(Debug, Clone)]
pub(crate) struct CompiledQuery {
    pub parts: Arc<PlanParts>,
    pub policy: DecodingPolicy,
    pub max_tokens: usize,
    pub prefix_sampling: PrefixSampling,
    pub require_eos: bool,
    pub distinct_texts: bool,
}

/// Compile `query`'s patterns into token automata — the expensive,
/// memoizable stage (regex parse, preprocessors, determinize/minimize,
/// left quotient, token lowering).
///
/// The query pattern describes the **full** language (prefix included),
/// as in the paper's Figures 4 and 11; the suffix machine is derived as
/// the left quotient `prefix⁻¹ · L(pattern)`.
///
/// Compile runs on the calling thread: a median query compiles in about
/// a millisecond, less than a worker pool's dispatch and the copies it
/// needs give back.
pub(crate) fn compile_parts(
    query: &SearchQuery,
    tokenizer: &BpeTokenizer,
) -> Result<PlanParts, RelmError> {
    // Parse patterns into Natural Language Automata.
    let full_regex = Regex::compile(&query.query_string.pattern)?;
    let mut full_nfa = full_regex.nfa().clone();
    let mut prefix_nfa = match &query.query_string.prefix {
        Some(p) => Some(Regex::compile(p)?.nfa().clone()),
        None => None,
    };

    // Apply preprocessors to both machines (edits/filters act on the
    // whole query text; the prefix machine is transformed consistently so
    // edited prefixes remain prefixes of the edited full language).
    let mut deferred_filters = Vec::new();
    for pre in &query.preprocessors {
        if let Some(lang) = pre.deferred_language() {
            deferred_filters.push(lang.clone());
            continue;
        }
        full_nfa = pre.apply(&full_nfa);
        if let Some(p) = prefix_nfa.take() {
            prefix_nfa = Some(pre.apply(&p));
        }
    }

    let full_dfa = full_nfa.determinize().minimize();
    if full_dfa.is_empty_language() {
        return Err(RelmError::EmptyLanguage);
    }
    // Split into prefix machine and suffix (body) machine.
    let (body_dfa, prefix_nfa) = match prefix_nfa {
        None => (full_dfa, None),
        Some(p) => {
            let prefix_dfa = p.determinize().minimize();
            if prefix_dfa.is_empty_language() {
                return Err(RelmError::EmptyPrefixLanguage);
            }
            let quotient = full_dfa.left_quotient(&prefix_dfa).minimize();
            if quotient.is_empty_language() {
                return Err(RelmError::InvalidQuery(
                    "prefix is not a prefix of the query language".into(),
                ));
            }
            (quotient, Some(prefix_dfa))
        }
    };
    let body = match query.tokenization {
        TokenizationStrategy::All => CompiledAutomaton {
            automaton: compile_full(&body_dfa, tokenizer),
            needs_canonical_check: false,
        },
        TokenizationStrategy::Canonical => {
            compile_canonical(&body_dfa, tokenizer, CanonicalLimits::default())
        }
    };

    let prefix = match prefix_nfa {
        None => None,
        Some(dfa) => {
            let compiled = match query.tokenization {
                TokenizationStrategy::All => compile_full(&dfa, tokenizer),
                TokenizationStrategy::Canonical => {
                    compile_canonical(&dfa, tokenizer, CanonicalLimits::default()).automaton
                }
            };
            Some(compiled)
        }
    };

    Ok(PlanParts {
        prefix,
        body: CompiledAutomaton {
            needs_canonical_check: body.needs_canonical_check
                && query.tokenization == TokenizationStrategy::Canonical,
            automaton: body.automaton,
        },
        deferred_filters,
        walk_table: Mutex::new(None),
    })
}

/// Attach per-run execution flags to compiled (possibly memoized) parts.
pub(crate) fn assemble_compiled(
    query: &SearchQuery,
    parts: Arc<PlanParts>,
    max_sequence_len: usize,
) -> Result<CompiledQuery, RelmError> {
    let max_tokens = query
        .max_tokens
        .unwrap_or(max_sequence_len)
        .min(max_sequence_len);
    if max_tokens == 0 {
        return Err(RelmError::InvalidQuery("max_tokens is zero".into()));
    }
    Ok(CompiledQuery {
        parts,
        policy: query.policy,
        max_tokens,
        prefix_sampling: query.prefix_sampling,
        require_eos: query.require_eos,
        distinct_texts: query.distinct_texts,
    })
}

/// An executable, compiled ReLM query: the output of
/// [`crate::Relm::plan`] and the input of [`crate::Relm::execute`].
///
/// Compilation (regex → NFA → DFA → token automaton) dominates the
/// wall-clock of small searches, so separating it from execution lets
/// callers run one plan many times — and lets [`crate::Relm`] memoize
/// plans across structurally identical queries. The automata
/// inside are behind an [`Arc`]; cloning a plan is cheap.
#[derive(Debug, Clone)]
pub struct CompiledSearch {
    pub(crate) compiled: CompiledQuery,
    pub(crate) strategy: SearchStrategy,
    pub(crate) max_expansions: usize,
    /// Fingerprint of the tokenizer the automata were compiled against;
    /// execution refuses to run the plan with any other tokenizer
    /// (the token ids would mean different bytes).
    pub(crate) tokenizer_fingerprint: u64,
}

impl CompiledSearch {
    /// Attach `query`'s execution flags to its compiled form — the one
    /// place the flag set is copied.
    pub(crate) fn from_query(
        query: &SearchQuery,
        compiled: CompiledQuery,
        tokenizer_fingerprint: u64,
    ) -> Self {
        CompiledSearch {
            compiled,
            strategy: query.strategy,
            max_expansions: query.max_expansions,
            tokenizer_fingerprint,
        }
    }

    /// Guard execution against a plan/runtime mismatch: the tokenizer
    /// must be the one the automata were compiled over, and the plan's
    /// token budget must fit the executing model's context window (a
    /// plan compiled against a larger-context model would otherwise
    /// drive a smaller model past its bound).
    pub(crate) fn check_compatible(
        &self,
        tokenizer_fingerprint: u64,
        max_sequence_len: usize,
    ) -> Result<(), RelmError> {
        if self.tokenizer_fingerprint != tokenizer_fingerprint {
            return Err(RelmError::InvalidQuery(
                "plan was compiled for a different tokenizer".into(),
            ));
        }
        if self.compiled.max_tokens > max_sequence_len {
            return Err(RelmError::InvalidQuery(
                "plan token budget exceeds the model's max sequence length".into(),
            ));
        }
        Ok(())
    }

    /// The traversal strategy this plan executes.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// States in the body (suffix) token automaton.
    pub fn body_states(&self) -> usize {
        self.compiled.parts.body.automaton.state_count()
    }
}

/// The machine a path is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Machine {
    Prefix,
    Body,
}

/// Where a path stands: a machine and one of its states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct At {
    pub(crate) machine: Machine,
    pub(crate) state: usize,
}

/// What expanding a scored path yields ([`Kernel::expand`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Next {
    /// The path is body-accepting and the policy keeps EOS, at `lp`.
    /// Under `require_eos` stopping here is how the path completes, at
    /// that cost (`completes`). Otherwise the path already completed at
    /// no cost ([`Kernel::completes`]), and `lp` only weighs the
    /// sampler's stop.
    Stop { lp: f64, completes: bool },
    /// The path extended by `token`, now at `to`, for `lp`.
    Edge { token: TokenId, to: At, lp: f64 },
}

/// The dedup in front of Dijkstra's and beam's emission: each token
/// sequence once, and under `distinct_texts` each text once.
#[derive(Default)]
struct Seen {
    tokens: HashSet<Vec<TokenId>>,
    texts: HashSet<String>,
}

/// The expansion rule of the module docs, written once, with the
/// counters every traversal keeps. A traversal owns one and adds only
/// its order.
pub(crate) struct Kernel<'a, M: LanguageModel> {
    pub engine: Arc<ScoringEngine<&'a M>>,
    tokenizer: &'a BpeTokenizer,
    pub compiled: CompiledQuery,
    pub stats: ExecutionStats,
    /// `None` for the sampler, which emits every draw.
    seen: Option<Seen>,
}

impl<'a, M: LanguageModel> Kernel<'a, M> {
    /// A kernel for one execution; `dedup` turns on [`Seen`].
    pub(crate) fn new(
        engine: Arc<ScoringEngine<&'a M>>,
        tokenizer: &'a BpeTokenizer,
        compiled: CompiledQuery,
        dedup: bool,
    ) -> Self {
        Kernel {
            engine,
            tokenizer,
            compiled,
            stats: ExecutionStats::default(),
            seen: dedup.then(Seen::default),
        }
    }

    fn dfa(&self, machine: Machine) -> &Dfa {
        match machine {
            Machine::Body => &self.compiled.parts.body.automaton,
            Machine::Prefix => self.compiled.parts.prefix.as_ref().expect("prefix machine"), // lint: allow(panic, "paths sit on the prefix machine only when the plan has one")
        }
    }

    /// Where every path starts.
    pub(crate) fn start(&self) -> At {
        match &self.compiled.parts.prefix {
            Some(prefix) => At {
                machine: Machine::Prefix,
                state: prefix.start(),
            },
            None => self.body_start(),
        }
    }

    pub(crate) fn body_start(&self) -> At {
        At {
            machine: Machine::Body,
            state: self.compiled.parts.body.automaton.start(),
        }
    }

    /// The cap: whether a path of `n` tokens may extend.
    pub(crate) fn may_extend(&self, n: usize) -> bool {
        n < self.compiled.max_tokens && n + 1 < self.engine.max_sequence_len()
    }

    /// The body start, if a path at `at` bridges there (at no cost).
    pub(crate) fn bridge(&self, at: At) -> Option<At> {
        (at.machine == Machine::Prefix && self.dfa(Machine::Prefix).is_accepting(at.state))
            .then(|| self.body_start())
    }

    /// Whether a path at `at` completes at no cost.
    pub(crate) fn completes(&self, at: At) -> bool {
        at.machine == Machine::Body
            && !self.compiled.require_eos
            && self.dfa(Machine::Body).is_accepting(at.state)
    }

    /// Hand `visit` what a path at `at` may do next, given `row`, the
    /// model's scores after it: first its [`Next::Stop`], then its
    /// successors in transition order. The caller checks
    /// [`Self::may_extend`] first.
    pub(crate) fn expand(&self, at: At, row: &[f64], mut visit: impl FnMut(Next)) {
        let dfa = self.dfa(at.machine);
        let allowed = (at.machine == Machine::Body).then(|| self.compiled.policy.filter(row));
        if let Some(allowed) = &allowed {
            if dfa.is_accepting(at.state) {
                if let Some(lp) = allowed.get(self.engine.eos()) {
                    let completes = self.compiled.require_eos;
                    visit(Next::Stop { lp, completes });
                }
            }
        }
        for (token, state) in dfa.transitions(at.state) {
            let lp = match &allowed {
                Some(allowed) => allowed.get(token),
                None => Some(row[token as usize]).filter(|lp| lp.is_finite()),
            };
            if let Some(lp) = lp {
                let to = At {
                    machine: at.machine,
                    state,
                };
                visit(Next::Edge { token, to, lp });
            }
        }
    }

    /// The model context of a path: EOS-rooted, matching training.
    pub(crate) fn context(&self, tokens: &[TokenId]) -> Vec<TokenId> {
        let mut ctx = Vec::with_capacity(tokens.len() + 1);
        ctx.push(self.engine.eos());
        ctx.extend_from_slice(tokens);
        ctx
    }

    /// Score one path's context: one counted model request.
    pub(crate) fn score(&mut self, tokens: &[TokenId]) -> Arc<[f64]> {
        self.stats.lm_calls += 1;
        self.engine.score(&self.context(tokens))
    }

    /// Add to `out` the contexts of `paths` that the engine has not
    /// cached and `out` does not hold yet, until `out` holds `limit`.
    pub(crate) fn add_uncached<'t>(
        &self,
        out: &mut Vec<Vec<TokenId>>,
        paths: impl IntoIterator<Item = &'t [TokenId]>,
        limit: usize,
    ) {
        for tokens in paths {
            if out.len() >= limit {
                break;
            }
            let ctx = self.context(tokens);
            if !self.engine.is_cached(&ctx) && !out.contains(&ctx) {
                out.push(ctx);
            }
        }
    }

    /// Emit a completed path as a match, or `None` if the dedup or a
    /// runtime check drops it. A `log_prob` of `None` scores the tokens
    /// here (the sampler draws its path without summing it), after the
    /// checks, so a rejected draw costs no model requests.
    pub(crate) fn emit(
        &mut self,
        tokens: Vec<TokenId>,
        prefix_len: usize,
        log_prob: Option<f64>,
    ) -> Option<MatchResult> {
        if let Some(seen) = &mut self.seen {
            if !seen.tokens.insert(tokens.clone()) {
                return None;
            }
        }
        let text = self.tokenizer.decode(&tokens);
        if let Some(seen) = &mut self.seen {
            if !seen.texts.insert(text.clone()) && self.compiled.distinct_texts {
                return None; // duplicate string via another encoding
            }
        }
        // The runtime checks read the bytes of the body tokens.
        let parts = &self.compiled.parts;
        if parts.body.needs_canonical_check || !parts.deferred_filters.is_empty() {
            let body = &tokens[prefix_len..];
            let bytes = self.tokenizer.decode_bytes(body);
            if parts.body.needs_canonical_check && self.tokenizer.encode_bytes(&bytes) != body {
                return None;
            }
            let symbols = || bytes.iter().map(|&b| u32::from(b));
            if parts.deferred_filters.iter().any(|f| f.contains(symbols())) {
                return None;
            }
        }
        let log_prob = log_prob.unwrap_or_else(|| self.sequence_log_prob(&tokens, prefix_len));
        let canonical = self.tokenizer.is_canonical(&tokens);
        self.stats.emitted += 1;
        Some(MatchResult {
            tokens,
            prefix_len,
            text,
            log_prob,
            canonical,
        })
    }

    /// The log-probability of `tokens` from the EOS root, plus EOS's
    /// under `require_eos`, on the scale [`Self::expand`] scores paths
    /// on: prefix terms raw, body and EOS terms through the policy's
    /// view. One engine request per term, summed left to right (at
    /// temperature 1 the additions, and so the bits, of
    /// `relm_lm::sequence_log_prob`). A prefix term reads one raw entry,
    /// so it asks for that entry alone and a miss computes no row; a
    /// body term needs the row the policy cuts.
    fn sequence_log_prob(&mut self, tokens: &[TokenId], prefix_len: usize) -> f64 {
        let mut ctx = self.context(tokens);
        if self.compiled.require_eos {
            ctx.push(self.engine.eos());
        }
        let mut log_prob = 0.0;
        for i in 1..ctx.len() {
            let token = ctx[i];
            // ctx[i] is tokens[i - 1]; the body starts at prefix_len.
            log_prob += if i > prefix_len {
                let row = self.engine.score(&ctx[..i]);
                let lp = self.compiled.policy.filter(&row).get(token);
                lp.unwrap_or(f64::NEG_INFINITY)
            } else {
                self.engine.score_token(&ctx[..i], token)
            };
        }
        self.stats.lm_calls += ctx.len() as u64 - 1;
        log_prob
    }
}

/// The result stream of [`crate::Relm::search`]: an iterator of
/// [`MatchResult`]s whose order is defined by the query's traversal
/// strategy.
///
/// Shortest-path streams are finite (language exhausted or expansion cap
/// hit); random-sampling streams end only when the retry budget is
/// exhausted — callers use [`Iterator::take`].
pub struct SearchResults<'a, M: LanguageModel> {
    inner: Inner<'a, M>,
    /// The client's plan-memo hit counter, stamped when execution
    /// started; folded into [`Self::stats`].
    plan_hits: u64,
}

enum Inner<'a, M: LanguageModel> {
    Shortest(ShortestPathIter<'a, M>),
    Sampling(SamplingIter<'a, M>),
    Beam(BeamIter<'a, M>),
}

impl<'a, M: LanguageModel> SearchResults<'a, M> {
    /// Execution counters (snapshot; advances as the iterator is
    /// consumed).
    pub fn stats(&self) -> ExecutionStats {
        let kernel = match &self.inner {
            Inner::Shortest(it) => &it.kernel,
            Inner::Sampling(it) => &it.kernel,
            Inner::Beam(it) => &it.kernel,
        };
        let scoring = kernel.engine.stats();
        ExecutionStats {
            cache_hits: scoring.cache_hits,
            cache_misses: scoring.cache_misses,
            batches: scoring.batches,
            batched_contexts: scoring.batched_contexts,
            cache_evictions: scoring.cache_evictions,
            cache_bytes: scoring.cache_bytes,
            plan_cache_hits: self.plan_hits,
            ..kernel.stats
        }
    }

    /// Advance one bounded unit of work. [`Iterator::next`] is a loop
    /// over this; a multi-query driver calls it directly to interleave
    /// executions.
    pub(crate) fn step(&mut self) -> StepOutcome {
        match &mut self.inner {
            Inner::Shortest(it) => it.step(),
            Inner::Sampling(it) => it.step(),
            Inner::Beam(it) => it.step(),
        }
    }
}

impl<'a, M: LanguageModel> Iterator for SearchResults<'a, M> {
    type Item = MatchResult;

    fn next(&mut self) -> Option<MatchResult> {
        loop {
            match self.step() {
                StepOutcome::Match(m) => return Some(m),
                StepOutcome::Working => {}
                StepOutcome::Done => return None,
            }
        }
    }
}

/// Run a compiled plan through the given scoring engine, stamping the
/// client's plan-memo counters on the stream — the back end of
/// [`crate::Relm::execute`] and of the multi-query driver, which hands
/// several executions one engine so they share its memo.
pub(crate) fn execute_with_engine<'a, M: LanguageModel>(
    engine: Arc<ScoringEngine<&'a M>>,
    tokenizer: &'a BpeTokenizer,
    plan: &CompiledSearch,
    plan_hits: u64,
) -> SearchResults<'a, M> {
    let compiled = plan.compiled.clone();
    let inner = match plan.strategy {
        SearchStrategy::ShortestPath => Inner::Shortest(ShortestPathIter::new(
            engine,
            tokenizer,
            compiled,
            plan.max_expansions,
        )),
        SearchStrategy::RandomSampling { seed } => {
            Inner::Sampling(SamplingIter::new(engine, tokenizer, compiled, seed))
        }
        SearchStrategy::Beam { width } => {
            Inner::Beam(BeamIter::new(engine, tokenizer, compiled, width))
        }
    };
    SearchResults { inner, plan_hits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryString;

    /// A query whose prefix token automaton is wide: a 40-word
    /// alternation.
    fn wide_prefix_parts() -> PlanParts {
        // Pseudo-random words: minimization cannot collapse the prefix
        // trie.
        let words = crate::test_lexicon(0x2545f4914f6cdd1d, 40, 8);
        let corpus = words.join(" ");
        let tokenizer = BpeTokenizer::train(&corpus, 40);
        let prefix = words
            .iter()
            .map(|w| format!("({w})"))
            .collect::<Vec<_>>()
            .join("|");
        let query = SearchQuery::new(
            QueryString::new(format!("(({prefix})) end")).with_prefix(format!("({prefix})")),
        )
        .with_tokenization(crate::query::TokenizationStrategy::All);
        compile_parts(&query, &tokenizer).unwrap()
    }

    #[test]
    fn parallel_walk_table_is_memoized_and_charged_to_the_plan() {
        let parts = wide_prefix_parts();
        let before = parts.estimated_bytes();
        let table = parts.walk_table(16).unwrap();
        let after = parts.estimated_bytes();
        assert!(
            after >= before + table.estimated_bytes(),
            "estimated_bytes must charge the walk table: {before} -> {after}"
        );
        let again = parts.walk_table(12).unwrap();
        assert!(
            Arc::ptr_eq(&table, &again),
            "a smaller budget reuses the table"
        );
    }
}
