//! Building a [`Relm`] client and running many queries through it.
//!
//! The paper frames ReLM as a *system* users hand queries to (the
//! `SimpleSearchQuery` front end of Figure 11): callers describe what
//! they want validated and the system owns the machinery. [`Relm`] is
//! that handle for this workspace — it owns the model, the tokenizer,
//! the compiled-plan memo and the shared scoring cache, so a caller
//! builds one client ([`RelmBuilder`]) and runs whole audit batteries
//! through it:
//!
//! * [`Relm::search`] / [`Relm::plan`] / [`Relm::execute`] — the
//!   single-query paths, plan-memoized and score-pooled across calls;
//! * [`Relm::run_many`] — the multi-query submission path: a whole
//!   [`QuerySet`] executes against **one shared scoring engine**, with
//!   the three executor types stepped round-robin; each step scores
//!   its own contexts on demand, and a score one query memoized is a
//!   hit for every other. Per-query results are byte-identical to
//!   running each query alone — scoring is pure, so another query's
//!   memoized scores can never change a traversal — which
//!   `tests/client.rs` enforces bit-for-bit.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use relm_bpe::BpeTokenizer;
use relm_lm::{LanguageModel, ScoringEngine, ScoringStats};

use crate::executor::{CompiledSearch, ExecutionStats, SearchResults, StepOutcome};
use crate::query::{QueryId, QuerySet, SearchQuery};
use crate::results::MatchResult;
use crate::session::SessionConfig;

/// The ReLM client. Its fields and its single-query paths live in
/// `session.rs`; this module adds how a client is built
/// ([`Relm::builder`], [`Relm::new`]) and how many queries run through
/// it at once ([`Relm::run_many`], [`Relm::driver`]).
///
/// # Example
///
/// ```
/// use relm_bpe::BpeTokenizer;
/// use relm_core::{QuerySet, QueryString, Relm, SearchQuery};
/// use relm_lm::{NGramConfig, NGramLm};
///
/// let corpus = "the cat sat on the mat. the dog sat on the log.";
/// let tokenizer = BpeTokenizer::train(corpus, 60);
/// let model = NGramLm::train(
///     &tokenizer,
///     &["the cat sat on the mat", "the dog sat on the log"],
///     NGramConfig::xl(),
/// );
/// let client = Relm::builder(model, tokenizer).build()?;
///
/// // Single query: plan-memoized, score-pooled.
/// let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
/// let texts: Vec<String> = client.search(&query)?.take(2).map(|m| m.text).collect();
/// assert_eq!(texts.len(), 2);
///
/// // A whole set: one shared engine, stepped round-robin.
/// let set = QuerySet::new()
///     .with_query(SearchQuery::new(QueryString::new("the cat sat")), 1)
///     .with_query(SearchQuery::new(QueryString::new("the dog sat")), 1);
/// let report = client.run_many(&set)?;
/// assert_eq!(report.outcomes.len(), 2);
/// # Ok::<(), relm_core::RelmError>(())
/// ```
pub use crate::session::Relm;
use crate::RelmError;

/// Configures and validates a [`Relm`] client. Obtained from
/// [`Relm::builder`]; consumed by [`RelmBuilder::build`].
#[derive(Debug)]
#[must_use = "builders do nothing until `.build()` is called"]
pub struct RelmBuilder<M> {
    model: M,
    tokenizer: BpeTokenizer,
    config: SessionConfig,
}

impl<M: LanguageModel> RelmBuilder<M> {
    /// Replace the whole runtime configuration (budgets, plan store) —
    /// the builder's one setter; build the value with
    /// [`SessionConfig`]'s `with_*` methods.
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Validate the model/tokenizer pairing and build the client.
    ///
    /// # Errors
    ///
    /// [`RelmError::InvalidQuery`] if the model's vocabulary is smaller
    /// than the tokenizer's — compiled automata would emit token ids
    /// the model has no distribution entry for (the same invariant
    /// [`Relm::swap_model`] enforces, checked once up front instead of
    /// failing obscurely mid-search). Every client is built here
    /// ([`Relm::new`] is shorthand), so every client passes the check.
    pub fn build(self) -> Result<Relm<M>, RelmError> {
        if self.model.vocab_size() < self.tokenizer.vocab_size() {
            return Err(RelmError::InvalidQuery(
                "model vocabulary is smaller than the tokenizer's".into(),
            ));
        }
        Ok(Relm::assemble(self.model, self.tokenizer, self.config))
    }
}

/// What one query of a [`QuerySet`] produced under [`Relm::run_many`]:
/// its matches in the query's own deterministic order, plus execution
/// counters.
#[derive(Debug, Clone)]
#[non_exhaustive]
// lint: allow(dead_pub, "the element type of QuerySetReport::outcomes and of QueryCompletion::outcome, which relm-serve's server, the audit examples and benches/e2e read")
pub struct QueryOutcome {
    /// The matches, capped at the spec's `max_results`, in exactly the
    /// order a sequential run of the same query would emit them.
    pub matches: Vec<MatchResult>,
    /// Execution counters. Traversal counters (expansions, emissions,
    /// dead ends) are per-query; the scoring counters reflect the
    /// engine the query scored through — for batched queries that is
    /// the set's **shared** engine, so those counters pool across the
    /// set (see [`QuerySetReport::scoring`] for the set-wide view).
    pub stats: ExecutionStats,
}

/// The result of [`Relm::run_many`]: per-query outcomes in submission
/// order plus the shared engine's set-wide scoring counters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QuerySetReport {
    /// One outcome per submitted query, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// The shared scoring engine's counters for the whole set.
    pub scoring: ScoringStats,
}

impl QuerySetReport {
    /// Mean contexts per model batch across the whole set.
    pub fn mean_batch_size(&self) -> f64 {
        self.scoring.mean_batch_size()
    }
}

/// A completion notification from a [`QueryDriver`]: the admitted
/// query's id plus everything it produced. Returned by
/// [`QueryDriver::tick`] — the driver invokes no user code mid-tick, so
/// a caller (the serving layer's admission loop) routes completions to
/// their submitters itself.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryCompletion {
    /// The id [`QueryDriver::admit`] returned for this query.
    pub id: QueryId,
    /// The query's matches and counters, exactly as [`Relm::run_many`]
    /// would report them.
    pub outcome: QueryOutcome,
    /// The query's deadline elapsed before it finished: the driver
    /// stopped it and `outcome` holds only the matches produced in
    /// time. A server answers this with a deadline frame, not results.
    pub expired: bool,
}

/// One in-flight execution inside a [`QueryDriver`].
struct DriverSlot<'a, M: LanguageModel> {
    id: QueryId,
    results: SearchResults<'a, M>,
    matches: Vec<MatchResult>,
    limit: usize,
    done: bool,
    /// Absolute wall-clock instant after which the query is expired
    /// rather than stepped (`None` = no deadline).
    deadline: Option<Instant>,
    /// The deadline fired: `done` was forced, the completion carries
    /// `expired = true`, and the slot counts as expired, not completed.
    expired: bool,
}

/// The open-world multi-query driver: the admission loop behind
/// [`Relm::run_many`] and the serving layer.
///
/// [`Relm::run_many`] executes a *closed* batch — every query is known
/// up front and the call returns when all finish. A server cannot work
/// that way: requests arrive while others are mid-flight, and a client
/// may disconnect mid-query. `QueryDriver` is the same round-robin
/// loop with the batch opened up:
///
/// * [`QueryDriver::admit`] adds a query **at any time** — including
///   between ticks while other queries are mid-traversal. The newcomer
///   simply joins the rotation.
/// * [`QueryDriver::tick`] advances every live query one bounded step
///   and returns the completion notifications for queries that
///   finished.
/// * [`QueryDriver::cancel`] drops a query mid-flight (a disconnected
///   client); its work so far is discarded, its cache warmth remains.
///
/// **Determinism:** scoring is pure and memoized, so neither what
/// other queries memoized nor the rotation order can change any
/// traversal decision — every query's matches are byte-identical (f64
/// bits included) to running it alone, *no matter when it was
/// admitted*.
/// `tests/serve.rs` enforces this for mid-flight admission explicitly.
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
/// let client = Relm::builder(model, tokenizer).build()?;
/// let mut driver = client.driver();
/// let first = driver.admit(&SearchQuery::new(QueryString::new("the cat sat")), 1)?;
/// let mut done = Vec::new();
/// while !driver.is_idle() {
///     done.extend(driver.tick());
///     // ... a server would accept new connections here and `admit`
///     // their queries mid-flight ...
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].id, first);
/// assert_eq!(done[0].outcome.matches[0].text, "the cat sat");
/// # Ok::<(), relm_core::RelmError>(())
/// ```
pub struct QueryDriver<'a, M: LanguageModel> {
    client: &'a Relm<M>,
    /// The one engine every execution admitted to this driver scores
    /// through. `Arc`, not a borrow: the executions live inside
    /// the driver too, and safe Rust cannot hold both a field and a
    /// borrow of a sibling field.
    engine: Arc<ScoringEngine<&'a M>>,
    slots: Vec<DriverSlot<'a, M>>,
    next_id: u64,
    admitted: u64,
    completed: u64,
    cancelled: u64,
}

impl<'a, M: LanguageModel> QueryDriver<'a, M> {
    fn new(client: &'a Relm<M>) -> Self {
        QueryDriver {
            client,
            engine: Arc::new(client.engine()),
            slots: Vec::new(),
            next_id: 0,
            admitted: 0,
            completed: 0,
            cancelled: 0,
        }
    }

    /// Admit a query, collecting up to `max_results` matches. The query
    /// may join **mid-flight** — between any two ticks — and its results
    /// stay byte-identical to a solo run.
    ///
    /// # Errors
    ///
    /// The same planning errors as [`Relm::plan`]; nothing is admitted
    /// on error.
    pub fn admit(&mut self, query: &SearchQuery, max_results: usize) -> Result<QueryId, RelmError> {
        let plan = self.client.plan(query)?;
        self.admit_plan(&plan, max_results)
    }

    /// Admit an already-compiled plan.
    fn admit_plan(
        &mut self,
        plan: &CompiledSearch,
        max_results: usize,
    ) -> Result<QueryId, RelmError> {
        self.admit_plan_with_deadline(plan, max_results, None)
    }

    /// Admit an already-compiled plan with an optional wall-clock
    /// deadline: if the query has not completed by `deadline`, the next
    /// tick stops it and its completion arrives with
    /// [`QueryCompletion::expired`] set (the matches found in time are
    /// still attached). An already-past deadline expires the query on
    /// the very next tick with whatever it produced — nothing,
    /// typically.
    ///
    /// # Errors
    ///
    /// The same compatibility errors as [`Relm::execute`].
    pub fn admit_plan_with_deadline(
        &mut self,
        plan: &CompiledSearch,
        max_results: usize,
        deadline: Option<Instant>,
    ) -> Result<QueryId, RelmError> {
        let results = self.client.execute_on(Arc::clone(&self.engine), plan)?;
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.admitted += 1;
        self.slots.push(DriverSlot {
            id,
            results,
            matches: Vec::new(),
            limit: max_results,
            done: max_results == 0,
            deadline,
            expired: false,
        });
        Ok(id)
    }

    /// Drop an admitted query mid-flight (its submitter went away).
    /// Returns `false` if the id already completed or was cancelled.
    /// The query's traversal state is discarded; any scores it warmed in
    /// the shared cache stay warm for everyone else.
    pub fn cancel(&mut self, id: QueryId) -> bool {
        let before = self.slots.len();
        self.slots.retain(|slot| slot.id != id);
        let removed = self.slots.len() < before;
        if removed {
            self.cancelled += 1;
        }
        removed
    }

    /// Queries admitted but not yet completed or cancelled.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Whether no admitted query remains — `tick` would be a no-op.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lifetime counters: `(admitted, completed, cancelled)`. A
    /// deadline-expired query counts as none of them.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.admitted, self.completed, self.cancelled)
    }

    /// The shared engine's scoring counters (pooled across every query
    /// this driver ran).
    pub fn scoring(&self) -> ScoringStats {
        self.engine.stats()
    }

    /// One driver rotation: expire the queries whose deadline passed,
    /// then advance every live query one bounded step, in admission
    /// order. Returns the completion notifications for queries that
    /// finished during this rotation — the callback boundary a serving
    /// loop routes back to its connections.
    ///
    /// Each execution scores its own contexts on demand, batched the way
    /// its executor batches alone (Dijkstra's prefetch, the beam's
    /// level, the sampler's episode block), through the engine every
    /// query here shares. No clock picks the schedule: the same
    /// admissions always take the same steps, so the engine's counters
    /// repeat exactly.
    pub fn tick(&mut self) -> Vec<QueryCompletion> {
        if self.slots.is_empty() {
            return Vec::new();
        }

        // Deadline expiry. One clock read per tick, and only when some
        // live slot carries a deadline — the deadline-free server pays
        // nothing. An expired slot is forced `done` before the steps, so
        // it takes no step this tick; the sweep below emits it with
        // `expired` set.
        if self
            .slots
            .iter()
            .any(|slot| !slot.done && slot.deadline.is_some())
        {
            let now = Instant::now(); // lint: allow(nondet, "deadline expiry picks which queries answer, never any score")
            for slot in self.slots.iter_mut().filter(|slot| !slot.done) {
                if slot.deadline.is_some_and(|deadline| now >= deadline) {
                    slot.done = true;
                    slot.expired = true;
                }
            }
        }

        // Round-robin stepping, in admission order.
        for slot in self.slots.iter_mut() {
            if slot.done {
                continue;
            }
            match slot.results.step() {
                StepOutcome::Match(m) => {
                    slot.matches.push(m);
                    if slot.matches.len() >= slot.limit {
                        slot.done = true;
                    }
                }
                StepOutcome::Working => {}
                StepOutcome::Done => slot.done = true,
            }
        }

        // Sweep: emit completions and free their slots. The common tick
        // completes nothing — skip the rebuild (and its allocation)
        // entirely on that path; a server ticks continuously.
        if !self.slots.iter().any(|slot| slot.done) {
            return Vec::new();
        }
        let mut completions = Vec::new();
        let mut kept = Vec::with_capacity(self.slots.len());
        for slot in self.slots.drain(..) {
            if slot.done {
                if !slot.expired {
                    self.completed += 1;
                }
                completions.push(QueryCompletion {
                    id: slot.id,
                    outcome: QueryOutcome {
                        stats: slot.results.stats(),
                        matches: slot.matches,
                    },
                    expired: slot.expired,
                });
            } else {
                kept.push(slot);
            }
        }
        self.slots = kept;
        completions
    }
}

impl<M: LanguageModel> Relm<M> {
    /// Start building a client over `model` and `tokenizer`.
    pub fn builder(model: M, tokenizer: BpeTokenizer) -> RelmBuilder<M> {
        RelmBuilder {
            model,
            tokenizer,
            config: SessionConfig::default(),
        }
    }

    /// A client with the default budgets — shorthand for
    /// `Relm::builder(model, tokenizer).build()`.
    ///
    /// # Errors
    ///
    /// The same validation as [`RelmBuilder::build`].
    pub fn new(model: M, tokenizer: BpeTokenizer) -> Result<Self, RelmError> {
        Relm::builder(model, tokenizer).build()
    }

    /// Execute a batch of heterogeneous queries through **one shared
    /// scoring engine**, stepping the executions round-robin
    /// ([`QueryDriver::tick`]) until every query finishes. Each step is
    /// one bounded unit of work (one pop / one beam level / one
    /// episode) that scores its own contexts on demand; a score one
    /// query memoized is a hit for every other query of the set.
    ///
    /// Scoring is deterministic and pure, so the interleaving cannot
    /// change any traversal decision: each query's matches come back in
    /// exactly the order (and with bit-identical scores) a sequential
    /// run would produce.
    ///
    /// # Errors
    ///
    /// If any query fails to plan, the whole set fails with the first
    /// error in submission order and nothing executes.
    pub fn run_many(&self, set: &QuerySet) -> Result<QuerySetReport, RelmError> {
        // Plan everything first: a closed batch fails atomically on the
        // first bad query, before any execution state exists.
        let plans: Vec<CompiledSearch> = set
            .specs()
            .iter()
            .map(|spec| self.plan(&spec.query))
            .collect::<Result<_, _>>()?;

        let mut driver = QueryDriver::new(self);
        let mut ids = Vec::with_capacity(plans.len());
        for (spec, plan) in set.specs().iter().zip(&plans) {
            ids.push(driver.admit_plan(plan, spec.max_results)?);
        }

        let mut by_id: HashMap<QueryId, QueryOutcome> = HashMap::with_capacity(ids.len());
        while !driver.is_idle() {
            for completion in driver.tick() {
                by_id.insert(completion.id, completion.outcome);
            }
        }
        let outcomes = ids
            .into_iter()
            .map(|id| {
                by_id
                    .remove(&id)
                    .expect("every admitted query of a closed set completes") // lint: allow(panic, "by_id holds every admitted id; the drive loop ends only when all are done")
            })
            .collect();
        Ok(QuerySetReport {
            outcomes,
            scoring: driver.scoring(),
        })
    }

    /// An open-world multi-query driver over this client — the admission
    /// loop behind the serving layer. Where [`Self::run_many`] executes
    /// a closed batch, a [`QueryDriver`] accepts queries **while others
    /// are mid-flight** ([`QueryDriver::admit`]), cancels them
    /// ([`QueryDriver::cancel`]), and reports completions from each
    /// [`QueryDriver::tick`] — all through one shared engine, with
    /// per-query results byte-identical to solo execution.
    pub fn driver(&self) -> QueryDriver<'_, M> {
        QueryDriver::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryString;
    use crate::SearchStrategy;
    use relm_bpe::TokenId;
    use relm_lm::{NGramConfig, NGramLm};

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let docs = [
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
    fn builder_validates_vocabulary_fit() {
        let (tok, lm) = fixture();
        assert!(Relm::new(lm, tok).is_ok());

        // More merges than the model was trained against: a larger
        // vocabulary, so compiled automata would emit token ids the
        // model has no distribution entry for. (An explicit merge table:
        // training on a small corpus runs out of repeated pairs.)
        let merges: Vec<(TokenId, TokenId)> = (0..200u32).map(|i| (i % 256, i / 256)).collect();
        let big_tok = BpeTokenizer::from_merges(&merges);
        let (_, lm) = fixture();
        assert!(big_tok.vocab_size() > lm.vocab_size());
        let err = Relm::new(&lm, big_tok.clone()).unwrap_err();
        assert_eq!(err.kind(), crate::RelmErrorKind::InvalidQuery);
        let err = Relm::builder(&lm, big_tok)
            .config(SessionConfig::new())
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), crate::RelmErrorKind::InvalidQuery);
    }

    #[test]
    fn client_search_memoizes_plans() {
        let (tok, lm) = fixture();
        let client = Relm::new(lm, tok).unwrap();
        let query = SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat"));
        let first: Vec<_> = client.search(&query).unwrap().take(2).collect();
        let second: Vec<_> = client.search(&query).unwrap().take(2).collect();
        assert_eq!(first, second);
        assert_eq!(client.stats().plan_hits, 1);
    }

    #[test]
    fn run_many_preserves_submission_order_and_limits() {
        let (tok, lm) = fixture();
        let client = Relm::new(lm, tok).unwrap();
        let set = QuerySet::new()
            .with_query(
                SearchQuery::new(QueryString::new("the ((cat)|(dog)) sat")),
                2,
            )
            .with_query(SearchQuery::new(QueryString::new("the cow ate")), 1)
            .with_query(
                SearchQuery::new(QueryString::new("the ((cat)|(cow)) ((sat)|(ate))"))
                    .with_strategy(SearchStrategy::Beam { width: 8 }),
                2,
            );
        let report = client.run_many(&set).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.outcomes[0].matches.len(), 2);
        assert_eq!(report.outcomes[1].matches.len(), 1);
        assert_eq!(report.outcomes[1].matches[0].text, "the cow ate");
        assert_eq!(report.outcomes[2].matches.len(), 2);
        let total: usize = report.outcomes.iter().map(|o| o.matches.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn run_many_fails_whole_set_on_bad_query() {
        let (tok, lm) = fixture();
        let client = Relm::new(lm, tok).unwrap();
        let set = QuerySet::new()
            .with_query(SearchQuery::new(QueryString::new("the cat")), 1)
            .with_query(SearchQuery::new(QueryString::new("a(")), 1);
        assert!(client.run_many(&set).is_err());
    }

    #[test]
    fn empty_set_and_zero_limits_are_fine() {
        let (tok, lm) = fixture();
        let client = Relm::new(lm, tok).unwrap();
        let report = client.run_many(&QuerySet::new()).unwrap();
        assert!(report.outcomes.is_empty());
        let set = QuerySet::new().with_query(SearchQuery::new(QueryString::new("the cat")), 0);
        let report = client.run_many(&set).unwrap();
        assert!(report.outcomes[0].matches.is_empty());
    }

    /// `(text, score bits)` — the identity currency of driver tests.
    fn bits(matches: &[MatchResult]) -> Vec<(String, u64)> {
        matches
            .iter()
            .map(|m| (m.text.clone(), m.log_prob.to_bits()))
            .collect()
    }

    #[test]
    fn driver_admits_mid_flight_with_byte_identical_results() {
        let (tok, lm) = fixture();
        let client = Relm::new(lm, tok).unwrap();
        let early = SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))"));
        let late = SearchQuery::new(QueryString::new("the cow ate the grass"))
            .with_strategy(SearchStrategy::Beam { width: 8 });
        let solo_early: Vec<_> = client.search(&early).unwrap().take(3).collect();
        let solo_late: Vec<_> = client.search(&late).unwrap().take(1).collect();

        let mut driver = client.driver();
        let early_id = driver.admit(&early, 3).unwrap();
        // Let the first query get genuinely mid-flight...
        let mut completions = Vec::new();
        for _ in 0..3 {
            completions.extend(driver.tick());
        }
        assert_eq!(driver.in_flight(), 1, "early query still live");
        // ...then admit a newcomer into the running rotation.
        let late_id = driver.admit(&late, 1).unwrap();
        while !driver.is_idle() {
            completions.extend(driver.tick());
        }
        let (admitted, completed, cancelled) = driver.counts();
        assert_eq!((admitted, completed, cancelled), (2, 2, 0));
        let by_id: HashMap<QueryId, QueryOutcome> =
            completions.into_iter().map(|c| (c.id, c.outcome)).collect();
        assert_eq!(bits(&by_id[&early_id].matches), bits(&solo_early));
        assert_eq!(bits(&by_id[&late_id].matches), bits(&solo_late));
    }

    #[test]
    fn driver_cancel_drops_a_live_query() {
        let (tok, lm) = fixture();
        let client = Relm::new(lm, tok).unwrap();
        let mut driver = client.driver();
        let slow = driver
            .admit(
                &SearchQuery::new(QueryString::new("the ((cat)|(dog)|(cow)) ((sat)|(ate))")),
                1_000,
            )
            .unwrap();
        let fast = driver
            .admit(&SearchQuery::new(QueryString::new("the cow ate")), 1)
            .unwrap();
        let _ = driver.tick();
        assert!(driver.cancel(slow), "live query cancels");
        assert!(!driver.cancel(slow), "second cancel is a no-op");
        let mut completions = Vec::new();
        while !driver.is_idle() {
            completions.extend(driver.tick());
        }
        assert_eq!(completions.len(), 1, "cancelled query never completes");
        assert_eq!(completions[0].id, fast);
        assert_eq!(driver.counts(), (2, 1, 1));
    }
}
