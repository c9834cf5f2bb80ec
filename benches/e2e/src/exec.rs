//! Running one query through a client, plain or under spans, and the
//! counters a traced run reads back at that boundary.

use relm_core::{
    ExecutionStats, MatchResult, RelmError, SearchQuery, SearchStrategy, SessionStats,
};

use crate::harness::Layers;
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::world::Client;

pub type Answer = Result<Vec<MatchResult>, RelmError>;

/// `client.search(query).take(take)`, collected.
pub fn search(client: &Client, query: &SearchQuery, take: usize) -> Answer {
    Ok(client.search(query)?.take(take).collect())
}

/// [`search`], which a traced run splits at the session boundary into
/// `plan` (under a span called `plan_span`) and `execute`.
pub fn run(
    client: &Client,
    query: &SearchQuery,
    take: usize,
    plan_span: &'static str,
    tracer: &mut Tracer,
) -> Answer {
    if !tracer.is_on() {
        return search(client, query, take);
    }
    let plan = tracer.time(plan_span, || client.plan(query))?;
    let which = strategy_index(plan.strategy());
    let span = tracer.begin(EXECUTOR_SPANS[which]);
    let outcome = client.execute(&plan).map(|mut results| {
        let matches: Vec<MatchResult> = results.by_ref().take(take).collect();
        (matches, results.stats())
    });
    tracer.end(span);
    let (matches, stats) = outcome?;
    tracer.exec.nanos[which] += tracer.spans()[span as usize].nanos();
    tracer.exec.matches[which] += matches.len() as u64;
    tracer.exec.stats.push(stats);
    Ok(matches)
}

/// Digest of one answer; an error digests as its message, so that a
/// failure never compares equal to a result.
pub fn digest(answer: &Answer) -> u64 {
    let mut d = Fnv::new();
    match answer {
        Ok(matches) => d.answer(
            matches
                .iter()
                .map(|m| (m.text.as_str(), m.log_prob.to_bits())),
        ),
        Err(err) => d.bytes(err.to_string().as_bytes()),
    }
    d.0
}

/// Fold per-operation digests, in order, into one.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Fnv::new();
    for one in digests {
        d.u64(one);
    }
    d.0
}

fn strategy_index(strategy: SearchStrategy) -> usize {
    match strategy {
        SearchStrategy::ShortestPath => 0,
        SearchStrategy::Beam { .. } => 1,
        SearchStrategy::RandomSampling { .. } => 2,
    }
}

const EXECUTOR_SPANS: [&str; 3] = ["executor.shortest", "executor.beam", "executor.sampling"];

/// Executor and engine counters summed over the traced queries, read by
/// [`run`] from each query's `ExecutionStats` when its last match is out.
#[derive(Default)]
pub struct ExecTotals {
    nanos: [u64; 3],
    matches: [u64; 3],
    stats: Vec<ExecutionStats>,
}

impl ExecTotals {
    pub fn report(&self, layers: &mut Layers) {
        let per_match = |which: usize| {
            if self.matches[which] == 0 {
                0.0
            } else {
                self.nanos[which] as f64 / 1e3 / self.matches[which] as f64
            }
        };
        layers.set("executor.shortest_us_per_match", per_match(0));
        layers.set("executor.beam_us_per_match", per_match(1));
        layers.set("executor.sampling_us_per_match", per_match(2));
        let sum =
            |field: fn(&ExecutionStats) -> u64| self.stats.iter().map(field).sum::<u64>() as f64;
        let share = |part: f64, whole: f64| if whole == 0.0 { 0.0 } else { part / whole };
        let (expansions, emitted) = (sum(|s| s.expansions), sum(|s| s.emitted));
        layers.set("executor.expansions", expansions);
        layers.set("executor.lm_calls", sum(|s| s.lm_calls));
        layers.set("executor.dead_ends", sum(|s| s.dead_ends));
        layers.set("executor.emitted", emitted);
        layers.set("executor.emit_per_expansion", share(emitted, expansions));
        let (hits, misses) = (sum(|s| s.cache_hits), sum(|s| s.cache_misses));
        layers.set("engine.hit_share", share(hits, hits + misses));
        layers.set("engine.batches", sum(|s| s.batches));
        layers.set(
            "engine.mean_batch_size",
            share(sum(|s| s.batched_contexts), sum(|s| s.batches)),
        );
        let speculated = sum(|s| s.speculative_scored);
        layers.set("engine.speculative_scored", speculated);
        layers.set(
            "engine.speculation_hit_share",
            share(sum(|s| s.speculation_hits), speculated),
        );
    }
}

/// The session's plan-memo, store and cache counters.
pub fn report_session(stats: &SessionStats, layers: &mut Layers) {
    layers.set("session.plan_misses", stats.plan_misses as f64);
    layers.set("session.plan_hits", stats.plan_hits as f64);
    layers.set("session.plan_bytes", stats.plan_bytes as f64);
    layers.set("session.plan_evictions", stats.plan_evictions as f64);
    layers.set("store.hits", stats.store_hits as f64);
    layers.set("store.misses", stats.store_misses as f64);
    layers.set("store.bytes_written", stats.store_bytes_written as f64);
    layers.set("cache.bytes", stats.scoring.bytes as f64);
    layers.set("cache.entries", stats.scoring.entries as f64);
    layers.set("cache.evictions", stats.scoring.evictions as f64);
}
