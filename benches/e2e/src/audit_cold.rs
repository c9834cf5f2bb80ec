//! `audit_cold` — compile-bound, closed loop, one caller.
//!
//! A fresh client answers a battery of distinct paper queries with
//! `search(..).take(1)`. Every query is a plan-memo miss, so regex
//! parsing, the automata kernels and the token compiler do nearly all
//! the work and the model nearly none. A block is one pass over the
//! battery on a client of its own.

use std::time::Instant;

use relm_automata::{Dfa, Nfa, Parallelism, WalkTable};
use relm_core::compiler::{compile_canonical_with, compile_full_with, CanonicalLimits};
use relm_core::{SearchQuery, SearchStrategy, SessionStats, TokenizationStrategy};
use relm_lm::LanguageModel;
use relm_regex::{compile_ast, parse, Regex};

use crate::exec::{digest, fold, report_session, run, search, Answer};
use crate::harness::{Args, Block, Layers, Measured, Traced, Workload};
use crate::trace::{Tracer, PROBE_OP};
use crate::world::{cold_battery, ColdQuery, Sizes, World};

pub struct AuditCold {
    world: World,
    battery: Vec<ColdQuery>,
}

/// One pass over the battery on a fresh client.
struct Pass {
    answers: Vec<Answer>,
    latencies_ms: Vec<f64>,
    wall_s: f64,
    /// The client's counters when its last query was answered.
    session: SessionStats,
}

impl AuditCold {
    /// Answer the battery on a fresh client. Under a live tracer each
    /// operation first walks the compile stages itself, one span per
    /// stage, and then lets the client plan and execute the same query
    /// under spans of their own.
    fn pass(&self, tracer: &mut Tracer, sums: &mut Sums) -> Pass {
        let client = self.world.client();
        let started = Instant::now();
        let mut answers = Vec::with_capacity(self.battery.len());
        let mut latencies_ms = Vec::with_capacity(self.battery.len());
        for (i, q) in self.battery.iter().enumerate() {
            tracer.set_op(i as u32);
            let op = Instant::now();
            if tracer.is_on() {
                walk_stages(&q.query, &self.world, tracer, sums);
            }
            answers.push(run(&client, &q.query, 1, "session.plan_cold", tracer));
            latencies_ms.push(op.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = started.elapsed().as_secs_f64();
        let session = client.stats();
        // On the side: every plan again, now from the memo.
        tracer.set_op(PROBE_OP);
        for q in &self.battery {
            let _ = tracer.time("session.plan_warm", || client.plan(&q.query));
        }
        Pass {
            answers,
            latencies_ms,
            wall_s,
            session,
        }
    }

    /// Failed operations of a pass: queries the client did not compile
    /// afresh, and matches of unedited queries outside the query's own
    /// language — by the regex crate's matcher, not the executor's
    /// automaton.
    fn failures(&self, pass: &Pass) -> u64 {
        let mut bad =
            pass.session.plan_hits + (self.battery.len() as u64).abs_diff(pass.session.plan_misses);
        for (q, answer) in self.battery.iter().zip(&pass.answers) {
            let Ok(matches) = answer else {
                bad += 1;
                continue;
            };
            if q.edited || matches.is_empty() {
                continue;
            }
            let language =
                Regex::compile(&q.query.query_string.pattern).expect("battery patterns parse");
            if matches.iter().any(|m| !language.is_match(&m.text)) {
                bad += 1;
            }
        }
        bad
    }
}

impl Workload for AuditCold {
    const NAME: &'static str = "audit_cold";
    const GOLDEN: &'static str = include_str!("../golden/audit_cold.txt");

    fn setup(args: &Args) -> Self {
        let world = World::build();
        let battery = cold_battery(&world, args.seed, Sizes::of(args.smoke));
        // Start the process-wide worker pool and touch every code path
        // once, on a client that is then dropped.
        let client = world.client();
        for q in battery.iter().filter(|q| !q.edited).take(4) {
            let _ = search(&client, &q.query, 1);
        }
        AuditCold { world, battery }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn measure(&mut self, args: &Args) -> Measured {
        let n = self.battery.len() as u64;
        let mut first: Option<Vec<u64>> = None;
        let mut out = Measured::collect(args, |_| {
            let pass = self.pass(&mut Tracer::off(), &mut Sums::default());
            let digests: Vec<u64> = pass.answers.iter().map(digest).collect();
            // Every pass asks the same questions of a fresh client.
            let first = first.get_or_insert_with(|| digests.clone());
            let differing = first.iter().zip(&digests).filter(|(a, b)| a != b).count() as u64;
            Block {
                ops: n,
                failed: (self.failures(&pass) + differing).min(n),
                wall_s: pass.wall_s,
                latencies_ms: pass.latencies_ms,
            }
        });
        out.digest = fold(first.unwrap_or_default());
        out
    }

    fn trace(&mut self, _args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
        let plain = self.pass(&mut Tracer::off(), &mut Sums::default());
        let mut sums = Sums::default();
        let traced = self.pass(tracer, &mut sums);
        let digests = |pass: &Pass| pass.answers.iter().map(digest).collect::<Vec<u64>>();
        let differing = digests(&plain)
            .iter()
            .zip(digests(&traced))
            .filter(|(a, b)| *a != b)
            .count() as u64;

        layers.span_percentile("regex.parse_us_p50", tracer, "regex.parse", 50.0, 1.0);
        layers.set("regex.nfa_states_sum", sums.nfa_states as f64);
        layers.span_percentile(
            "automata.determinize_ms_p50",
            tracer,
            "automata.determinize",
            50.0,
            1e3,
        );
        layers.span_percentile(
            "automata.determinize_ms_p95",
            tracer,
            "automata.determinize",
            95.0,
            1e3,
        );
        layers.span_percentile(
            "automata.minimize_ms_p50",
            tracer,
            "automata.minimize",
            50.0,
            1e3,
        );
        layers.span_percentile(
            "automata.quotient_ms_p50",
            tracer,
            "automata.quotient",
            50.0,
            1e3,
        );
        layers.span_percentile(
            "automata.levenshtein_ms_p50",
            tracer,
            "automata.levenshtein",
            50.0,
            1e3,
        );
        layers.span_percentile(
            "automata.walk_table_ms_p50",
            tracer,
            "automata.walk_table",
            50.0,
            1e3,
        );
        layers.set("automata.dfa_states_sum", sums.dfa_states as f64);
        layers.set("automata.dfa_bytes_sum", sums.dfa_bytes as f64);
        layers.span_percentile(
            "compiler.token_lower_ms_p50",
            tracer,
            "compiler.token_lower",
            50.0,
            1e3,
        );
        layers.span_percentile(
            "compiler.token_lower_ms_p95",
            tracer,
            "compiler.token_lower",
            95.0,
            1e3,
        );
        layers.set("compiler.token_states_sum", sums.token_states as f64);
        layers.set("compiler.token_edges_sum", sums.token_edges as f64);
        layers.set("compiler.token_bytes_sum", sums.token_bytes as f64);
        layers.span_percentile(
            "session.plan_cold_ms_p50",
            tracer,
            "session.plan_cold",
            50.0,
            1e3,
        );
        layers.span_percentile(
            "session.plan_warm_us_p50",
            tracer,
            "session.plan_warm",
            50.0,
            1.0,
        );
        // What `Relm::plan` spends outside the stages it calls: one
        // minus the stages' time (as walked by the bench; the walk
        // table is built at execution, not by `plan`) over the cold
        // plans' time.
        let stages = tracer.self_nanos(|n| {
            n != "automata.walk_table"
                && ["regex.", "automata.", "compiler."]
                    .iter()
                    .any(|p| n.starts_with(p))
        });
        let plans = tracer.self_nanos(|n| n == "session.plan_cold");
        layers.set(
            "session.plan_glue_share",
            1.0 - stages as f64 / plans as f64,
        );
        tracer.exec.report(layers);
        report_session(&traced.session, layers);

        Traced {
            attempted: self.battery.len() as u64,
            failed: self.failures(&plain) + self.failures(&traced) + differing,
            digest: fold(digests(&plain)),
            plain_wall_s: plain.wall_s,
            traced_wall_s: traced.wall_s,
        }
    }
}

/// Sizes of the intermediate automata, summed over the battery.
#[derive(Default)]
struct Sums {
    nfa_states: usize,
    dfa_states: usize,
    dfa_bytes: usize,
    token_states: usize,
    token_edges: usize,
    token_bytes: usize,
}

/// Compile `query` stage by stage through the public function of each
/// layer, in the order the session's compiler calls them, one span per
/// call.
fn walk_stages(query: &SearchQuery, world: &World, tracer: &mut Tracer, sums: &mut Sums) {
    let par = Parallelism::auto();
    let mut to_nfa = |pattern: &str, tracer: &mut Tracer| -> Nfa {
        let ast = tracer
            .time("regex.parse", || parse(pattern))
            .expect("battery patterns parse");
        let nfa = tracer.time("regex.compile_ast", || compile_ast(&ast));
        sums.nfa_states += nfa.state_count();
        nfa
    };
    let mut full = to_nfa(&query.query_string.pattern, tracer);
    let mut prefix = query
        .query_string
        .prefix
        .as_ref()
        .map(|p| to_nfa(p, tracer));
    for pre in query
        .preprocessors
        .iter()
        .filter(|p| p.deferred_language().is_none())
    {
        full = tracer.time("automata.levenshtein", || pre.apply(&full));
        prefix = prefix.map(|p| tracer.time("automata.levenshtein", || pre.apply(&p)));
    }
    let to_dfa = |nfa: &Nfa, tracer: &mut Tracer| -> Dfa {
        let dfa = tracer.time("automata.determinize", || nfa.determinize_with(par));
        tracer.time("automata.minimize", || dfa.minimize())
    };
    let full = to_dfa(&full, tracer);
    let prefix = prefix.map(|p| to_dfa(&p, tracer));
    let body = match &prefix {
        None => full,
        Some(prefix) => {
            let quotient =
                tracer.time("automata.quotient", || full.left_quotient_with(prefix, par));
            tracer.time("automata.minimize", || quotient.minimize())
        }
    };
    let mut lower = |dfa: &Dfa, tracer: &mut Tracer| -> Dfa {
        sums.dfa_states += dfa.state_count();
        sums.dfa_bytes += dfa.estimated_bytes();
        let tokens = tracer.time("compiler.token_lower", || match query.tokenization {
            TokenizationStrategy::All => compile_full_with(dfa, &world.tokenizer, par),
            TokenizationStrategy::Canonical => {
                compile_canonical_with(dfa, &world.tokenizer, CanonicalLimits::default(), par)
                    .automaton
            }
        });
        sums.token_states += tokens.state_count();
        sums.token_edges += tokens.transition_count();
        sums.token_bytes += tokens.estimated_bytes();
        tokens
    };
    std::hint::black_box(lower(&body, tracer));
    if let Some(prefix) = &prefix {
        let prefix_tokens = lower(prefix, tracer);
        if matches!(query.strategy, SearchStrategy::RandomSampling { .. }) {
            let budget = world.xl.max_sequence_len();
            let max_tokens = query.max_tokens.map_or(budget, |m| m.min(budget));
            std::hint::black_box(tracer.time("automata.walk_table", || {
                WalkTable::new(&prefix_tokens, max_tokens)
            }));
        }
    }
}
