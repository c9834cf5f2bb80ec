//! What every workload shares: arguments, the metric tables, the
//! set-up / measure / trace protocol and the printed result.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use relm_serve::protocol::Json;

use crate::stats::{median, percentile, sorted, supported_percentile};
use crate::trace::Tracer;
use crate::world::World;

pub const WORKLOADS: [&str; 4] = ["audit_cold", "audit_warm", "store_restart", "serve_mixed"];

/// The seed the committed golden digests belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run, of which `setup_s` is the median: at
/// least the first number, and more while they are so cheap that they
/// have not added up to [`SETUP_BUDGET_S`], up to the second.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_BUDGET_S: f64 = 2.0;

/// `(name, unit)` of the end-to-end metrics, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_qps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, as in `BENCHMARK.json`.
/// Unit `count` repeats exactly for a fixed seed; `count_timed` depends
/// on timing (adaptive ticks, reactor parks) and does not.
/// A traced run prints all of them; one whose layer the workload never
/// enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("regex.parse_us_p50", "us"),
    ("regex.nfa_states_sum", "count"),
    ("automata.determinize_ms_p50", "ms"),
    ("automata.determinize_ms_p95", "ms"),
    ("automata.minimize_ms_p50", "ms"),
    ("automata.quotient_ms_p50", "ms"),
    ("automata.levenshtein_ms_p50", "ms"),
    ("automata.walk_table_ms_p50", "ms"),
    ("automata.dfa_states_sum", "count"),
    ("automata.dfa_bytes_sum", "bytes"),
    ("compiler.token_lower_ms_p50", "ms"),
    ("compiler.token_lower_ms_p95", "ms"),
    ("compiler.token_states_sum", "count"),
    ("compiler.token_edges_sum", "count"),
    ("compiler.token_bytes_sum", "bytes"),
    ("tokenizer.train_s", "s"),
    ("tokenizer.encode_us_p50", "us"),
    ("tokenizer.vocab_size", "count"),
    ("session.plan_cold_ms_p50", "ms"),
    ("session.plan_warm_us_p50", "us"),
    ("session.plan_glue_share", "share"),
    ("session.plan_misses", "count"),
    ("session.plan_hits", "count"),
    ("session.plan_bytes", "bytes"),
    ("session.plan_evictions", "count"),
    ("executor.shortest_us_per_match", "us"),
    ("executor.beam_us_per_match", "us"),
    ("executor.sampling_us_per_match", "us"),
    ("executor.expansions", "count"),
    ("executor.lm_calls", "count"),
    ("executor.dead_ends", "count"),
    ("executor.emitted", "count"),
    ("executor.emit_per_expansion", "share"),
    ("executor.solo_set_ms_p50", "ms"),
    ("driver.set_ms_p50", "ms"),
    ("driver.tick_us_p50", "us"),
    ("driver.ticks_run", "count_timed"),
    ("driver.ticks_skipped", "count_timed"),
    ("driver.mean_batch_fill", "ctx/batch"),
    ("driver.cross_query_batches", "count_timed"),
    ("engine.miss_us_per_ctx", "us"),
    ("engine.hit_us_per_ctx", "us"),
    ("engine.hit_share", "share"),
    ("engine.batches", "count"),
    ("engine.mean_batch_size", "ctx/batch"),
    ("engine.speculative_scored", "count"),
    ("engine.speculation_hit_share", "share"),
    ("cache.bytes", "bytes"),
    ("cache.entries", "count"),
    ("cache.evictions", "count"),
    ("model.forward_us_per_ctx", "us"),
    ("model.train_s", "s"),
    ("store.decode_us_per_plan", "us"),
    ("store.encode_us_per_plan", "us"),
    ("store.load_plan_us_p50", "us"),
    ("store.save_plan_us_p50", "us"),
    ("store.preload_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.cache_load_ms", "ms"),
    ("store.cache_save_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_on_disk", "bytes"),
    ("store.bytes_written", "bytes"),
    ("protocol.request_encode_ns", "ns"),
    ("protocol.request_decode_ns", "ns"),
    ("protocol.response_encode_ns", "ns"),
    ("protocol.response_decode_ns", "ns"),
    ("protocol.frame_ns", "ns"),
    ("protocol.response_bytes_mean", "bytes"),
    ("server.stats_roundtrip_us_p50", "us"),
    ("server.light_roundtrip_us_p50", "us"),
    ("server.overhead_ms_p50", "ms"),
    ("server.admitted", "count"),
    ("server.completed", "count"),
    ("server.busy_rejections", "count"),
    ("server.expired", "count"),
    ("server.parks", "count_timed"),
    ("server.ticks_run", "count_timed"),
    ("server.mean_batch_fill", "ctx/batch"),
    ("server.cross_query_batches", "count_timed"),
    ("serve.open_ms_p99", "ms"),
    ("serve.open_ms_p999", "ms"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("serve.rate_low_ms_p50", "ms"),
    ("serve.rate_low_ms_p95", "ms"),
    ("serve.rate_high_ms_p50", "ms"),
    ("serve.rate_high_ms_p95", "ms"),
    ("serve.rate_ok_max", "1/s"),
    ("serve.closed_qps", "1/s"),
    ("pool.dispatch_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
    ("trace.compile_span_share", "share"),
    ("trace.executor_span_share", "share"),
    ("trace.store_span_share", "share"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// Length of the measured phase of an untraced run. The phase ends
    /// at the first block boundary past it, so that only whole blocks
    /// of operations are counted.
    pub seconds: f64,
    pub trace: bool,
    /// Shrunk sizes and one fixed block: a CI check, not a measurement.
    pub smoke: bool,
}

impl Args {
    /// Whether the measured phase runs a fixed number of blocks
    /// instead of a time budget: traced and smoke runs, whose counts
    /// must repeat exactly.
    pub fn fixed_blocks(&self) -> bool {
        self.trace || self.smoke
    }
}

/// Directory for the files a run leaves behind (trace files, store
/// directories): `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One block of operations of the measured phase.
#[derive(Default)]
pub struct Block {
    pub ops: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// What the measured phase of an untraced run produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Verified operations per second, one value per block of
    /// operations; the reported throughput is their 90th percentile.
    pub block_rates: Vec<f64>,
    /// Operation latencies, one list per block.
    pub block_latencies_ms: Vec<Vec<f64>>,
    /// Digest of the answers every run of this seed gives, however
    /// long it runs.
    pub digest: u64,
}

impl Measured {
    /// Run `block` (told how many operations went before it) until the
    /// budget is spent, or once in a fixed-size run.
    pub fn collect(args: &Args, mut block: impl FnMut(u64) -> Block) -> Measured {
        let started = Instant::now();
        let mut out = Measured::default();
        loop {
            let block = block(out.attempted);
            out.attempted += block.ops;
            out.failed += block.failed;
            out.block_rates
                .push(block.ops.saturating_sub(block.failed) as f64 / block.wall_s);
            out.block_latencies_ms.push(block.latencies_ms);
            if args.fixed_blocks() || started.elapsed().as_secs_f64() >= args.seconds {
                return out;
            }
        }
    }
}

/// What a traced run produced besides its spans and layer values.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Wall time of the operations replayed without spans, and of the
    /// same operations replayed with them.
    pub plain_wall_s: f64,
    pub traced_wall_s: f64,
}

/// The per-layer values of a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(known, _)| *known == name),
            "{name} is not in PER_LAYER"
        );
        self.0.insert(name, value);
    }

    /// Percentile `p` of the durations of the spans called `span`, in
    /// microseconds divided by `per` (1e3 gives milliseconds); 0 when
    /// the workload recorded no such span.
    pub fn span_percentile(
        &mut self,
        name: &'static str,
        tracer: &Tracer,
        span: &str,
        p: f64,
        per: f64,
    ) {
        self.set(name, percentile(&sorted(tracer.micros(span)), p) / per);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// `full <hex>` and `smoke <hex>` lines: the digests of
    /// [`DEFAULT_SEED`].
    const GOLDEN: &'static str;

    /// Everything before the first measured operation.
    fn setup(args: &Args) -> Self;
    fn world(&self) -> &World;
    fn measure(&mut self, args: &Args) -> Measured;
    fn trace(&mut self, args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Traced;
}

fn golden_of(file: &str, smoke: bool) -> Option<u64> {
    let want = if smoke { "smoke" } else { "full" };
    file.lines().find_map(|line| {
        let (tag, hex) = line.split_once(' ')?;
        (tag == want).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload in this process and print its result. Returns
/// whether every output check passed.
pub fn drive<W: Workload>(args: &Args) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("workload {} seed {} host.cores {cores}", W::NAME, args.seed);

    let (attempted, failed, digest, metrics) = if args.trace {
        let mut state = W::setup(args);
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let traced = state.trace(args, &mut tracer, &mut layers);
        let world = state.world();
        layers.set("tokenizer.train_s", world.tokenizer_train_s);
        layers.set("tokenizer.vocab_size", world.tokenizer.vocab_size() as f64);
        layers.set("model.train_s", world.model_train_s);
        let spans_s = |pick: fn(&str) -> bool| tracer.self_nanos(pick) as f64 / 1e9;
        let wall = traced.traced_wall_s;
        layers.set(
            "trace.coverage_share",
            tracer.top_level_nanos() as f64 / 1e9 / wall,
        );
        layers.set("trace.overhead_share", wall / traced.plain_wall_s - 1.0);
        layers.set(
            "trace.compile_span_share",
            spans_s(|n| {
                ["regex.", "automata.", "compiler.", "session.plan_cold"]
                    .iter()
                    .any(|p| n.starts_with(p))
            }) / wall,
        );
        layers.set(
            "trace.executor_span_share",
            spans_s(|n| n.starts_with("executor.") || n.starts_with("driver.")) / wall,
        );
        layers.set(
            "trace.store_span_share",
            spans_s(|n| n.starts_with("store.")) / wall,
        );
        crate::probes::run(world, &mut layers);

        let path = out_dir().join(format!("trace-{}.json", W::NAME));
        match tracer.write_json(&path, W::NAME, args.seed) {
            Ok(()) => println!("trace {} spans -> {}", tracer.spans().len(), path.display()),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit, None))
            .collect();
        (traced.attempted, traced.failed, traced.digest, metrics)
    } else {
        let mut setups: Vec<f64> = Vec::new();
        let mut state = None;
        while setups.len() < SETUP_REPS.0
            || (setups.len() < SETUP_REPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            drop(state.take());
            let started = Instant::now();
            state = Some(W::setup(args));
            setups.push(started.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up ran");
        let measured = state.measure(args);
        drop(state);
        // Every timing is taken per block and the best decile over
        // blocks reported. The host this was built on runs a third
        // slower for half a minute at a time, whatever the program does:
        // a median over blocks, let alone a pooled percentile, reports
        // which spell the run met; the best decile reports the program.
        let n: usize = measured.block_latencies_ms.iter().map(Vec::len).sum();
        let per_block = |p: f64| -> Vec<f64> {
            measured
                .block_latencies_ms
                .iter()
                .filter(|block| !block.is_empty())
                .map(|block| percentile(&sorted(block.clone()), p))
                .collect()
        };
        let (p50s, p95s) = (per_block(50.0), per_block(95.0));
        println!("blocks throughput_qps {:.4?}", measured.block_rates);
        println!("blocks latency_ms_p50 {p50s:.4?}");
        println!("blocks latency_ms_p95 {p95s:.4?}");
        if supported_percentile(n) < 95.0 {
            println!(
                "note: {n} latency samples support p{} at most",
                supported_percentile(n)
            );
        }
        let decile = |values: &[f64], p: f64| percentile(&sorted(values.to_vec()), p);
        let values = [
            (
                decile(&measured.block_rates, 90.0),
                Some(measured.block_rates.len()),
            ),
            (decile(&p50s, 10.0), Some(n)),
            (decile(&p95s, 10.0), Some(n)),
            (median(&setups), Some(setups.len())),
            (peak_rss_mb(), None),
        ];
        let metrics: Vec<_> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, n))| (name, value, unit, n))
            .collect();
        (
            measured.attempted,
            measured.failed,
            measured.digest,
            metrics,
        )
    };

    let mut correct = failed == 0 && attempted > 0;
    println!("digest {digest:016x}");
    if args.seed == DEFAULT_SEED {
        match golden_of(W::GOLDEN, args.smoke) {
            Some(golden) if golden == digest => {}
            golden => {
                eprintln!("digest {digest:016x} differs from the committed golden {golden:016x?}");
                correct = false;
            }
        }
    }
    for (name, value, unit, n) in &metrics {
        match n {
            Some(n) => println!("{name} {value} {unit} n={n}"),
            None => println!("{name} {value} {unit}"),
        }
    }
    println!(
        "failed_share {} share",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit, _)| {
            let value = if value.is_finite() { value } else { 0.0 };
            let fields = vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ];
            (name.to_string(), Json::Obj(fields))
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        let text = include_str!("../../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(*name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn golden_files_carry_both_digests() {
        assert_eq!(golden_of("full 00ff\nsmoke 10\n", false), Some(0xff));
        assert_eq!(golden_of("full 00ff\nsmoke 10\n", true), Some(0x10));
        assert_eq!(golden_of("full zz\n", false), None);
    }
}
