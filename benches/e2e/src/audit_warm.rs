//! `audit_warm` — execution-bound, closed loop, one caller.
//!
//! The paper's two-model audit with every plan already compiled: each
//! operation swaps the model (plans survive, scores do not) and runs
//! one fixed four-query set. Operations come in fours that share their
//! sampling seeds: small and XL through `run_many`, then small and XL
//! through four solo searches each, and the two ways must answer byte
//! for byte alike on either model. The executors, the scoring engine,
//! the shared cache and the n-gram forward pass do the work; the
//! compiler does none.

use std::time::Instant;

use relm_core::{QuerySet, RelmError};

use crate::exec::{digest, fold, report_session, run};
use crate::harness::{Args, Block, Layers, Measured, Traced, Workload};
use crate::stats::Rng;
use crate::trace::{Tracer, PROBE_OP};
use crate::world::{warm_set, Client, World};

/// Operations per block (a whole number of fours).
const BLOCK_OPS: u64 = 32;
const SMOKE_BLOCK_OPS: u64 = 4;

/// Where the warm-up's operations are numbered from: far from any
/// measured operation, so their seeds are not reused.
const WARM_UP_OP: u64 = 1 << 40;

pub struct AuditWarm {
    world: World,
    client: Client,
    seed: u64,
    block_ops: u64,
}

/// What `run_many` reported about its driver, summed over a block.
#[derive(Default)]
struct DriverCounts {
    ticks_run: u64,
    ticks_skipped: u64,
    cross_query_batches: u64,
    batches: u64,
    contexts: u64,
}

impl AuditWarm {
    /// The sampling seed four operations share.
    fn set_seed(&self, op: u64) -> u64 {
        Rng::lane(self.seed, 0x3a11 + op / 4).next_u64()
    }

    /// Operation `op`: swap the model (the client starts on XL), then
    /// run the set, the first two of every four through `run_many`;
    /// one digest per query.
    fn op(
        &mut self,
        op: u64,
        tracer: &mut Tracer,
        driver: &mut DriverCounts,
    ) -> Result<Vec<u64>, RelmError> {
        let model = if op.is_multiple_of(2) {
            &self.world.small
        } else {
            &self.world.xl
        }
        .clone();
        tracer.time("session.swap_model", || self.client.swap_model(model))?;
        let set = warm_set(self.set_seed(op));
        if op % 4 < 2 {
            let mut batch = QuerySet::new();
            for (query, take) in &set {
                batch.push(query.clone(), *take);
            }
            let report = tracer.time("driver.run_many", || self.client.run_many(&batch))?;
            if let Some(first) = report.outcomes.first() {
                driver.ticks_run += first.stats.coalesce_ticks;
                driver.ticks_skipped += first.stats.coalesce_ticks_skipped;
            }
            driver.cross_query_batches += report.scoring.cross_query_batches;
            driver.batches += report.scoring.batches;
            driver.contexts += report.scoring.batched_contexts;
            Ok(report
                .outcomes
                .into_iter()
                .map(|o| digest(&Ok(o.matches)))
                .collect())
        } else {
            let solo = tracer.begin("executor.solo_set");
            let digests = set
                .iter()
                .map(|(query, take)| {
                    digest(&run(
                        &self.client,
                        query,
                        *take,
                        "session.plan_warm",
                        tracer,
                    ))
                })
                .collect();
            tracer.end(solo);
            Ok(digests)
        }
    }

    /// One block of operations and the digest of its answers.
    fn block(
        &mut self,
        first_op: u64,
        tracer: &mut Tracer,
        driver: &mut DriverCounts,
    ) -> (Block, u64) {
        let started = Instant::now();
        let mut latencies_ms = Vec::new();
        let mut answers = Vec::new();
        for op in first_op..first_op + self.block_ops {
            tracer.set_op(op as u32);
            let at = Instant::now();
            answers.push(self.op(op, tracer, driver).unwrap_or_default());
            latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = started.elapsed().as_secs_f64();
        // `run_many` and solo fail together: neither is the reference.
        let differs = |a: &Vec<u64>, b: &Vec<u64>| u64::from(a.is_empty() || a != b);
        let failed = 2 * answers
            .chunks(4)
            .map(|four| differs(&four[0], &four[2]) + differs(&four[1], &four[3]))
            .sum::<u64>();
        let block = Block {
            ops: self.block_ops,
            failed,
            wall_s,
            latencies_ms,
        };
        (block, fold(answers.into_iter().flatten()))
    }

    fn plain_block(&mut self, first_op: u64) -> (Block, u64) {
        self.block(first_op, &mut Tracer::off(), &mut DriverCounts::default())
    }
}

impl Workload for AuditWarm {
    const NAME: &'static str = "audit_warm";
    const GOLDEN: &'static str = include_str!("../golden/audit_warm.txt");

    fn setup(args: &Args) -> Self {
        let world = World::build();
        let client = world.client();
        let mut state = AuditWarm {
            world,
            client,
            seed: args.seed,
            block_ops: 4,
        };
        // Four operations compile the three plans, build the samplers'
        // walk tables and leave the client on XL again.
        let (warm_up, _) = state.plain_block(WARM_UP_OP);
        assert_eq!(warm_up.failed, 0, "the warm set plans and runs");
        state.block_ops = if args.smoke {
            SMOKE_BLOCK_OPS
        } else {
            BLOCK_OPS
        };
        state
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn measure(&mut self, args: &Args) -> Measured {
        let compiled_before = self.client.stats().plan_misses;
        let mut first = None;
        let mut out = Measured::collect(args, |ops_before| {
            let (block, digest) = self.plain_block(ops_before);
            first.get_or_insert(digest);
            block
        });
        out.digest = first.unwrap_or_default();
        // Nothing may have been compiled while the clock ran.
        out.failed += self.client.stats().plan_misses - compiled_before;
        out
    }

    fn trace(&mut self, _args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
        let (plain, plain_digest) = self.plain_block(0);
        let before = self.client.stats();
        let mut driver = DriverCounts::default();
        let (traced, traced_digest) = self.block(0, tracer, &mut driver);
        let mut session = self.client.stats();
        session.plan_misses -= before.plan_misses;
        session.plan_hits -= before.plan_hits;

        // On the side: the same set admitted to a driver of the bench's
        // own, one span per tick.
        tracer.set_op(PROBE_OP);
        let mut ticking = self.client.driver();
        for (query, take) in warm_set(self.set_seed(0)) {
            ticking.admit(&query, take).expect("the warm set plans");
        }
        while !ticking.is_idle() {
            std::hint::black_box(tracer.time("driver.tick", || ticking.tick()));
        }

        layers.span_percentile(
            "session.plan_warm_us_p50",
            tracer,
            "session.plan_warm",
            50.0,
            1.0,
        );
        layers.span_percentile("driver.set_ms_p50", tracer, "driver.run_many", 50.0, 1e3);
        layers.span_percentile(
            "executor.solo_set_ms_p50",
            tracer,
            "executor.solo_set",
            50.0,
            1e3,
        );
        layers.span_percentile("driver.tick_us_p50", tracer, "driver.tick", 50.0, 1.0);
        layers.set("driver.ticks_run", driver.ticks_run as f64);
        layers.set("driver.ticks_skipped", driver.ticks_skipped as f64);
        layers.set(
            "driver.cross_query_batches",
            driver.cross_query_batches as f64,
        );
        layers.set(
            "driver.mean_batch_fill",
            driver.contexts as f64 / driver.batches.max(1) as f64,
        );
        tracer.exec.report(layers);
        report_session(&session, layers);

        Traced {
            attempted: self.block_ops,
            failed: plain.failed
                + traced.failed
                + u64::from(plain_digest != traced_digest)
                + session.plan_misses,
            digest: plain_digest,
            plain_wall_s: plain.wall_s,
            traced_wall_s: traced.wall_s,
        }
    }
}
