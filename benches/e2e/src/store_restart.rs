//! `store_restart` — the plan-acquisition layer used the other way:
//! reads beside writes.
//!
//! Set-up compiles the cold battery into a store and snapshots the
//! scoring cache. Operations then alternate `restore` (a fresh client
//! over that directory preloads every plan, loads the snapshot and
//! takes the first match of a sample of the battery's unedited queries)
//! and `persist`
//! (the warm client rewrites its emptied directory). Decoding, encoding
//! and file IO do the work; nothing is compiled. Every restore reads
//! what the persist before it wrote, so a persist that writes wrong
//! bytes fails the next restore's comparison with the compiled answers.

use std::path::PathBuf;
use std::time::Instant;

use relm_core::{RelmError, SessionStats};
use relm_store::{PlanArtifact, PlanStore, StoreError};

use crate::exec::{digest, fold, report_session, run, search};
use crate::harness::{out_dir, Args, Block, Layers, Measured, Traced, Workload};
use crate::stats::Rng;
use crate::trace::{Tracer, PROBE_OP};
use crate::world::{cold_battery, Client, ColdQuery, Sizes, World};

/// Restore/persist pairs per block.
const BLOCK_PAIRS: u64 = 32;
const SMOKE_BLOCK_PAIRS: u64 = 1;

pub struct StoreRestart {
    world: World,
    dir: PathBuf,
    warm: Client,
    battery: Vec<ColdQuery>,
    /// Indices into `battery` of the queries a restore answers.
    sample: Vec<usize>,
    /// What the compiling client answered on the sample.
    compiled: u64,
    plans: usize,
    persisted_bytes: u64,
    block_pairs: u64,
}

impl Drop for StoreRestart {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl StoreRestart {
    /// A process restart: everything a new process does up to its
    /// first answers. Returns whether those answers are the compiled
    /// ones with every plan taken from the store, and the new client's
    /// counters.
    fn restore(&self, tracer: &mut Tracer) -> Result<(bool, SessionStats), RelmError> {
        let fresh = self.world.client_with_store(&self.dir);
        let plans = tracer.time("store.preload", || fresh.preload_plans())?;
        let scores = tracer.time("store.cache_load", || fresh.load_scoring_cache())?;
        let answers = fold(self.sample.iter().map(|&i| {
            digest(&run(
                &fresh,
                &self.battery[i].query,
                1,
                "session.plan_warm",
                tracer,
            ))
        }));
        let stats = fresh.stats();
        let ok = answers == self.compiled
            && plans == self.plans
            && scores > 0
            && stats.plan_misses == 0
            && stats.store_hits == self.plans as u64;
        Ok((ok, stats))
    }

    /// Empty the directory, then write every memoized plan and the
    /// scoring snapshot back. Returns whether the bytes written are the
    /// bytes set-up wrote.
    fn persist(&self, tracer: &mut Tracer) -> Result<bool, RelmError> {
        tracer
            .time("store.clear", || -> Result<(), StoreError> {
                let store = PlanStore::open(&self.dir)?;
                for file in store.plan_files()? {
                    std::fs::remove_file(file)?;
                }
                Ok(std::fs::remove_file(store.cache_path())?)
            })
            .map_err(|err| RelmError::Store(err.to_string()))?;
        let plans = tracer.time("store.persist", || self.warm.persist_plans())?;
        let cache = tracer.time("store.cache_save", || self.warm.save_scoring_cache())?;
        Ok(plans + cache == self.persisted_bytes)
    }

    /// One block of restore/persist pairs (its latencies are the
    /// restores'), and the counters of the last restored client.
    fn block(&self, tracer: &mut Tracer) -> (Block, Option<SessionStats>) {
        let started = Instant::now();
        let mut out = Block {
            ops: 2 * self.block_pairs,
            ..Block::default()
        };
        let mut last_restore = None;
        for pair in 0..self.block_pairs {
            tracer.set_op(2 * pair as u32);
            let at = Instant::now();
            match self.restore(tracer) {
                Ok((ok, stats)) => {
                    out.failed += u64::from(!ok);
                    last_restore = Some(stats);
                }
                Err(_) => out.failed += 1,
            }
            out.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
            tracer.set_op(2 * pair as u32 + 1);
            out.failed += u64::from(!self.persist(tracer).unwrap_or(false));
        }
        out.wall_s = started.elapsed().as_secs_f64();
        (out, last_restore)
    }

    fn digest(&self) -> u64 {
        fold([self.compiled, self.plans as u64])
    }
}

impl Workload for StoreRestart {
    const NAME: &'static str = "store_restart";
    const GOLDEN: &'static str = include_str!("../golden/store_restart.txt");

    fn setup(args: &Args) -> Self {
        let world = World::build();
        let sizes = Sizes::of(args.smoke);
        let battery = cold_battery(&world, args.seed, sizes);
        let dir = out_dir().join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = world.client_with_store(&dir);
        for q in &battery {
            warm.plan(&q.query).expect("battery queries compile");
        }
        // A restore answers unedited queries only: an edited one can
        // search to its expansion cap and fill the scoring cache, and
        // then the size of the snapshot, not the store, sets the time.
        let mut sample: Vec<usize> = (0..battery.len()).filter(|&i| !battery[i].edited).collect();
        Rng::lane(args.seed, 4).shuffle(&mut sample);
        sample.truncate(sizes.restore_sample);
        let compiled = fold(
            sample
                .iter()
                .map(|&i| digest(&search(&warm, &battery[i].query, 1))),
        );
        let persisted_bytes = warm.persist_plans().expect("store directory is writable")
            + warm
                .save_scoring_cache()
                .expect("store directory is writable");
        let plans = warm.stats().plan_entries;
        StoreRestart {
            world,
            dir,
            warm,
            battery,
            sample,
            compiled,
            plans,
            persisted_bytes,
            block_pairs: if args.smoke {
                SMOKE_BLOCK_PAIRS
            } else {
                BLOCK_PAIRS
            },
        }
    }

    fn world(&self) -> &World {
        &self.world
    }

    fn measure(&mut self, args: &Args) -> Measured {
        let mut out = Measured::collect(args, |_| self.block(&mut Tracer::off()).0);
        out.digest = self.digest();
        out
    }

    fn trace(&mut self, _args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
        let (plain, _) = self.block(&mut Tracer::off());
        let (traced, last_restore) = self.block(tracer);

        // On the side: the codec and the file layer, one plan at a time.
        tracer.set_op(PROBE_OP);
        let store = PlanStore::open(&self.dir).expect("store directory exists");
        let files = store.plan_files().expect("store directory lists");
        let mut bytes_on_disk = std::fs::metadata(store.cache_path()).map_or(0, |m| m.len());
        for file in &files {
            let bytes = std::fs::read(file).expect("plan file reads");
            bytes_on_disk += bytes.len() as u64;
            let artifact = tracer
                .time("store.decode", || PlanArtifact::from_bytes(&bytes))
                .expect("a plan this run wrote decodes");
            std::hint::black_box(tracer.time("store.encode", || artifact.to_bytes()));
            let _ = std::hint::black_box(
                tracer.time("store.load_plan", || store.load_plan(&artifact.key)),
            );
            let _ = tracer.time("store.save_plan", || store.save_plan(&artifact));
        }

        let mean_us = |tracer: &Tracer, span| {
            let sample = tracer.micros(span);
            sample.iter().sum::<f64>() / sample.len().max(1) as f64
        };
        layers.set("store.decode_us_per_plan", mean_us(tracer, "store.decode"));
        layers.set("store.encode_us_per_plan", mean_us(tracer, "store.encode"));
        layers.span_percentile(
            "store.load_plan_us_p50",
            tracer,
            "store.load_plan",
            50.0,
            1.0,
        );
        layers.span_percentile(
            "store.save_plan_us_p50",
            tracer,
            "store.save_plan",
            50.0,
            1.0,
        );
        layers.span_percentile("store.preload_ms", tracer, "store.preload", 50.0, 1e3);
        layers.span_percentile("store.persist_ms", tracer, "store.persist", 50.0, 1e3);
        layers.span_percentile("store.cache_load_ms", tracer, "store.cache_load", 50.0, 1e3);
        layers.span_percentile("store.cache_save_ms", tracer, "store.cache_save", 50.0, 1e3);
        layers.span_percentile(
            "session.plan_warm_us_p50",
            tracer,
            "session.plan_warm",
            50.0,
            1.0,
        );
        tracer.exec.report(layers);
        if let Some(stats) = &last_restore {
            report_session(stats, layers);
        }
        layers.set(
            "store.bytes_written",
            (self.block_pairs * self.persisted_bytes) as f64,
        );
        layers.set("store.bytes_on_disk", bytes_on_disk as f64);

        Traced {
            attempted: 2 * self.block_pairs,
            failed: plain.failed + traced.failed,
            digest: self.digest(),
            plain_wall_s: plain.wall_s,
            traced_wall_s: traced.wall_s,
        }
    }
}
