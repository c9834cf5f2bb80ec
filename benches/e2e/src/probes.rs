//! Layers timed on the side in every traced run: a public function of
//! each, called on inputs taken from the world, outside any workload
//! operation. They cost a fraction of a second together and read the
//! same on every workload, which makes them the cheapest way to see
//! whether a layer itself moved.

use std::hint::black_box;
use std::time::Instant;

use relm_automata::{Parallelism, WorkerPool};
use relm_bpe::TokenId;
use relm_lm::{LanguageModel, ScoringEngine};
use relm_serve::protocol::{decode_frame, encode_frame, MAX_FRAME_BYTES};
use relm_serve::{QueryRequest, Request, Response, WireMatch};

use crate::harness::Layers;
use crate::stats::median;
use crate::world::World;

const BATCH: usize = 64;
const CODEC_REPS: u32 = 2_000;

/// Mean nanoseconds per call of `f` over [`CODEC_REPS`] calls.
fn nanos_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    for _ in 0..CODEC_REPS {
        black_box(f());
    }
    started.elapsed().as_nanos() as f64 / f64::from(CODEC_REPS)
}

pub fn run(world: &World, layers: &mut Layers) {
    let docs: Vec<&str> = world
        .data
        .documents
        .iter()
        .map(String::as_str)
        .take(256)
        .collect();
    let encode_us: Vec<f64> = docs
        .iter()
        .map(|doc| {
            let at = Instant::now();
            black_box(world.tokenizer.encode(doc));
            at.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("tokenizer.encode_us_p50", median(&encode_us));

    // Distinct contexts: four-token windows from inside the documents
    // (their openings repeat, the corpus being built from templates).
    let encoded: Vec<Vec<TokenId>> = docs.iter().map(|doc| world.tokenizer.encode(doc)).collect();
    let mut contexts: Vec<&[TokenId]> = encoded
        .iter()
        .flat_map(|tokens| tokens.windows(4).step_by(3))
        .collect();
    contexts.sort_unstable();
    contexts.dedup();
    contexts.truncate(8 * BATCH);
    let chunks: Vec<&[&[TokenId]]> = contexts.chunks_exact(BATCH).collect();

    let per_ctx_us = |f: &dyn Fn(&[&[TokenId]])| {
        let timed: Vec<f64> = chunks
            .iter()
            .map(|chunk| {
                let at = Instant::now();
                f(chunk);
                at.elapsed().as_secs_f64() * 1e6 / BATCH as f64
            })
            .collect();
        median(&timed)
    };
    // Once unmeasured, so that the model's tables are in the processor's
    // caches for the forward pass as they are for the engine after it.
    let forward = |chunk: &[&[TokenId]]| drop(black_box(world.xl.next_log_probs_batch(chunk)));
    per_ctx_us(&forward);
    layers.set("model.forward_us_per_ctx", per_ctx_us(&forward));
    let engine = ScoringEngine::new(&world.xl);
    layers.set(
        "engine.miss_us_per_ctx",
        per_ctx_us(&|chunk| drop(black_box(engine.score_batch(chunk)))),
    );
    layers.set(
        "engine.hit_us_per_ctx",
        per_ctx_us(&|chunk| drop(black_box(engine.score_batch(chunk)))),
    );

    let pool = WorkerPool::for_parallelism(Parallelism::auto());
    let dispatch_us: Vec<f64> = (0..200)
        .map(|_| {
            let jobs: Vec<fn()> = vec![|| (); 2 * pool.workers().max(1)];
            let at = Instant::now();
            black_box(pool.run(jobs));
            at.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("pool.dispatch_us", median(&dispatch_us));

    let request = Request::Query(
        QueryRequest::new(7, "The man was trained in ((art)|(science))\\.", 8)
            .with_prefix("The man was trained in")
            .with_top_k(40)
            .with_max_tokens(32),
    );
    let response = Response::Matches {
        id: 7,
        matches: (0..8)
            .map(|i| WireMatch {
                text: format!("The man was trained in science number {i}."),
                score_bits: (-12.5f64 - f64::from(i)).to_bits(),
                canonical: true,
                num_tokens: 9,
            })
            .collect(),
    };
    let (request_bytes, response_bytes) = (request.encode(), response.encode());
    layers.set(
        "protocol.request_encode_ns",
        nanos_per_call(|| request.encode()),
    );
    layers.set(
        "protocol.request_decode_ns",
        nanos_per_call(|| Request::decode(&request_bytes)),
    );
    layers.set(
        "protocol.response_encode_ns",
        nanos_per_call(|| response.encode()),
    );
    layers.set(
        "protocol.response_decode_ns",
        nanos_per_call(|| Response::decode(&response_bytes)),
    );
    let mut wire = Vec::new();
    layers.set(
        "protocol.frame_ns",
        nanos_per_call(|| {
            encode_frame(&response_bytes, &mut wire);
            decode_frame(&mut wire, MAX_FRAME_BYTES)
        }),
    );
}
