//! Persistent-pool batched scoring.
//!
//! [`pooled_scores`] routes a batch to the workspace-wide
//! [`WorkerPool`] — long-lived workers parked on a condvar, one pool per
//! resolved worker count, shared with the automata walk-table fills — so
//! steady-state scoring spawns zero threads per batch
//! ([`WorkerPool::spawn_count`] stays flat), and the worker count is the
//! configured [`Parallelism`], never `available_parallelism()`. Its one
//! caller outside tests is [`crate::ScoringEngine`]'s miss scoring: the
//! models score on the calling thread, so every entry to the pool goes
//! through an engine's configured setting.
//!
//! Determinism: the batch is split into contiguous chunks and
//! [`WorkerPool::run`] merges chunk results in submission order, so the
//! output is **bit-identical** to a serial `next_log_probs` map (this
//! module's tests and `tests/pool.rs` prove it on `f64::to_bits`).

use std::sync::Arc;

use relm_automata::Parallelism;
pub use relm_automata::WorkerPool;

use crate::{LanguageModel, TokenId};

/// Keep every worker busy with at least this many contexts: dispatching
/// a worker for a tiny slice costs more than the forward passes it runs.
const FAN_OUT_MIN_CHUNK: usize = 4;

/// Score a batch through the persistent [`WorkerPool`] for `par`.
///
/// Returns `None` when pooling does not apply — the batch is too small
/// to split, `par` resolves to a single worker, or the model does not
/// provide a [`LanguageModel::pooled_handle`] — in which case the caller
/// should score serially (or through its own fallback). `Some` results
/// keep input order and are bit-identical to a serial map.
pub fn pooled_scores<M: LanguageModel + ?Sized>(
    model: &M,
    contexts: &[&[TokenId]],
    par: Parallelism,
) -> Option<Vec<Vec<f64>>> {
    if contexts.len() <= FAN_OUT_MIN_CHUNK || !par.is_parallel() {
        return None;
    }
    let handle = model.pooled_handle()?;
    let pool = WorkerPool::for_parallelism(par);
    let workers = pool
        .workers()
        .min(contexts.len().div_ceil(FAN_OUT_MIN_CHUNK));
    if workers <= 1 {
        return None;
    }
    let chunk = contexts.len().div_ceil(workers);
    let jobs: Vec<_> = contexts
        .chunks(chunk)
        .map(|ctxs| {
            // Pool jobs are 'static: own the contexts and an Arc'd model.
            let ctxs: Vec<Vec<TokenId>> = ctxs.iter().map(|c| c.to_vec()).collect();
            let handle = Arc::clone(&handle);
            move || {
                ctxs.iter()
                    .map(|ctx| handle.next_log_probs(ctx))
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    Some(pool.run(jobs).into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NGramConfig, NGramLm, NeuralLm, NeuralLmConfig, ScoringEngine};
    use relm_bpe::BpeTokenizer;

    const DOCS: [&str; 2] = ["the cat sat on the mat.", "the dog sat on the log."];

    fn fixture() -> (BpeTokenizer, NGramLm) {
        let corpus = "the cat sat on the mat. the dog sat on the log.";
        let tok = BpeTokenizer::train(corpus, 40);
        let lm = NGramLm::train(&tok, &DOCS, NGramConfig::xl());
        (tok, lm)
    }

    fn neural(tok: &BpeTokenizer) -> NeuralLm {
        let config = NeuralLmConfig {
            epochs: 2,
            ..NeuralLmConfig::default()
        };
        NeuralLm::train(tok, &DOCS, config)
    }

    /// `n` distinct contexts: the prefixes of one encoded sentence.
    fn prefixes(tok: &BpeTokenizer, n: usize) -> Vec<Vec<TokenId>> {
        let text = tok.encode(&DOCS.join(" "));
        (0..n).map(|i| text[..i % text.len()].to_vec()).collect()
    }

    fn assert_same_bits(label: &str, a: &[Vec<f64>], b: &[Vec<f64>]) {
        assert_eq!(a.len(), b.len(), "{label}");
        for (x, y) in a.iter().zip(b) {
            let x: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let y: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(x, y, "{label}");
        }
    }

    #[test]
    fn batch_scoring_is_a_serial_map_for_both_models() {
        let (tok, ngram) = fixture();
        let neural = neural(&tok);
        let models: [(&str, &dyn LanguageModel); 2] = [("ngram", &ngram), ("neural", &neural)];
        let contexts = prefixes(&tok, 2 * FAN_OUT_MIN_CHUNK + 1);
        for n in 0..=contexts.len() {
            let refs: Vec<&[TokenId]> = contexts[..n].iter().map(Vec::as_slice).collect();
            for (name, model) in models {
                let map: Vec<Vec<f64>> = refs.iter().map(|c| model.next_log_probs(c)).collect();
                let batch = model.next_log_probs_batch(&refs);
                assert_same_bits(&format!("{name} n={n}"), &batch, &map);
            }
        }
    }

    #[test]
    fn small_batches_score_alike_on_sharded_and_serial_engines() {
        let (tok, ngram) = fixture();
        let neural = neural(&tok);
        let models: [(&str, &dyn LanguageModel); 2] = [("ngram", &ngram), ("neural", &neural)];
        for n in 1..=FAN_OUT_MIN_CHUNK {
            let contexts = prefixes(&tok, n);
            let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
            for (name, model) in models {
                let rows = |par: Parallelism| {
                    let engine = ScoringEngine::new(model).with_parallelism(par);
                    let rows = engine.score_batch(&refs);
                    assert_eq!(
                        engine.stats().cache_misses,
                        n as u64,
                        "every context a miss"
                    );
                    rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()
                };
                let sharded = rows(Parallelism::sharded(2));
                assert_same_bits(
                    &format!("{name} n={n}"),
                    &sharded,
                    &rows(Parallelism::Serial),
                );
            }
        }
    }

    #[test]
    fn pooled_scores_match_serial_bit_for_bit() {
        let (tok, lm) = fixture();
        let contexts: Vec<Vec<TokenId>> = (0..24)
            .map(|i| tok.encode(["the", "the cat", "the dog sat", ""][i % 4]))
            .collect();
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        let pooled = pooled_scores(&lm, &refs, Parallelism::sharded(4)).expect("pool applies");
        let serial: Vec<Vec<f64>> = refs.iter().map(|c| lm.next_log_probs(c)).collect();
        assert_eq!(pooled.len(), serial.len());
        for (p, s) in pooled.iter().zip(&serial) {
            for (a, b) in p.iter().zip(s) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn serial_parallelism_declines_to_pool() {
        let (tok, lm) = fixture();
        let contexts: Vec<Vec<TokenId>> = (0..16).map(|_| tok.encode("the")).collect();
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        assert!(pooled_scores(&lm, &refs, Parallelism::Serial).is_none());
    }

    #[test]
    fn tiny_batches_decline_to_pool() {
        let (tok, lm) = fixture();
        let ctx = tok.encode("the");
        let refs: Vec<&[TokenId]> = vec![&ctx; FAN_OUT_MIN_CHUNK];
        assert!(pooled_scores(&lm, &refs, Parallelism::sharded(4)).is_none());
    }

    #[test]
    fn pooled_batches_spawn_no_threads_in_steady_state() {
        let (tok, lm) = fixture();
        let contexts: Vec<Vec<TokenId>> = (0..32).map(|_| tok.encode("the cat")).collect();
        let refs: Vec<&[TokenId]> = contexts.iter().map(Vec::as_slice).collect();
        let pool = WorkerPool::for_parallelism(Parallelism::sharded(3));
        let _ = pooled_scores(&lm, &refs, Parallelism::sharded(3)).expect("pool applies");
        let spawned_after_first = pool.spawn_count();
        for _ in 0..8 {
            let _ = pooled_scores(&lm, &refs, Parallelism::sharded(3)).expect("pool applies");
        }
        assert_eq!(
            pool.spawn_count(),
            spawned_after_first,
            "zero per-batch spawns"
        );
    }
}
