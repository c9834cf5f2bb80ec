//! Autoregressive language-model substrate for ReLM-rs.
//!
//! The paper runs ReLM against GPT-2 (117M) and GPT-2 XL (1.5B) via
//! PyTorch on a GPU. Shipping those weights is impossible here, so this
//! crate provides the substitution documented in `DESIGN.md`: a smoothed
//! **back-off n-gram language model over BPE tokens** ([`NGramLm`]) behind
//! the [`LanguageModel`] trait. Every ReLM code path — top-k pruning,
//! shortest-path search, unbiased sampling, canonical-vs-full encodings —
//! consumes the model only through `next_log_probs`, so the algorithms are
//! exercised exactly as with a transformer, while the n-gram reproduces
//! the *phenomena* the paper measures: memorization of repeated training
//! sequences, co-occurrence bias, and emission of training-set toxicity.
//!
//! Also provided:
//!
//! * [`DecodingPolicy`] — top-k / top-p / temperature decision rules
//!   (§2.4): these define the language `L_m` of the model; traversals
//!   ask them through the O(1) membership view [`Allowed`],
//! * [`sample_sequence`] / ancestral sampling used by the paper's
//!   baselines,
//! * [`ScoringEngine`] — the batched, deduplicating, memoizing front end
//!   every executor scores through (graph traversals revisit contexts),
//! * [`SharedScoringCache`] — its memo, the one in the workspace: a
//!   byte-budgeted, generation-tagged table with reuse-gated admission,
//!   pooled by every query of a `Relm` client,
//! * [`Clock`] — the second-chance ring under that memo and under a
//!   client's plan memo: one bounded table, two owners,
//! * [`AcceleratorSim`] — a batched-inference latency model standing in
//!   for the paper's GTX-3080, so throughput figures have a time axis,
//! * [`score_batch`] — batched scoring on the calling thread, and
//!   [`pool::pooled_scores`] — the engine's fan-out on the persistent
//!   [`pool::WorkerPool`], the CPU analogue of batched GPU inference;
//!   the n-gram forward pass finishes each row with a portable
//!   lane-chunked kernel.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accel;
mod bounded;
mod decoding;
mod engine;
#[cfg(test)]
mod eval;
mod matrix;
mod neural;
mod ngram;
pub mod pool;
mod sampler;
mod shared;
mod simd;

pub use accel::AcceleratorSim;
pub use bounded::Clock;
pub use decoding::{Allowed, DecodingPolicy};
pub use engine::{ScoringEngine, ScoringStats};
pub use neural::{NeuralLm, NeuralLmConfig};
pub use ngram::{NGramConfig, NGramLm};
pub use pool::pooled_scores;
pub use relm_automata::Parallelism;
pub use relm_bpe::TokenId;
pub use sampler::{sample_sequence, score_batch, sequence_log_prob};
pub use shared::{SharedCacheStats, SharedScoringCache, DEFAULT_SHARED_CACHE_BYTES};

/// An autoregressive language model over a token vocabulary.
///
/// Implementations must be deterministic: the same context always yields
/// the same distribution (ReLM's shortest-path semantics depend on it).
///
/// Log probabilities are natural logs; each returned vector must have
/// length [`vocab_size`](Self::vocab_size) and logsumexp ≈ 0 (a proper
/// distribution). Tokens impossible in the context get `f64::NEG_INFINITY`.
pub trait LanguageModel: Send + Sync {
    /// Vocabulary size; token ids are `0..vocab_size`.
    fn vocab_size(&self) -> usize;

    /// The end-of-sequence token id.
    fn eos(&self) -> TokenId;

    /// Maximum sequence length the model supports (the paper's
    /// "LLMs have finite state" bound used to unroll cycles).
    fn max_sequence_len(&self) -> usize;

    /// Natural-log next-token distribution given `context`.
    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64>;

    /// Natural-log next-token distributions for a *batch* of contexts,
    /// in input order — the paper's batched-inference hot path (§3.3
    /// "schedules massive sets of test vectors").
    ///
    /// The default implementation loops over
    /// [`next_log_probs`](Self::next_log_probs) on the calling thread,
    /// and [`NGramLm`] and [`NeuralLm`] keep it. Fanning a batch out over
    /// worker threads is the [`ScoringEngine`]'s job, at its configured
    /// [`Parallelism`] ([`pool::pooled_scores`]); an override here is
    /// for a forward pass that is itself cheaper batched.
    fn next_log_probs_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f64>> {
        contexts
            .iter()
            .map(|ctx| self.next_log_probs(ctx))
            .collect()
    }

    /// A `'static`, shareable handle to this model for persistent-pool
    /// workers, or `None` when pooled scoring does not apply.
    ///
    /// Pool jobs outlive any borrow of `self`, so [`pool::pooled_scores`]
    /// needs an owned handle it can clone into each chunk job. Models
    /// whose clone is cheap ([`NGramLm`] shares its count tables behind
    /// an `Arc`) or small ([`NeuralLm`]'s matrices) return
    /// `Some(Arc::new(self.clone()))`; the default `None` keeps wrappers
    /// with interior state (engines, caches) off the pool and on their
    /// own scoring paths.
    fn pooled_handle(&self) -> Option<std::sync::Arc<dyn LanguageModel>> {
        None
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for &M {
    fn vocab_size(&self) -> usize {
        (**self).vocab_size()
    }
    fn eos(&self) -> TokenId {
        (**self).eos()
    }
    fn max_sequence_len(&self) -> usize {
        (**self).max_sequence_len()
    }
    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64> {
        (**self).next_log_probs(context)
    }
    fn next_log_probs_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f64>> {
        (**self).next_log_probs_batch(contexts)
    }
    fn pooled_handle(&self) -> Option<std::sync::Arc<dyn LanguageModel>> {
        (**self).pooled_handle()
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for std::sync::Arc<M> {
    fn vocab_size(&self) -> usize {
        (**self).vocab_size()
    }
    fn eos(&self) -> TokenId {
        (**self).eos()
    }
    fn max_sequence_len(&self) -> usize {
        (**self).max_sequence_len()
    }
    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64> {
        (**self).next_log_probs(context)
    }
    fn next_log_probs_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f64>> {
        (**self).next_log_probs_batch(contexts)
    }
    fn pooled_handle(&self) -> Option<std::sync::Arc<dyn LanguageModel>> {
        (**self).pooled_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-object safety: the executor stores models as `&dyn`.
    #[test]
    fn trait_is_object_safe() {
        fn takes_dyn(_m: &dyn LanguageModel) {}
        let tok = relm_bpe::BpeTokenizer::train("a b a b", 4);
        let lm = NGramLm::train(&tok, &["a b"], NGramConfig::small());
        takes_dyn(&lm);
    }
}
