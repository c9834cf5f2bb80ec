//! A from-scratch feed-forward neural language model.
//!
//! The paper's conclusion promises to "extend ReLM to other families of
//! models"; this module demonstrates that the whole engine is agnostic
//! to the model class by providing a second [`LanguageModel`]
//! implementation that is *not* count-based: a Bengio-style neural
//! probabilistic language model (Bengio et al., 2003):
//!
//! ```text
//! x  = [ E[w₋ₙ] ‖ … ‖ E[w₋₁] ]      (concatenated token embeddings)
//! h  = tanh(W₁ x + b₁)
//! z  = W₂ h + b₂
//! p  = softmax(z)
//! ```
//!
//! trained by plain SGD on cross-entropy over sliding windows of the
//! tokenized corpus. Everything — matrix ops, backprop, initialization —
//! is implemented in this crate (see [`crate::matrix`]); no external ML
//! framework is involved.
//!
//! The model is intentionally small (the ReLM algorithms only need
//! `next_log_probs`); it trades the n-gram's exact counts for learned
//! generalization, which makes it a useful ablation substrate: ReLM
//! behaves identically over both.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use relm_bpe::{BpeTokenizer, TokenId};

use crate::matrix::{log_softmax, Matrix};
use crate::LanguageModel;

/// Hyperparameters for [`NeuralLm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralLmConfig {
    /// Number of context tokens fed to the network.
    pub context_len: usize,
    /// Embedding dimension per token.
    // lint: allow(dead_pub, "tests/model_families.rs builds NeuralLmConfig by struct update, which needs every field public")
    pub embed_dim: usize,
    /// Hidden layer width.
    // lint: allow(dead_pub, "tests/model_families.rs builds NeuralLmConfig by struct update, which needs every field public")
    pub hidden_dim: usize,
    /// SGD passes over the corpus windows.
    pub epochs: usize,
    /// SGD learning rate.
    // lint: allow(dead_pub, "tests/model_families.rs builds NeuralLmConfig by struct update, which needs every field public")
    pub learning_rate: f32,
    /// Initialization / shuffling seed.
    pub seed: u64,
    /// Maximum sequence length accepted at inference.
    pub max_sequence_len: usize,
}

impl Default for NeuralLmConfig {
    fn default() -> Self {
        NeuralLmConfig {
            context_len: 3,
            embed_dim: 16,
            hidden_dim: 32,
            epochs: 12,
            learning_rate: 0.08,
            seed: 0xbe41,
            max_sequence_len: 128,
        }
    }
}

impl NeuralLmConfig {
    fn validate(self) -> Self {
        assert!(self.context_len >= 1, "context_len must be >= 1");
        assert!(
            self.embed_dim >= 1 && self.hidden_dim >= 1,
            "dims must be >= 1"
        );
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
        assert!(self.max_sequence_len >= 2, "max_sequence_len must be >= 2");
        self
    }
}

/// The feed-forward neural LM. See the module docs.
#[derive(Debug, Clone)]
pub struct NeuralLm {
    config: NeuralLmConfig,
    vocab_size: usize,
    eos: TokenId,
    /// `vocab × embed_dim` embedding table.
    embeddings: Matrix,
    /// `hidden × (context_len · embed_dim)`.
    w1: Matrix,
    b1: Vec<f32>,
    /// `vocab × hidden`.
    w2: Matrix,
    b2: Vec<f32>,
}

impl NeuralLm {
    /// Train on `documents` (tokenized with `tokenizer`, EOS-delimited).
    ///
    /// Deterministic in `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn train(tokenizer: &BpeTokenizer, documents: &[&str], config: NeuralLmConfig) -> Self {
        let config = config.validate();
        let vocab_size = tokenizer.vocab_size();
        let eos = tokenizer.eos();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let input_dim = config.context_len * config.embed_dim;
        let mut model = NeuralLm {
            config,
            vocab_size,
            eos,
            embeddings: Matrix::uniform(vocab_size, config.embed_dim, 0.08, &mut rng),
            w1: Matrix::uniform(config.hidden_dim, input_dim, 0.08, &mut rng),
            b1: vec![0.0; config.hidden_dim],
            w2: Matrix::uniform(vocab_size, config.hidden_dim, 0.08, &mut rng),
            b2: vec![0.0; vocab_size],
        };

        // Training windows: (context of context_len token ids, target).
        let mut windows: Vec<(Vec<TokenId>, TokenId)> = Vec::new();
        for doc in documents {
            let mut tokens = vec![eos; config.context_len];
            tokens.extend(tokenizer.encode(doc));
            tokens.push(eos);
            for i in config.context_len..tokens.len() {
                windows.push((tokens[i - config.context_len..i].to_vec(), tokens[i]));
            }
        }
        for _ in 0..config.epochs {
            windows.shuffle(&mut rng);
            for (ctx, target) in &windows {
                model.sgd_step(ctx, *target);
            }
        }
        model
    }

    /// Average cross-entropy (nats/token) of the model on `documents` —
    /// the training-progress metric used by tests.
    #[cfg(test)]
    fn cross_entropy(&self, tokenizer: &BpeTokenizer, documents: &[&str]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for doc in documents {
            let mut tokens = vec![self.eos];
            tokens.extend(tokenizer.encode(doc));
            tokens.push(self.eos);
            for i in 1..tokens.len() {
                let lp = self.next_log_probs(&tokens[..i]);
                total -= lp[tokens[i] as usize];
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// The trained configuration.
    pub fn config(&self) -> &NeuralLmConfig {
        &self.config
    }

    /// Pad/truncate a context to exactly `context_len` ids (EOS-padded on
    /// the left, matching training).
    fn window(&self, context: &[TokenId]) -> Vec<TokenId> {
        let n = self.config.context_len;
        let mut w = vec![self.eos; n.saturating_sub(context.len())];
        let take = context.len().min(n);
        w.extend_from_slice(&context[context.len() - take..]);
        w
    }

    fn input_vector(&self, window: &[TokenId]) -> Vec<f32> {
        let mut x = Vec::with_capacity(window.len() * self.config.embed_dim);
        for &t in window {
            x.extend_from_slice(self.embeddings.row(t as usize));
        }
        x
    }

    /// Forward pass: returns `(x, h, logits)`.
    fn forward(&self, window: &[TokenId]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let x = self.input_vector(window);
        let mut h = self.w1.matvec(&x);
        for (hi, bi) in h.iter_mut().zip(&self.b1) {
            *hi = (*hi + bi).tanh();
        }
        let mut logits = self.w2.matvec(&h);
        for (li, bi) in logits.iter_mut().zip(&self.b2) {
            *li += bi;
        }
        (x, h, logits)
    }

    /// One SGD step on a (context, target) pair: cross-entropy backprop
    /// through softmax, the output layer, the tanh hidden layer, and the
    /// embeddings.
    fn sgd_step(&mut self, context: &[TokenId], target: TokenId) {
        let window = self.window(context);
        let (x, h, logits) = self.forward(&window);
        let lr = self.config.learning_rate;

        // dL/dz = softmax(z) - onehot(target)
        let lp = log_softmax(&logits);
        let mut dz: Vec<f32> = lp.iter().map(|l| l.exp() as f32).collect();
        dz[target as usize] -= 1.0;

        // Output layer gradients (before updating W2, grab dh).
        let dh_pre = self.w2.matvec_t(&dz);
        self.w2.rank1_update(lr, &dz, &h);
        for (b, &g) in self.b2.iter_mut().zip(&dz) {
            *b -= lr * g;
        }

        // Hidden layer: dh = (1 - h²) ⊙ (W2ᵀ dz)
        let dh: Vec<f32> = dh_pre
            .iter()
            .zip(&h)
            .map(|(&g, &hv)| g * (1.0 - hv * hv))
            .collect();
        let dx = self.w1.matvec_t(&dh);
        self.w1.rank1_update(lr, &dh, &x);
        for (b, &g) in self.b1.iter_mut().zip(&dh) {
            *b -= lr * g;
        }

        // Embedding gradients: slice dx per context slot.
        let d = self.config.embed_dim;
        for (slot, &tok) in window.iter().enumerate() {
            let grad = &dx[slot * d..(slot + 1) * d];
            let row = self.embeddings.row_mut(tok as usize);
            for (e, &g) in row.iter_mut().zip(grad) {
                *e -= lr * g;
            }
        }
    }
}

impl LanguageModel for NeuralLm {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn eos(&self) -> TokenId {
        self.eos
    }

    fn max_sequence_len(&self) -> usize {
        self.config.max_sequence_len
    }

    fn next_log_probs(&self, context: &[TokenId]) -> Vec<f64> {
        let window = self.window(context);
        let (_, _, logits) = self.forward(&window);
        log_softmax(&logits)
    }

    fn pooled_handle(&self) -> Option<std::sync::Arc<dyn LanguageModel>> {
        // The weight matrices are intentionally small (see the module
        // docs), so an owned snapshot per pooled batch is cheap — and,
        // trained weights being immutable at inference, exact.
        Some(std::sync::Arc::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> (BpeTokenizer, Vec<&'static str>) {
        let docs = vec![
            "the cat sat on the mat",
            "the cat sat on the mat",
            "the dog sat on the log",
            "the dog sat on the log",
        ];
        let tok = BpeTokenizer::train("the cat sat on the mat. the dog sat on the log.", 40);
        (tok, docs)
    }

    fn quick_config() -> NeuralLmConfig {
        NeuralLmConfig {
            epochs: 8,
            embed_dim: 8,
            hidden_dim: 16,
            ..NeuralLmConfig::default()
        }
    }

    #[test]
    fn distribution_normalizes() {
        let (tok, docs) = corpus();
        let lm = NeuralLm::train(&tok, &docs, quick_config());
        for ctx_text in ["the cat", "", "zzz"] {
            let lp = lm.next_log_probs(&tok.encode(ctx_text));
            let sum: f64 = lp.iter().map(|l| l.exp()).sum();
            assert!((sum - 1.0).abs() < 1e-6, "sum {sum} for {ctx_text:?}");
        }
    }

    #[test]
    fn training_reduces_cross_entropy() {
        let (tok, docs) = corpus();
        let untrained = NeuralLm::train(
            &tok,
            &docs,
            NeuralLmConfig {
                epochs: 0,
                ..quick_config()
            },
        );
        let trained = NeuralLm::train(&tok, &docs, quick_config());
        let before = untrained.cross_entropy(&tok, &docs);
        let after = trained.cross_entropy(&tok, &docs);
        assert!(
            after < before - 0.3,
            "training should cut loss: {before} -> {after}"
        );
    }

    #[test]
    fn learns_dominant_continuations() {
        let (tok, docs) = corpus();
        let lm = NeuralLm::train(
            &tok,
            &docs,
            NeuralLmConfig {
                epochs: 30,
                ..quick_config()
            },
        );
        // After "the cat sat on the", " mat" must beat an unrelated token.
        let ctx = tok.encode("the cat sat on the");
        let lp = lm.next_log_probs(&ctx);
        let mat = tok.encode(" mat")[0];
        let unrelated = tok.encode("z")[0];
        assert!(
            lp[mat as usize] > lp[unrelated as usize] + 1.0,
            "mat {} vs z {}",
            lp[mat as usize],
            lp[unrelated as usize]
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (tok, docs) = corpus();
        let a = NeuralLm::train(&tok, &docs, quick_config());
        let b = NeuralLm::train(&tok, &docs, quick_config());
        let ctx = tok.encode("the");
        assert_eq!(a.next_log_probs(&ctx), b.next_log_probs(&ctx));
    }

    #[test]
    fn short_contexts_are_padded() {
        let (tok, docs) = corpus();
        let lm = NeuralLm::train(&tok, &docs, quick_config());
        // Shorter-than-window contexts must still produce a distribution.
        let lp = lm.next_log_probs(&[]);
        assert_eq!(lp.len(), lm.vocab_size());
        assert!(lp.iter().all(|l| l.is_finite()));
    }

    #[test]
    #[should_panic(expected = "context_len")]
    fn invalid_config_rejected() {
        let (tok, docs) = corpus();
        let _ = NeuralLm::train(
            &tok,
            &docs,
            NeuralLmConfig {
                context_len: 0,
                ..NeuralLmConfig::default()
            },
        );
    }

    #[test]
    fn works_with_relm_trait_object() {
        let (tok, docs) = corpus();
        let lm = NeuralLm::train(&tok, &docs, quick_config());
        let dyn_lm: &dyn LanguageModel = &lm;
        assert_eq!(dyn_lm.vocab_size(), tok.vocab_size());
    }
}
