//! Benchmark harness reproducing every table and figure of the ReLM
//! paper's evaluation (§4 and appendix).
//!
//! Each figure/table has a binary under `src/bin/` (see `DESIGN.md`'s
//! experiment index); this library holds the shared machinery:
//!
//! * [`Workbench`] — one call that builds the synthetic world, trains
//!   the BPE tokenizer and both model sizes (GPT-2-small-like and
//!   GPT-2-XL-like),
//! * experiment runners for URL extraction ([`urls`]), gender bias
//!   ([`bias`]), toxicity ([`toxicity`]), LAMBADA ([`lambada`]), and the
//!   edit-position CDF ([`edits`]),
//! * plain-text report helpers ([`report`]).
//!
//! Absolute numbers differ from the paper (the substrate is an n-gram
//! simulator on CPU, not GPT-2 XL on a GTX-3080); the *shapes* — who
//! wins, by roughly what factor, where the orderings fall — are the
//! reproduction targets, recorded in `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bias;
pub mod edits;
pub mod lambada;
pub mod report;
pub mod toxicity;
pub mod urls;

use relm_bpe::BpeTokenizer;
use relm_core::Relm;
use relm_datasets::{CorpusSpec, SyntheticWorld};
use relm_lm::{LanguageModel, NGramConfig, NGramLm};

/// How large a world to generate; binaries default to [`Scale::Full`],
/// tests use [`Scale::Smoke`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale: CI and unit tests.
    Smoke,
    /// The default experiment size (a couple of minutes per binary).
    Full,
}

impl Scale {
    /// Resolve from the process environment (`RELM_SCALE=smoke`),
    /// defaulting to `Full` — so every figure binary can be smoke-run in
    /// CI without code changes.
    pub fn from_env() -> Self {
        match std::env::var("RELM_SCALE").as_deref() {
            Ok("smoke") | Ok("Smoke") | Ok("SMOKE") => Scale::Smoke,
            _ => Scale::Full,
        }
    }

    fn corpus_spec(self) -> CorpusSpec {
        match self {
            Scale::Smoke => CorpusSpec::small(),
            Scale::Full => CorpusSpec {
                seed: 0x0ae1,
                memorized_urls: 16,
                url_repetitions: 25,
                bias_sentences: 800,
                toxic_sentences: 48,
                cloze_items: 120,
                filler_sentences: 400,
                bias: Default::default(),
            },
        }
    }

    fn bpe_merges(self) -> usize {
        match self {
            Scale::Smoke => 200,
            Scale::Full => 600,
        }
    }
}

/// The shared experimental setup: world + tokenizer + both model sizes.
pub struct Workbench {
    /// The generated universe (corpus, URLs, Pile shard, cloze set).
    pub world: SyntheticWorld,
    /// BPE tokenizer trained on the corpus.
    pub tokenizer: BpeTokenizer,
    /// GPT-2-XL-like model (5-gram, sharp). Bare: the executors score
    /// through the client's `ScoringEngine`, whose shared cache is the
    /// one memo, and a baseline that calls the model directly pays for
    /// every forward pass.
    pub xl: NGramLm,
    /// GPT-2-like small model (trigram, smoother). Bare, as above.
    pub small: NGramLm,
}

impl Workbench {
    /// Generate the world and train everything. Deterministic in `scale`.
    pub fn build(scale: Scale) -> Self {
        let spec = scale.corpus_spec();
        let world = SyntheticWorld::generate(&spec);
        let corpus = world.joined_corpus();
        let tokenizer = BpeTokenizer::train(&corpus, scale.bpe_merges());
        let docs = world.document_refs();
        let xl = NGramLm::train(&tokenizer, &docs, NGramConfig::xl());
        let small = NGramLm::train(&tokenizer, &docs, NGramConfig::small());
        Workbench {
            world,
            tokenizer,
            xl,
            small,
        }
    }

    /// A persistent `Relm` client over any model sharing this
    /// workbench's tokenizer. Experiment runners execute all their
    /// queries through one client, so plan memoization and the shared
    /// scoring cache persist across the whole battery (the figures
    /// print the reuse counters), and whole query sets can share one
    /// engine via `run_many`.
    pub fn client<'m, M: LanguageModel>(&self, model: &'m M) -> Relm<&'m M> {
        Relm::new(model, self.tokenizer.clone()).expect("workbench model/tokenizer pair is valid")
    }

    /// A client over the GPT-2-XL-like model.
    pub fn xl_client(&self) -> Relm<&NGramLm> {
        self.client(&self.xl)
    }

    /// A client over the GPT-2-like small model.
    pub fn small_client(&self) -> Relm<&NGramLm> {
        self.client(&self.small)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_workbench_builds() {
        let wb = Workbench::build(Scale::Smoke);
        assert!(wb.tokenizer.vocab_size() > 256);
        assert!(!wb.world.documents.is_empty());
    }

    #[test]
    fn scale_from_env_defaults_to_full() {
        // (Does not set the var to avoid cross-test interference.)
        assert!(matches!(Scale::from_env(), Scale::Full | Scale::Smoke));
    }
}
