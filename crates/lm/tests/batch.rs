//! Batched scoring is a serial map: for both model families,
//! `next_log_probs_batch` returns exactly the `next_log_probs` rows of
//! its contexts, in input order, bit for bit.

#![forbid(unsafe_code)]

use relm_bpe::BpeTokenizer;
use relm_lm::{LanguageModel, NGramConfig, NGramLm, NeuralLm, NeuralLmConfig, TokenId};

const DOCS: [&str; 2] = ["the cat sat on the mat.", "the dog sat on the log."];

#[test]
fn batch_scoring_is_a_serial_map_for_both_models() {
    let tok = BpeTokenizer::train(&DOCS.join(" "), 40);
    let ngram = NGramLm::train(&tok, &DOCS, NGramConfig::xl());
    let config = NeuralLmConfig {
        epochs: 2,
        ..NeuralLmConfig::default()
    };
    let neural = NeuralLm::train(&tok, &DOCS, config);
    let models: [(&str, &dyn LanguageModel); 2] = [("ngram", &ngram), ("neural", &neural)];
    // Nine distinct contexts: the prefixes of one encoded sentence.
    let text = tok.encode(&DOCS.join(" "));
    let contexts: Vec<Vec<TokenId>> = (0..9).map(|i| text[..i % text.len()].to_vec()).collect();
    for n in 0..=contexts.len() {
        let refs: Vec<&[TokenId]> = contexts[..n].iter().map(Vec::as_slice).collect();
        for (name, model) in models {
            let bits = |rows: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                rows.iter()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            let map: Vec<Vec<f64>> = refs.iter().map(|c| model.next_log_probs(c)).collect();
            let batch = model.next_log_probs_batch(&refs);
            assert_eq!(bits(batch), bits(map), "{name} n={n}");
        }
    }
}
