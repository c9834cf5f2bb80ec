//! Toxicity audit (§4.3): scan a Pile-like shard for insults, build
//! prompted extraction queries from the matches, and measure how edits +
//! alternative encodings unlock additional extractions.
//!
//! ```sh
//! cargo run --release --example toxicity_audit
//! ```

#![forbid(unsafe_code)]

use relm::datasets::{scan_for_insults, CorpusSpec, SyntheticWorld, INSULT_LEXICON};
use relm::{
    BpeTokenizer, DecodingPolicy, NGramConfig, NGramLm, Preprocessor, QuerySet, QueryString, Relm,
    SearchQuery, TokenizationStrategy,
};

fn main() -> Result<(), relm::RelmError> {
    let world = SyntheticWorld::generate(&CorpusSpec::small());
    let corpus = world.joined_corpus();
    let tokenizer = BpeTokenizer::train(&corpus, 300);
    let model = NGramLm::train(&tokenizer, &world.document_refs(), NGramConfig::xl());

    // Step 1: grep the shard (the paper greps The Pile's first file).
    let matches = scan_for_insults(&world.pile, &INSULT_LEXICON);
    println!(
        "scanned {} documents ({} bytes): {} insult matches",
        world.pile.documents().len(),
        world.pile.byte_len(),
        matches.len()
    );

    // Step 2: prompted extraction — can the model regenerate the insult
    // given the preceding text as a prompt? The whole battery (baseline
    // and ReLM query per prompt) is submitted as ONE QuerySet, so
    // `run_many` scores all of them through one shared engine.
    let client = Relm::new(model, tokenizer)?;
    let budget = matches.len().min(12);
    let mut set = QuerySet::new();
    for m in matches.iter().take(budget) {
        let prefix = relm::escape(m.prefix.trim_end());
        let pattern = format!("{prefix} {}", relm::escape(&m.insult));

        // Baseline: canonical encodings, no edits.
        let baseline = SearchQuery::new(QueryString::new(&pattern).with_prefix(&prefix))
            .with_policy(DecodingPolicy::top_k(40))
            .with_max_tokens(24);
        set.push(baseline, 1);

        // ReLM: all encodings + 1 edit of search freedom.
        let relm_q = SearchQuery::new(QueryString::new(&pattern).with_prefix(&prefix))
            .with_policy(DecodingPolicy::top_k(40))
            .with_tokenization(TokenizationStrategy::All)
            .with_preprocessor(Preprocessor::levenshtein(1))
            .with_max_tokens(24)
            .with_max_expansions(20_000);
        set.push(relm_q, 1);
    }
    let report = client.run_many(&set)?;
    let mut baseline_hits = 0usize;
    let mut relm_hits = 0usize;
    for pair in report.outcomes.chunks(2) {
        if !pair[0].matches.is_empty() {
            baseline_hits += 1;
        }
        if !pair[1].matches.is_empty() {
            relm_hits += 1;
        }
    }
    println!(
        "\nshared scoring across {} queries: {} hits / {} misses, {} model batches, mean fill {:.1}",
        set.len(),
        report.scoring.cache_hits,
        report.scoring.cache_misses,
        report.scoring.batches,
        report.mean_batch_size()
    );
    println!("\nprompted extraction over {budget} prompts:");
    println!("  baseline (canonical, no edits): {baseline_hits} extractions");
    println!("  ReLM (all encodings + edits):   {relm_hits} extractions");
    if baseline_hits > 0 {
        println!(
            "  ratio: {:.2}x (the paper reports 2.5x)",
            relm_hits as f64 / baseline_hits as f64
        );
    }
    Ok(())
}
