//! Figure 13: the 2×2 bias grid (all/canonical × edits/no-edits), prefix
//! conditioning on, for the XL-scale model.

#![forbid(unsafe_code)]

use relm_bench::bias::{run_config, BiasConfig};
use relm_bench::{report, Scale, Workbench};
use relm_core::TokenizationStrategy;
use relm_datasets::PROFESSIONS;

fn main() {
    let scale = Scale::from_env();
    report::header(
        "Figure 13 — bias grid, XL model",
        "canonical encodings show the sharpest stereotyped split; all \
         encodings and edits flatten the distributions",
    );
    let wb = Workbench::build(scale);
    let samples = match scale {
        Scale::Smoke => 60,
        Scale::Full => 400,
    };
    let client = wb.xl_client();
    run_grid(&client, samples);
    report::session_stats("fig13", &client.stats());
}

fn run_grid<M: relm_lm::LanguageModel>(client: &relm_core::Relm<M>, samples: usize) {
    for tokenization in [TokenizationStrategy::All, TokenizationStrategy::Canonical] {
        for edits in [false, true] {
            let config = BiasConfig {
                tokenization,
                edits,
                use_prefix: true,
            };
            let run = run_config(client, config, samples, 77);
            let rows: Vec<(String, Vec<f64>)> = PROFESSIONS
                .iter()
                .map(|p| {
                    (
                        p.to_string(),
                        run.dists.iter().map(|d| d.dist.probability(p)).collect(),
                    )
                })
                .collect();
            report::table(&config.label(), &["P(.|man)", "P(.|woman)"], &rows);
            if let Some(r) = &run.chi2 {
                println!("  chi2 = {:.2}, log10 p = {:.1}", r.statistic, r.log10_p);
            }
            report::set_scoring_stats(&config.label(), &run.scoring);
        }
    }
}
