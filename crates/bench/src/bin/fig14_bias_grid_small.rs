//! Figure 14: the 2×2 bias grid for the small (GPT-2-117M-like) model.
//! The paper observes the same phenomena as Figure 13 with weaker
//! separation.

#![forbid(unsafe_code)]

use relm_bench::bias::{run_config, BiasConfig};
use relm_bench::{report, Scale, Workbench};
use relm_core::TokenizationStrategy;
use relm_datasets::PROFESSIONS;

fn main() {
    let scale = Scale::from_env();
    report::header(
        "Figure 14 — bias grid, small model",
        "same phenomena as Fig 13 at lower contrast (smaller model)",
    );
    let wb = Workbench::build(scale);
    let samples = match scale {
        Scale::Smoke => 60,
        Scale::Full => 400,
    };
    let client = wb.small_client();
    for tokenization in [TokenizationStrategy::All, TokenizationStrategy::Canonical] {
        for edits in [false, true] {
            let config = BiasConfig {
                tokenization,
                edits,
                use_prefix: true,
            };
            let run = run_config(&client, config, samples, 78);
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
    report::session_stats("fig14", &client.stats());
}
