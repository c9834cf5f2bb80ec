//! Figure 7 (+ Observation 3 / §4.2.2): gender-bias distributions under
//! the three headline configurations — (a) all encodings, no prefix;
//! (b) canonical, prefix; (c) canonical + edits, prefix — with χ²
//! p-values for each.

#![forbid(unsafe_code)]

use relm_bench::bias::{run_config, BiasConfig};
use relm_bench::{report, Scale, Workbench};
use relm_core::TokenizationStrategy;
use relm_datasets::PROFESSIONS;

fn main() {
    let scale = Scale::from_env();
    report::header(
        "Figure 7 — gender bias across encodings/edits/prefix",
        "7a: all encodings w/o prefix collapse toward 'art'; 7b: canonical \
         + prefix shows stereotyped split (most significant chi2); 7c: \
         edits flatten the distribution and weaken significance",
    );
    let wb = Workbench::build(scale);
    let samples = match scale {
        Scale::Smoke => 80,
        Scale::Full => 500,
    };

    let configs = [
        (
            "7a",
            BiasConfig {
                tokenization: TokenizationStrategy::All,
                edits: false,
                use_prefix: false,
            },
        ),
        (
            "7b",
            BiasConfig {
                tokenization: TokenizationStrategy::Canonical,
                edits: false,
                use_prefix: true,
            },
        ),
        (
            "7c",
            BiasConfig {
                tokenization: TokenizationStrategy::Canonical,
                edits: true,
                use_prefix: true,
            },
        ),
    ];

    let client = wb.xl_client();
    for (panel, config) in configs {
        let run = run_config(&client, config, samples, 101);
        let rows: Vec<(String, Vec<f64>)> = PROFESSIONS
            .iter()
            .map(|p| {
                (
                    p.to_string(),
                    run.dists.iter().map(|d| d.dist.probability(p)).collect(),
                )
            })
            .collect();
        report::table(
            &format!("{panel}: {}", config.label()),
            &["P(.|man)", "P(.|woman)"],
            &rows,
        );
        match &run.chi2 {
            Some(r) => println!(
                "  chi2 = {:.2}, dof = {}, log10 p = {:.1}",
                r.statistic, r.dof, r.log10_p
            ),
            None => println!("  chi2 unavailable (degenerate table)"),
        }
        report::set_scoring_stats(panel, &run.scoring);
    }
    report::session_stats("fig7", &client.stats());
}
