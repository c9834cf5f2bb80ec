//! Plain-text report helpers: every figure binary prints the same
//! aligned series/row format so `EXPERIMENTS.md` can quote outputs
//! directly.

/// Print the standard experiment header.
pub fn header(experiment: &str, paper_claim: &str) {
    println!("================================================================");
    println!("EXPERIMENT {experiment}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

/// Print one `(x, y)` series as two aligned columns.
pub fn series(name: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) {
    println!("\n[{name}]");
    println!("{x_label:>14} {y_label:>18}");
    for &(x, y) in points {
        println!("{x:>14.3} {y:>18.3}");
    }
}

/// Print a labelled table: one row per label, columns given in `columns`.
pub fn table(name: &str, columns: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n[{name}]");
    print!("{:<24}", "");
    for c in columns {
        print!("{c:>14}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<24}");
        for v in values {
            print!("{v:>14.4}");
        }
        println!();
    }
}

/// Print a single headline measurement.
pub fn metric(name: &str, value: f64, unit: &str) {
    println!("  {name}: {value:.3} {unit}");
}

/// Print a client's reuse counters — every figure binary runs its
/// query battery through one `Relm` client, and this records how much
/// compilation and scoring its plan memo and scoring cache saved.
pub fn session_stats(label: &str, stats: &relm_core::SessionStats) {
    println!("\n[session reuse: {label}]");
    println!(
        "  plans: {} compiled, {} memo hits ({:.0}% reuse), {} resident ({:.1} MiB, {} evicted)",
        stats.plan_misses,
        stats.plan_hits,
        100.0 * stats.plan_hit_rate(),
        stats.plan_entries,
        stats.plan_bytes as f64 / (1 << 20) as f64,
        stats.plan_evictions
    );
    let s = &stats.scoring;
    println!(
        "  scoring cache: {} hits / {} misses ({:.0}% hit rate), {} entries, {:.1} MiB resident, {} evictions",
        s.hits,
        s.misses,
        100.0 * s.hit_rate(),
        s.entries,
        s.bytes as f64 / (1 << 20) as f64,
        s.evictions
    );
    println!(
        "  plan store: {} disk hits / {} misses, {:.1} KiB written",
        stats.store_hits,
        stats.store_misses,
        stats.store_bytes_written as f64 / 1024.0
    );
}

/// Print the counters of the one engine a `run_many` query set scored
/// through: what its queries' memo hits saved and how full the model
/// batches ran.
pub fn set_scoring_stats(label: &str, scoring: &relm_lm::ScoringStats) {
    println!(
        "[run_many scoring: {label}] {} hits / {} misses, {} model batches \
         (mean batch {:.2})",
        scoring.cache_hits,
        scoring.cache_misses,
        scoring.batches,
        scoring.mean_batch_size()
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn helpers_do_not_panic() {
        super::header("Test", "a claim");
        super::series("s", "x", "y", &[(1.0, 2.0)]);
        super::table("t", &["a", "b"], &[("row".into(), vec![1.0, 2.0])]);
        super::metric("m", 1.5, "units");
        super::session_stats("test", &relm_core::SessionStats::default());
        super::set_scoring_stats("test", &relm_lm::ScoringStats::default());
    }
}
