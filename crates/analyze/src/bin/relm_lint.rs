//! `relm_lint` — run the invariant analyses over the workspace.
//!
//! ```text
//! relm_lint [--root DIR] [--baseline FILE] [--update-baseline] [--quiet]
//! ```
//!
//! Walks every `.rs` file under the workspace root (auto-located by
//! walking up to the `[workspace]` manifest), runs the four analysis
//! families plus the dead-public-surface, unsafe and
//! annotation-hygiene checks, applies
//! the committed `lint.baseline`, prints surviving findings, the
//! deduped lock-order graph, and a stable `LINT_JSON` summary line.
//!
//! Exit codes: `0` clean, `1` findings (or a stale baseline), `2`
//! usage or I/O error. `--update-baseline` rewrites the baseline to
//! accept every current *baselinable* finding (panic, unsafe and
//! dead_pub findings are never accepted — fix or annotate those in
//! source) and
//! exits `0`; CI runs it on a clean tree and fails on any diff, so the
//! baseline can never drift silently.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use relm_analyze::findings::Baseline;
use relm_analyze::workspace::{baselinable, find_root, load_sources, run, stale_baseline};

struct Args {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        baseline: None,
        update_baseline: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root takes a directory")?))
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline takes a file")?))
            }
            "--update-baseline" => args.update_baseline = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: relm_lint [--root DIR] [--baseline FILE] [--update-baseline] [--quiet]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root {
        Some(root) => root,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(err) => {
                    eprintln!("relm_lint: cannot read current dir: {err}");
                    return ExitCode::from(2);
                }
            };
            match find_root(&cwd) {
                Ok(root) => root,
                Err(err) => {
                    eprintln!("relm_lint: {err}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let baseline_path = args.baseline.unwrap_or_else(|| root.join("lint.baseline"));
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();

    let sources = match load_sources(&root) {
        Ok(sources) => sources,
        Err(err) => {
            eprintln!("relm_lint: {err}");
            return ExitCode::from(2);
        }
    };
    let baseline = Baseline::parse(&baseline_text);
    let report = run(&sources, &baseline);

    if args.update_baseline {
        // Merge fingerprints conservatively: a changed fingerprint
        // *without* a version bump keeps the old entry, so the drift
        // finding survives the update — bumping the version constant in
        // source is the only way to accept a wire-format change.
        let mut wire = report.wire.clone();
        for (name, &(fp_old, ver_old)) in &baseline.wire {
            if let Some(&(fp_new, ver_new)) = wire.get(name) {
                if fp_new != fp_old && ver_new == ver_old {
                    wire.insert(name.clone(), (fp_old, ver_old));
                }
            }
        }
        let accepted: Vec<_> = report
            .unfiltered
            .iter()
            .filter(|f| baselinable(f))
            .cloned()
            .collect();
        let text = Baseline::render(&accepted, &wire);
        if let Err(err) = std::fs::write(&baseline_path, &text) {
            eprintln!("relm_lint: writing {}: {err}", baseline_path.display());
            return ExitCode::from(2);
        }
        // Re-run against the fresh baseline: whatever still fires can
        // only be resolved in source (panics, unsafe, unbumped drift).
        let after = run(&sources, &Baseline::parse(&text));
        println!(
            "relm_lint: baseline updated ({} accepted, {} finding(s) remain)",
            accepted.len(),
            after.findings.len()
        );
        if !args.quiet {
            for f in &after.findings {
                println!("{}", f.render());
            }
        }
        println!("{}", after.summary_json());
        return if after.findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    if !args.quiet {
        for f in &report.findings {
            println!("{}", f.render());
        }
        for line in report.lock_graph_lines() {
            println!("{line}");
        }
    }
    let stale = stale_baseline(&report, &baseline);
    for key in &stale {
        println!("stale baseline entry (finding fixed — delete or --update-baseline): {key}");
    }
    println!("{}", report.summary_json());
    let clean = report.findings.is_empty() && stale.is_empty();
    if clean {
        println!(
            "relm_lint: clean — {} files, {} lines, {} panic sites all annotated or test-only",
            report.files_scanned, report.lines_scanned, report.counts.panic_sites
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "relm_lint: {} finding(s), {} stale baseline entr(ies)",
            report.findings.len(),
            stale.len()
        );
        ExitCode::from(1)
    }
}
