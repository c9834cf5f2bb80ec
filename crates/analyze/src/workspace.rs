//! Whole-workspace orchestration: discover `.rs` files, run every
//! family, apply the baseline, and produce the report + summary.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::findings::{assign_ordinals, Baseline, Family, Finding};
use crate::locks::{self, LockReport};
use crate::reach::{self, SurfaceCounts};
use crate::scan::{is_crate_root, FileKind, SourceFile};
use crate::sites::{self, SiteCounts};
use crate::wire::{self, Fingerprints};

/// Directories never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".github", "node_modules"];

/// A full lint run over one workspace root.
#[derive(Debug)]
pub struct Report {
    /// Findings after allow-annotation and baseline suppression,
    /// sorted by path then line.
    pub findings: Vec<Finding>,
    /// All findings that survived allows (pre-baseline) — what
    /// `--update-baseline` records.
    pub unfiltered: Vec<Finding>,
    pub counts: SiteCounts,
    surface: SurfaceCounts,
    locks: LockReport,
    pub wire: Fingerprints,
    pub files_scanned: u64,
    pub lines_scanned: u64,
    /// Lines of library and binary files outside test code: the
    /// product's size, whatever the tests, fixtures, shims and benches
    /// around it weigh.
    lib_lines: u64,
    pub allows: u64,
    baseline_entries: u64,
}

impl Report {
    /// The stable machine-readable summary (BENCH_JSON-style): one
    /// line future PRs can diff to track invariant debt.
    pub fn summary_json(&self) -> String {
        let c = &self.counts;
        format!(
            "LINT_JSON {{\"files\": {}, \"lines\": {}, \"lib_lines\": {}, \"panic_sites\": {}, \
             \"panic_allowed\": {}, \
             \"nondet_sites\": {}, \"nondet_allowed\": {}, \"float_fmt_sites\": {}, \
             \"lock_sites\": {}, \"lock_classes\": {}, \"lock_edges\": {}, \"lock_cycle\": {}, \
             \"ambiguous_calls\": {}, \"wire_types\": {}, \"functions\": {}, \"pub_items\": {}, \
             \"knobs\": {}, \"allows\": {}, \"baseline\": {}, \"findings\": {}}}",
            self.files_scanned,
            self.lines_scanned,
            self.lib_lines,
            c.panic_sites,
            c.panic_allowed,
            c.nondet_sites,
            c.nondet_allowed,
            c.float_fmt_sites,
            self.locks.sites,
            self.locks.classes.len(),
            {
                let pairs: BTreeSet<(&str, &str)> = self
                    .locks
                    .edges
                    .iter()
                    .map(|e| (e.from.as_str(), e.to.as_str()))
                    .collect();
                pairs.len()
            },
            if self.locks.cycle.is_some() {
                "true"
            } else {
                "false"
            },
            self.locks.ambiguous_calls,
            self.wire.len(),
            self.locks.functions,
            self.surface.pub_items,
            self.surface.knobs,
            self.allows,
            self.baseline_entries,
            self.findings.len(),
        )
    }

    /// Human-readable lock-graph section, one line per deduped edge,
    /// ending with the verdict line CI greps.
    pub fn lock_graph_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
        for e in &self.locks.edges {
            if seen.insert((e.from.as_str(), e.to.as_str())) {
                out.push(format!(
                    "lock-order edge: {} -> {} ({}:{} {})",
                    e.from, e.to, e.path, e.line, e.via
                ));
            }
        }
        match &self.locks.cycle {
            Some(cycle) => out.push(format!("lock-order graph: CYCLE {}", cycle.join(" -> "))),
            None => out.push(format!(
                "lock-order graph: cycle-free ({} sites, {} classes, {} edges)",
                self.locks.sites,
                self.locks.classes.len(),
                seen.len()
            )),
        }
        out
    }
}

/// Find the workspace root: walk up from `start` until a directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace Cargo.toml above the starting directory",
            ));
        }
    }
}

/// Every `.rs` file under `root`, workspace-relative with forward
/// slashes, sorted for deterministic output.
fn discover(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run every family over the given (path, source) pairs against a
/// parsed baseline. Pure: file loading and baseline IO stay in the
/// caller, so fixture tests can drive this directly.
pub fn run(sources: &[(String, String)], baseline: &Baseline) -> Report {
    let mut files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, text)| SourceFile::new(path, text))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut counts = SiteCounts::default();
    let mut allows = 0u64;
    for file in &mut files {
        sites::check(file, &mut findings, &mut counts);
        let root = is_crate_root(&file.path);
        sites::check_unsafe(file, root, &mut findings);
        allows += file.allows.len() as u64;
    }
    let locks = locks::analyze(&mut files, &mut findings);
    let wire = wire::check(&files, &baseline.wire, &mut findings);
    let surface = reach::check(&mut files, &mut findings);
    for file in &files {
        sites::unused_allows(file, &mut findings);
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.family).cmp(&(b.path.as_str(), b.line, b.family))
    });
    assign_ordinals(&mut findings);
    let unfiltered = findings.clone();

    // Baseline suppression: each accepted key covers one finding.
    // Panic, unsafe and dead_pub findings are never baselinable —
    // they must be fixed or annotated in source, so the acceptance
    // file cannot become a dumping ground for the debt this linter
    // burns down.
    let mut working = baseline.clone();
    let findings: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !(baselinable(f) && working.take(&f.key())))
        .collect();

    Report {
        findings,
        unfiltered,
        counts,
        surface,
        locks,
        wire,
        files_scanned: files.len() as u64,
        lines_scanned: files.iter().map(|f| f.lines as u64).sum(),
        lib_lines: lib_lines(&files),
        allows,
        baseline_entries: baseline.len() as u64,
    }
}

/// Lines outside test code in `FileKind::Lib` and `FileKind::Bin`
/// files; a module declared under `#[cfg(test)]` is test code whole.
fn lib_lines(files: &[SourceFile]) -> u64 {
    let test_modules = reach::test_module_files(files);
    files
        .iter()
        .filter(|f| matches!(f.kind, FileKind::Lib | FileKind::Bin))
        .filter(|f| !test_modules.contains(&f.path))
        .map(|f| u64::from(f.lines_outside_tests()))
        .sum()
}

/// Load every workspace source as `(relative path, text)` pairs.
pub fn load_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for rel in discover(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, text));
    }
    Ok(sources)
}

/// Stale-acceptance check: baseline keys that matched nothing this
/// run (fixed findings whose acceptance should be deleted). Returns
/// the unused keys.
pub fn stale_baseline(report: &Report, baseline: &Baseline) -> Vec<String> {
    let mut working = baseline.clone();
    for f in &report.unfiltered {
        working.take(&f.key());
    }
    working
        .accepted
        .iter()
        .filter(|(_, used)| !used)
        .map(|(k, _)| k.clone())
        .collect()
}

/// May this finding be accepted into the baseline as a key? Panic,
/// unsafe and dead_pub findings may not: they are fixed or annotated
/// in source, never waved through (a baselined dead item is surface
/// the public API keeps with no caller to justify it). Wire findings
/// may not either — their
/// acceptance mechanism is the baseline's `wire-fingerprint` section
/// (plus a version bump in source), not a per-finding key.
pub fn baselinable(finding: &Finding) -> bool {
    !matches!(
        finding.family,
        Family::Panic | Family::UnsafeCode | Family::Wire | Family::DeadPub
    )
}
