//! Fixture tests: every diagnostic family fires on a known-bad source,
//! stays silent on the corresponding known-good source, and each
//! `lint: allow` annotation suppresses exactly one finding. These are
//! the linter's own acceptance tests — the self-hosted run over the
//! real workspace only proves the absence of findings there, not that
//! the analyses would notice a regression.

#![forbid(unsafe_code)]

use relm_analyze::findings::{Baseline, Family, Finding};
use relm_analyze::workspace::{run, Report};

/// Lint one synthetic file (library code in a result-affecting crate)
/// against an empty baseline.
fn lint(path: &str, src: &str) -> Vec<Finding> {
    report(path, src).findings
}

fn report(path: &str, src: &str) -> Report {
    run(&[(path.to_string(), src.to_string())], &Baseline::parse(""))
}

fn count(findings: &[Finding], family: Family) -> usize {
    findings.iter().filter(|f| f.family == family).count()
}

#[test]
fn every_panic_construct_fires() {
    for (src, token) in [
        ("fn f() { x.unwrap(); }", "unwrap"),
        ("fn f() { x.expect(\"why\"); }", "expect"),
        ("fn f() { panic!(\"boom\"); }", "panic"),
        ("fn f() { unreachable!(); }", "unreachable"),
        ("fn f() { todo!(); }", "todo"),
        ("fn f() { unimplemented!(); }", "unimplemented"),
    ] {
        let findings = lint("crates/core/src/a.rs", src);
        assert_eq!(count(&findings, Family::Panic), 1, "{src}");
        assert_eq!(findings[0].token, token, "{src}");
    }
}

#[test]
fn test_regions_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n\
               #[test]\nfn g() { y.unwrap(); }\n";
    assert_eq!(count(&lint("crates/core/src/a.rs", src), Family::Panic), 0);
}

#[test]
fn bench_example_and_shim_files_are_exempt() {
    for path in [
        "crates/bench/src/lib.rs",
        "examples/demo.rs",
        "crates/x/benches/b.rs",
        "crates/x/tests/t.rs",
        "crates/shims/proptest/src/lib.rs",
    ] {
        let findings = lint(path, "#![forbid(unsafe_code)]\nfn f() { x.unwrap(); }");
        assert_eq!(count(&findings, Family::Panic), 0, "{path}");
    }
}

#[test]
fn lexer_keeps_tokens_out_of_strings_and_comments() {
    // `.unwrap()` spelled inside raw strings, strings, comments, and
    // doc comments is text, not code.
    let src = "fn f() {\n let s = r#\"x.unwrap()\"#;\n let t = \"y.unwrap()\";\n\
               // z.unwrap()\n /* a.unwrap() /* nested.unwrap() */ */\n}\n\
               /// doc.unwrap()\nfn g() {}\n";
    assert_eq!(count(&lint("crates/core/src/a.rs", src), Family::Panic), 0);
}

#[test]
fn allow_suppresses_exactly_one_finding() {
    let src = "fn f() {\n a.unwrap(); // lint: allow(panic, \"checked above\")\n b.unwrap();\n}";
    let findings = lint("crates/core/src/a.rs", src);
    assert_eq!(count(&findings, Family::Panic), 1, "{findings:?}");
    assert_eq!(
        findings[0].line, 3,
        "the unannotated unwrap is the survivor"
    );
}

#[test]
fn allow_on_the_line_above_also_binds() {
    let src = "fn f() {\n // lint: allow(panic, \"checked\")\n a.unwrap();\n}";
    assert_eq!(count(&lint("crates/core/src/a.rs", src), Family::Panic), 0);
}

#[test]
fn unused_allow_is_itself_a_finding() {
    let src = "// lint: allow(panic, \"nothing here\")\nfn f() {}\n";
    let findings = lint("crates/core/src/a.rs", src);
    assert_eq!(count(&findings, Family::UnusedAllow), 1);
}

#[test]
fn prose_mentioning_the_syntax_is_not_an_annotation() {
    // No family keyword, or no quoted reason: documentation, not an
    // annotation — and not an unused-allow finding either.
    let src = "/// write `lint: allow(family, \"why\")` next to the call\n\
               // lint: allow(panic)\nfn f() {}\n";
    assert_eq!(lint("crates/core/src/a.rs", src).len(), 0);
}

#[test]
fn nondet_fires_only_in_result_affecting_crates() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    let in_core = lint("crates/core/src/a.rs", src);
    assert_eq!(count(&in_core, Family::Nondet), 1, "{in_core:?}");
    // relm-serve measures latency for reports; wall time there is fine.
    let in_serve = lint("crates/serve/src/a.rs", src);
    assert_eq!(count(&in_serve, Family::Nondet), 0, "{in_serve:?}");
}

#[test]
fn nondet_catches_env_and_os_rng() {
    for src in [
        "fn f() { let v = std::env::var(\"HOME\"); }",
        "fn f() { let r = rand::thread_rng(); }",
        "fn f() { let t = SystemTime::now(); }",
    ] {
        let findings = lint("crates/lm/src/a.rs", src);
        assert_eq!(count(&findings, Family::Nondet), 1, "{src}");
    }
}

#[test]
fn host_core_count_is_a_nondet_input_allowed_once() {
    let call = "std::thread::available_parallelism().map_or(1, usize::from)";
    let once = format!(
        "fn auto() -> usize {{\n    // lint: allow(nondet, \"read once per process\")\n    {call}\n}}\n"
    );
    let again = format!("fn width() -> usize {{ {call} }}\n");
    let findings = lint_files(&[
        ("crates/automata/src/pool.rs", &once),
        ("crates/lm/src/a.rs", &again),
        // The benchmark reports the host's cores; it computes no result.
        ("benches/e2e/src/harness.rs", &again),
    ]);
    let nondet: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.family == Family::Nondet)
        .collect();
    assert_eq!(nondet.len(), 1, "{findings:?}");
    assert_eq!(nondet[0].path, "crates/lm/src/a.rs");
    assert_eq!(nondet[0].token, "available_parallelism");
    assert_eq!(count(&findings, Family::UnusedAllow), 0, "{findings:?}");
}

#[test]
fn float_fmt_flags_lossy_score_placeholders_only() {
    let bad = "fn f(score: f64) { println!(\"score={}\", score); }";
    assert_eq!(count(&lint("crates/lm/src/a.rs", bad), Family::FloatFmt), 1);
    let bad_named = "fn f(log_prob: f64) { println!(\"lp={log_prob:.4}\"); }";
    assert_eq!(
        count(&lint("crates/lm/src/a.rs", bad_named), Family::FloatFmt),
        1
    );
    let good_hex = "fn f(score: f64) { println!(\"bits={:016x}\", score.to_bits()); }";
    assert_eq!(
        count(&lint("crates/lm/src/a.rs", good_hex), Family::FloatFmt),
        0
    );
    let good_name = "fn f(elapsed: f64) { println!(\"t={elapsed:.2}\"); }";
    assert_eq!(
        count(&lint("crates/lm/src/a.rs", good_name), Family::FloatFmt),
        0
    );
}

#[test]
fn unsafe_code_and_missing_forbid_fire() {
    let missing = lint("crates/x/src/lib.rs", "pub fn f() {}");
    assert_eq!(count(&missing, Family::UnsafeCode), 1, "{missing:?}");
    let present = lint(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}",
    );
    assert_eq!(count(&present, Family::UnsafeCode), 0, "{present:?}");
    let keyword = lint(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() { unsafe { } }",
    );
    assert_eq!(count(&keyword, Family::UnsafeCode), 1, "{keyword:?}");
}

#[test]
fn lock_order_inversion_and_cycles_are_findings() {
    // `table` (cache) held while taking `plans` (memo) inverts the
    // blessed hierarchy.
    let inverted = "fn f(&self) { let g = self.table.lock(); self.plans.lock().len(); }";
    let r = report("crates/core/src/a.rs", inverted);
    assert!(r.findings.iter().any(|f| f.family == Family::LockOrder));
    let summary = r.summary_json();
    assert!(
        summary.contains("\"lock_cycle\": false"),
        "one inverted edge is not a cycle: {summary}"
    );

    let cyclic = "fn a(&self) { let g = self.plans.lock(); self.table.lock().len(); }\n\
                  fn b(&self) { let g = self.table.lock(); self.plans.lock().len(); }";
    let r = report("crates/core/src/a.rs", cyclic);
    assert!(r.summary_json().contains("\"lock_cycle\": true"));
    assert!(r.findings.iter().any(|f| f.token == "cycle"));
    assert!(
        r.lock_graph_lines().iter().any(|l| l.contains("CYCLE")),
        "{:?}",
        r.lock_graph_lines()
    );

    let blessed = "fn f(&self) { let g = self.plans.lock(); self.table.lock().len(); }";
    let r = report("crates/core/src/a.rs", blessed);
    assert_eq!(count(&r.findings, Family::LockOrder), 0, "{:?}", r.findings);
    assert!(r
        .lock_graph_lines()
        .iter()
        .any(|l| l.contains("cycle-free")));
}

/// A minimal stand-in for the watched artifact schema file.
fn artifact_fixture(version: u32, extra_field: bool) -> String {
    let extra = if extra_field { " pub v2: u64," } else { "" };
    format!(
        "pub const FORMAT_VERSION: u32 = {version};\n\
         pub struct ArtifactKey {{ pub pattern: String, }}\n\
         pub struct PlanArtifact {{ pub key: ArtifactKey,{extra} }}\n\
         pub struct CacheArtifact {{ pub generation: u64, }}\n"
    )
}

#[test]
fn wire_drift_requires_a_version_bump() {
    let path = "crates/store/src/artifact.rs";
    // Bootstrap: no fingerprints on file yet.
    let first = report(path, &artifact_fixture(1, false));
    assert_eq!(
        count(&first.findings, Family::Wire),
        3,
        "{:?}",
        first.findings
    );

    // Record the fingerprints; the same source is then clean.
    let accepted = Baseline::render(&[], &first.wire);
    let clean = run(
        &[(path.to_string(), artifact_fixture(1, false))],
        &Baseline::parse(&accepted),
    );
    assert_eq!(
        count(&clean.findings, Family::Wire),
        0,
        "{:?}",
        clean.findings
    );

    // Grow PlanArtifact without bumping FORMAT_VERSION: drift finding.
    let drifted = run(
        &[(path.to_string(), artifact_fixture(1, true))],
        &Baseline::parse(&accepted),
    );
    assert_eq!(
        count(&drifted.findings, Family::Wire),
        1,
        "{:?}",
        drifted.findings
    );
    assert!(drifted.findings[0].message.contains("bump"));

    // Same edit with the bump: accepted.
    let bumped = run(
        &[(path.to_string(), artifact_fixture(2, true))],
        &Baseline::parse(&accepted),
    );
    assert_eq!(
        count(&bumped.findings, Family::Wire),
        0,
        "{:?}",
        bumped.findings
    );
}

#[test]
fn panic_findings_cannot_be_baselined() {
    let src = "fn f() { x.unwrap(); }";
    let path = "crates/core/src/a.rs";
    let first = report(path, src);
    assert_eq!(count(&first.findings, Family::Panic), 1);
    // Forge a baseline accepting the exact panic key; the finding must
    // survive anyway.
    let forged = format!("{}\n", first.findings[0].key());
    let again = run(
        &[(path.to_string(), src.to_string())],
        &Baseline::parse(&forged),
    );
    assert_eq!(
        count(&again.findings, Family::Panic),
        1,
        "{:?}",
        again.findings
    );
}

#[test]
fn summary_json_is_stable_and_machine_readable() {
    let r = report("crates/core/src/a.rs", "fn f() { x.unwrap(); }");
    let line = r.summary_json();
    assert!(line.starts_with("LINT_JSON {"), "{line}");
    for key in [
        "\"files\":",
        "\"panic_sites\":",
        "\"lock_cycle\":",
        "\"wire_types\":",
        "\"findings\":",
    ] {
        assert!(line.contains(key), "{line} missing {key}");
    }
}

/// Lint several synthetic files together against an empty baseline.
fn lint_files(files: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(path, src)| (path.to_string(), src.to_string()))
        .collect();
    run(&sources, &Baseline::parse("")).findings
}

/// The names `dead_pub` reports over `files`.
fn dead(files: &[(&str, &str)]) -> Vec<String> {
    let findings = lint_files(files);
    let dead = findings.iter().filter(|f| f.family == Family::DeadPub);
    dead.map(|f| f.token.clone()).collect()
}

const LIB: &str = "crates/core/src/a.rs";
const ITEMS: &str = "pub fn helper() {}\n\
                     pub struct Shape { pub width: u32, height: u32 }\n\
                     fn local() -> u32 { helper(); Shape { width: 1, height: 2 }.height }\n";
const USER: &str = "fn main() { helper(); let s: Shape = make(); s.width; }";

#[test]
fn dead_pub_fires_on_unreferenced_fn_type_and_field() {
    // Uses inside the item's own file do not count.
    assert_eq!(dead(&[(LIB, ITEMS)]), ["helper", "Shape", "width"]);
}

#[test]
fn dead_pub_fires_on_items_only_their_own_crates_tests_use() {
    let cfg_test = format!("#[cfg(test)]\nmod tests {{ {USER} }}");
    for (path, src) in [
        ("crates/core/tests/t.rs", USER),
        ("crates/core/src/b.rs", cfg_test.as_str()),
        // Re-exporting is not using, and neither is the facade snapshot.
        (
            "crates/core/src/lib.rs",
            "pub use a::{helper, Shape};\npub use a::width;",
        ),
        ("tests/api_surface.rs", USER),
        // Nor is a vendored shim, which cannot depend on the workspace.
        ("crates/shims/rand/src/lib.rs", USER),
    ] {
        assert_eq!(dead(&[(LIB, ITEMS), (path, src)]).len(), 3, "{path}");
    }
}

#[test]
fn dead_pub_is_silent_when_any_other_user_names_the_item() {
    let cfg_test = format!("#[cfg(test)]\nmod tests {{ {USER} }}");
    for (path, src) in [
        ("crates/serve/src/b.rs", USER),
        ("crates/serve/src/bin/server.rs", USER),
        ("examples/demo.rs", USER),
        ("crates/bench/src/fig.rs", USER),
        ("benches/e2e/src/harness.rs", USER),
        ("crates/core/src/b.rs", USER),
        ("tests/client.rs", USER),
        // Another crate's test regions are callers too.
        ("benches/e2e/src/harness.rs", cfg_test.as_str()),
    ] {
        assert!(dead(&[(LIB, ITEMS), (path, src)]).is_empty(), "{path}");
    }
    // So are doc examples, though not a signature's own item.
    let doc =
        "/// ```\n/// helper(); let s: Shape = make(); s.width;\n/// ```\npub fn documented() {}";
    assert_eq!(
        dead(&[(LIB, ITEMS), ("crates/serve/src/b.rs", doc)]),
        ["documented"]
    );
}

#[test]
fn dead_pub_counts_uses_of_a_name_not_bindings_of_it() {
    let items = "pub fn reverse() {}\npub struct Shape { pub width: u32 }\n";
    // Each binds, reads or declares a local or field of the same name.
    for src in [
        "fn trim() { let mut reverse = Vec::new(); reverse.push(1); }",
        "fn trim(reverse: &[u8], width: u32) -> usize { reverse.len() }",
        "struct Other { reverse: u8, width: u32 }",
        "enum E { A { width: u32 } }",
        "fn f(x: &[u8]) -> Vec<u8> { x.iter().map(|reverse| reverse + 1).collect() }",
        "fn f(x: Option<u8>) -> u8 { match x { Some(reverse) => reverse, None => 0 } }",
        "fn f(x: &[u8]) { for (reverse, width) in x.iter().enumerate() { g(reverse, width); } }",
        "fn f(x: Option<u8>) { if let Some(reverse) = x { g(reverse); } }",
        "fn reverse() {}",
    ] {
        assert_eq!(
            dead(&[(LIB, items), ("crates/serve/src/b.rs", src)]),
            ["reverse", "Shape", "width"],
            "{src}"
        );
    }
    // A path, a call, a method call, a fn value, a `use`, a field
    // access, a struct literal and a type position each name it.
    for (src, live) in [
        ("fn f() { a::reverse(); }", "reverse"),
        ("fn f() { reverse(); }", "reverse"),
        ("fn f(v: &mut Vec<u8>) { v.reverse(); }", "reverse"),
        ("fn f(x: &[u8]) { x.iter().map(reverse); }", "reverse"),
        ("use relm_core::reverse;", "reverse"),
        ("fn f(s: &S) -> u32 { s.width }", "width"),
        ("fn f() -> S { S { width: 1 } }", "width"),
        ("fn f(s: &mut Shape) {}", "Shape"),
        ("fn f() { let s: Shape = make(); }", "Shape"),
    ] {
        let dead = dead(&[(LIB, items), ("crates/serve/src/b.rs", src)]);
        assert!(!dead.iter().any(|d| d == live), "{src}: {dead:?}");
        assert_eq!(dead.len(), 2, "{src}: {dead:?}");
    }
}

#[test]
fn dead_pub_reaches_types_through_live_fn_signatures() {
    let src = "pub struct Config;\npub fn build(config: Config) {}\npub fn unused(c: Config) {}";
    let files = [(LIB, src), ("examples/demo.rs", "fn main() { build(x); }")];
    assert_eq!(dead(&files), ["unused"]);
}

#[test]
fn dead_pub_allow_binds_one_finding_and_a_stale_one_is_reported() {
    let src = "// lint: allow(dead_pub, \"the oracle in tests/o.rs compares against it\")\n\
               pub fn reference() {}\npub fn other() {}\n";
    assert_eq!(dead(&[(LIB, src)]), ["other"]);
    let stale = "// lint: allow(dead_pub, \"no longer needed\")\npub fn used() {}\n";
    let findings = lint_files(&[(LIB, stale), ("examples/demo.rs", "fn main() { used(); }")]);
    assert_eq!(count(&findings, Family::DeadPub), 0, "{findings:?}");
    assert_eq!(count(&findings, Family::UnusedAllow), 1, "{findings:?}");
}

#[test]
fn dead_pub_findings_cannot_be_baselined() {
    let first = report(LIB, "pub fn helper() {}");
    let forged = Baseline::parse(&format!("{}\n", first.findings[0].key()));
    let again = run(&[(LIB.into(), "pub fn helper() {}".into())], &forged);
    assert_eq!(again.findings.len(), 1, "{:?}", again.findings);
    assert_eq!(again.findings[0].family, Family::DeadPub);
}

#[test]
fn summary_counts_pub_items_and_knobs() {
    // Items: ServeConfig, port, Other, x, start. Knobs: the three fields
    // of the one `pub` struct named `*Config`, whatever their visibility.
    let src = "pub struct ServeConfig { pub port: u16, limit: usize, pub(crate) name: String }\n\
               pub struct Other { pub x: u8 }\npub fn start(config: ServeConfig) {}\n";
    let line = report(LIB, src).summary_json();
    assert!(line.contains("\"pub_items\": 5,"), "{line}");
    assert!(line.contains("\"knobs\": 3,"), "{line}");
}

/// The `"key": N` count of a `LINT_JSON` line.
fn summary_count(line: &str, key: &str) -> u64 {
    let tail = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("a count")
}

#[test]
fn summary_counts_library_lines_outside_tests() {
    // Five lines, four of them the test module: one library line.
    let lib = "pub fn live() {}\n\
               #[cfg(test)]\n\
               mod tests {\n    #[test] fn t() {}\n}\n";
    let bin = "fn main() {}\n\n// done\n";
    let sources: Vec<(String, String)> = [
        (LIB, lib),
        ("crates/core/src/bin/tool.rs", bin),
        (
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod oracle;\nmod a;\n",
        ),
        (
            "crates/core/src/oracle.rs",
            "fn reference() {}\nfn more() {}\n",
        ),
        ("crates/core/tests/t.rs", "#[test]\nfn t() {}\n"),
        ("examples/demo.rs", "fn main() {}\n"),
        ("benches/e2e/src/main.rs", "fn main() {}\n"),
        ("crates/shims/rand/src/lib.rs", "pub fn r() {}\n"),
    ]
    .iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let line = run(&sources, &Baseline::parse("")).summary_json();
    // a.rs: 1, the bin: 3, lib.rs: 1 (`mod a;`); oracle.rs is a test
    // module, and tests, examples, benches and shims are not counted.
    assert_eq!(summary_count(&line, "lib_lines"), 5, "{line}");
    assert_eq!(summary_count(&line, "lines"), 18, "{line}");
    // Two regions on one line count that line once.
    let one_line = "#[test] fn a() {} fn live() {} #[test] fn b() {}\nfn c() {}\n";
    let line = report(LIB, one_line).summary_json();
    assert_eq!(summary_count(&line, "lib_lines"), 1, "{line}");
}
