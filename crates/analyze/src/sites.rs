//! Token-pattern analyses: panic-freedom, determinism (clock / env /
//! OS-RNG / host core count), and bit-exactness of formatted scores.
//! Each site either carries a `lint: allow(family, "…")` annotation,
//! matches a baseline entry, or becomes a finding.

use crate::findings::{Family, Finding};
use crate::lexer::TokKind;
use crate::scan::SourceFile;

/// Method names that panic when called on the wrong variant.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that are a panic by definition.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Crates whose output is part of a byte-identity proof: any
/// dependence on wall clock, environment, or OS randomness there can
/// silently fork warm==cold / sharded==serial / served==solo.
const RESULT_AFFECTING: [&str; 7] = [
    "relm-automata",
    "relm-regex",
    "relm-tokenizer",
    "relm-lm",
    "relm-core",
    "relm-store",
    "relm",
];

/// Identifier names whose *formatting as text* must stay score-like
/// bit-exact: a score printed `{}`/`{:?}` loses bits (17 significant
/// digits are not guaranteed), so wire and report boundaries must use
/// the hex bit-pattern encoders instead.
const SCORE_NAMES: [&str; 6] = ["score", "scores", "log_prob", "log_probs", "logprob", "nll"];

/// Format-like macros whose first argument is a format string.
const FMT_MACROS: [&str; 8] = [
    "format", "print", "println", "eprint", "eprintln", "write", "writeln", "assert",
];

/// Run the per-site families over one file, pushing findings. Sites
/// covered by an in-source `lint: allow` are counted but suppressed
/// here; baseline suppression happens in the driver.
pub fn check(file: &mut SourceFile, findings: &mut Vec<Finding>, counts: &mut SiteCounts) {
    if !file.kind.checked_for_invariants() {
        return;
    }
    let indices: Vec<usize> = file.code_indices().collect();
    for &i in &indices {
        panic_site(file, i, findings, counts);
        nondet_site(file, i, findings, counts);
        float_fmt_site(file, i, findings, counts);
    }
}

/// Per-family site tallies for the machine-readable summary.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteCounts {
    pub panic_sites: u64,
    pub panic_allowed: u64,
    pub nondet_sites: u64,
    pub nondet_allowed: u64,
    pub float_fmt_sites: u64,
}

/// Report a site unless an allow covers it; true when one did.
fn emit(
    file: &mut SourceFile,
    family: Family,
    line: u32,
    token: &str,
    message: String,
    findings: &mut Vec<Finding>,
) -> bool {
    if file.take_allow(family.name(), line).is_some() {
        return true;
    }
    findings.push(Finding {
        family,
        path: file.path.clone(),
        line,
        token: token.to_string(),
        ordinal: 0,
        message,
    });
    false
}

fn panic_site(
    file: &mut SourceFile,
    i: usize,
    findings: &mut Vec<Finding>,
    counts: &mut SiteCounts,
) {
    let tok = &file.toks[i];
    if tok.kind != TokKind::Ident {
        return;
    }
    let next = file.next_code(i).map(|j| file.toks[j].punct());
    let name = tok.text.clone();
    let line = tok.line;
    if PANIC_METHODS.contains(&name.as_str()) {
        let prev_dot = file
            .prev_code(i)
            .is_some_and(|j| file.toks[j].punct() == Some('.'));
        if prev_dot && next == Some(Some('(')) {
            counts.panic_sites += 1;
            if emit(
                file,
                Family::Panic,
                line,
                &name,
                format!("`.{name}()` on a non-test path — return a typed error or justify with `lint: allow(panic, …)`"),
                findings,
            ) {
                counts.panic_allowed += 1;
            }
        }
    } else if PANIC_MACROS.contains(&name.as_str()) && next == Some(Some('!')) {
        counts.panic_sites += 1;
        if emit(
            file,
            Family::Panic,
            line,
            &name,
            format!("`{name}!` on a non-test path — return a typed error or justify with `lint: allow(panic, …)`"),
            findings,
        ) {
            counts.panic_allowed += 1;
        }
    }
}

fn nondet_site(
    file: &mut SourceFile,
    i: usize,
    findings: &mut Vec<Finding>,
    counts: &mut SiteCounts,
) {
    if !RESULT_AFFECTING.contains(&file.crate_name.as_str()) {
        return;
    }
    let tok = &file.toks[i];
    if tok.kind != TokKind::Ident {
        return;
    }
    let line = tok.line;
    // `Instant::now` / `SystemTime::now` — a wall-clock read.
    let clock = match tok.text.as_str() {
        "Instant" | "SystemTime" => {
            let c1 = file.next_code(i);
            let c2 = c1.and_then(|j| file.next_code(j));
            let c3 = c2.and_then(|j| file.next_code(j));
            matches!(
                (c1, c2, c3),
                (Some(a), Some(b), Some(c))
                    if file.toks[a].punct() == Some(':')
                        && file.toks[b].punct() == Some(':')
                        && file.toks[c].text == "now"
            )
        }
        _ => false,
    };
    // `env::var` / `env::var_os` / `env::vars` — ambient configuration.
    let env_read = tok.text == "env" && {
        let c1 = file.next_code(i);
        let c2 = c1.and_then(|j| file.next_code(j));
        let c3 = c2.and_then(|j| file.next_code(j));
        matches!(
            (c1, c2, c3),
            (Some(a), Some(b), Some(c))
                if file.toks[a].punct() == Some(':')
                    && file.toks[b].punct() == Some(':')
                    && file.toks[c].text.starts_with("var")
        )
    };
    // OS randomness by any name.
    let os_rng = matches!(
        tok.text.as_str(),
        "OsRng" | "ThreadRng" | "thread_rng" | "from_entropy"
    );
    // `available_parallelism()` — the host's core count.
    let cores = tok.text == "available_parallelism"
        && file
            .next_code(i)
            .is_some_and(|j| file.toks[j].punct() == Some('('));
    let (token, what) = if clock {
        (format!("{}::now", tok.text), "wall-clock read")
    } else if env_read {
        ("env::var".to_string(), "environment read")
    } else if os_rng {
        (tok.text.clone(), "OS randomness")
    } else if cores {
        (tok.text.clone(), "host core count")
    } else {
        return;
    };
    counts.nondet_sites += 1;
    if emit(
        file,
        Family::Nondet,
        line,
        &token,
        format!(
            "{what} in result-affecting crate `{}` — results must be a pure function of inputs",
            file.crate_name
        ),
        findings,
    ) {
        counts.nondet_allowed += 1;
    }
}

/// Flag format-macro calls that push a score-named value through a
/// lossy `{}`/`{:?}`/`{:.N}` placeholder in the crates where scores
/// live. The wire and every report boundary carry scores as IEEE-754
/// bit patterns (hex) precisely so equality proofs can diff output.
fn float_fmt_site(
    file: &mut SourceFile,
    i: usize,
    findings: &mut Vec<Finding>,
    counts: &mut SiteCounts,
) {
    let in_scope =
        RESULT_AFFECTING.contains(&file.crate_name.as_str()) || file.crate_name == "relm-serve";
    if !in_scope {
        return;
    }
    let tok = &file.toks[i];
    if tok.kind != TokKind::Ident || !FMT_MACROS.contains(&tok.text.as_str()) {
        return;
    }
    let Some(bang) = file.next_code(i) else {
        return;
    };
    if file.toks[bang].punct() != Some('!') {
        return;
    }
    let Some(open) = file.next_code(bang) else {
        return;
    };
    if file.toks[open].punct() != Some('(') {
        return;
    }
    // Collect the argument tokens to the matching `)`.
    let mut depth = 0i64;
    let mut args: Vec<usize> = Vec::new();
    let mut j = open;
    loop {
        match file.toks[j].punct() {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        args.push(j);
        j = match file.next_code(j) {
            Some(n) => n,
            None => break,
        };
    }
    // The format string: first string literal among the args.
    let Some(&fmt_idx) = args
        .iter()
        .find(|&&k| matches!(file.toks[k].kind, TokKind::Str | TokKind::RawStr))
    else {
        return;
    };
    let fmt = file.toks[fmt_idx].text.clone();
    let lossy = lossy_placeholders(&fmt);
    if lossy.is_empty() {
        return;
    }
    // Inline named placeholders (`{score}`) or score-named idents in
    // the trailing argument list.
    let named_hit = lossy
        .iter()
        .any(|name| !name.is_empty() && SCORE_NAMES.iter().any(|s| name.contains(s)));
    let positional = lossy.iter().any(|name| name.is_empty());
    let arg_hit = positional
        && args.iter().skip_while(|&&k| k != fmt_idx).any(|&k| {
            file.toks[k].kind == TokKind::Ident
                && SCORE_NAMES.iter().any(|s| file.toks[k].text.contains(s))
        });
    if !(named_hit || arg_hit) {
        return;
    }
    let line = file.toks[i].line;
    counts.float_fmt_sites += 1;
    emit(
        file,
        Family::FloatFmt,
        line,
        "score_fmt",
        "score formatted with a lossy placeholder — encode as IEEE-754 bits (`{:016x}` of `to_bits()`) at wire/report boundaries".to_string(),
        findings,
    );
}

/// Names inside `{…}` placeholders that format via `Display`/`Debug`
/// or decimal precision (all lossy for f64); hex/binary bit formats
/// (`:x`, `:016x`, `:b`) are exact and skipped. `{{` escapes ignored.
fn lossy_placeholders(fmt: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = fmt.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '}' {
                j += 1;
            }
            let inner: String = chars[i + 1..j.min(chars.len())].iter().collect();
            let (name, spec) = match inner.split_once(':') {
                Some((n, s)) => (n.to_string(), s.to_string()),
                None => (inner.clone(), String::new()),
            };
            let exact = spec.ends_with('x') || spec.ends_with('X') || spec.ends_with('b');
            if !exact {
                out.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// The workspace-wide unsafe check: every non-shim crate root must
/// open with `#![forbid(unsafe_code)]`, and no scanned file may
/// contain the `unsafe` keyword at all (shims included — the whole
/// point of a shim is that it is boring).
pub fn check_unsafe(file: &mut SourceFile, is_root: bool, findings: &mut Vec<Finding>) {
    if !file.kind.checked_for_unsafe() {
        return;
    }
    if is_root && !file.has_forbid_unsafe() {
        findings.push(Finding {
            family: Family::UnsafeCode,
            path: file.path.clone(),
            line: 1,
            token: "missing_forbid".into(),
            ordinal: 0,
            message: "crate root lacks `#![forbid(unsafe_code)]`".into(),
        });
    }
    let hits: Vec<u32> = file
        .code_indices()
        .filter(|&i| file.toks[i].text == "unsafe")
        .map(|i| file.toks[i].line)
        .collect();
    for line in hits {
        findings.push(Finding {
            family: Family::UnsafeCode,
            path: file.path.clone(),
            line,
            token: "unsafe".into(),
            ordinal: 0,
            message: "`unsafe` is forbidden workspace-wide".into(),
        });
    }
}

/// Findings for allow annotations that suppressed nothing.
pub fn unused_allows(file: &SourceFile, findings: &mut Vec<Finding>) {
    for allow in &file.allows {
        if !allow.used {
            findings.push(Finding {
                family: Family::UnusedAllow,
                path: file.path.clone(),
                line: allow.line,
                token: allow.family.clone(),
                ordinal: 0,
                message: format!(
                    "`lint: allow({}, …)` matched no finding — stale annotation",
                    allow.family
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileKind;

    fn run(src: &str) -> (Vec<Finding>, SiteCounts) {
        run_in("relm-core", src)
    }

    fn run_in(krate: &str, src: &str) -> (Vec<Finding>, SiteCounts) {
        let mut file = SourceFile::with_kind("x.rs", src, FileKind::Lib, krate);
        let mut findings = Vec::new();
        let mut counts = SiteCounts::default();
        check(&mut file, &mut findings, &mut counts);
        unused_allows(&file, &mut findings);
        (findings, counts)
    }

    #[test]
    fn unwrap_fires_and_allow_suppresses_exactly_one() {
        let (f, c) = run("fn f() { a.unwrap(); b.unwrap(); }");
        assert_eq!(f.len(), 2);
        assert_eq!(c.panic_sites, 2);
        let (f, c) = run(
            "fn f() {\n a.unwrap(); // lint: allow(panic, \"a is Some by construction\")\n b.unwrap(); }",
        );
        assert_eq!(f.len(), 1, "one suppressed, one reported");
        assert_eq!(c.panic_allowed, 1);
    }

    #[test]
    fn unwrap_inside_string_or_comment_is_silent() {
        let (f, _) =
            run(r##"fn f() { let s = "x.unwrap()"; let r = r#"y.unwrap()"#; } // z.unwrap()"##);
        assert!(f.is_empty());
    }

    #[test]
    fn panic_macros_fire_but_field_named_panic_does_not() {
        let (f, _) = run("fn f() { panic!(\"boom\"); }");
        assert_eq!(f.len(), 1);
        let (f, _) = run("fn f() { let x = cfg.panic; unreachable(); }");
        assert!(f.is_empty(), "no `!`, no finding: {f:?}");
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let (f, _) = run("fn f() { a.unwrap_or(0); b.unwrap_or_else(g); c.unwrap_or_default(); }");
        assert!(f.is_empty());
    }

    #[test]
    fn nondet_clock_env_rng_fire_only_in_result_affecting_crates() {
        let src =
            "fn f() { let t = Instant::now(); let v = env::var(\"X\"); let r = thread_rng(); \
                   let n = std::thread::available_parallelism(); }";
        let (f, c) = run(src);
        assert_eq!(f.len(), 4);
        assert_eq!(c.nondet_sites, 4);
        assert_eq!(f[3].token, "available_parallelism");
        let (f, _) = run_in("relm-serve", src);
        assert!(f.is_empty(), "serve may read the clock");
        let (f, _) = run("fn f(d: Option<Instant>) {}");
        assert!(f.is_empty(), "Instant as a type is fine");
    }

    #[test]
    fn score_formatting_fires_on_lossy_placeholders_only() {
        let (f, _) = run("fn f() { println!(\"{}\", score); }");
        assert_eq!(f.len(), 1);
        let (f, _) = run("fn f() { println!(\"{score:?}\"); }");
        assert_eq!(f.len(), 1);
        let (f, _) = run("fn f() { println!(\"{:016x}\", score.to_bits()); }");
        assert!(f.is_empty(), "hex bit pattern is exact");
        let (f, _) = run("fn f() { println!(\"{}\", hits); }");
        assert!(f.is_empty(), "non-score idents are fine");
    }

    #[test]
    fn unused_allow_is_reported() {
        let (f, _) = run("// lint: allow(panic, \"nothing here\")\nfn f() {}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].family, Family::UnusedAllow);
    }

    #[test]
    fn unsafe_check_flags_keyword_and_missing_root_attr() {
        let mut file =
            SourceFile::with_kind("crates/x/src/lib.rs", "fn f() {}", FileKind::Lib, "x");
        let mut findings = Vec::new();
        check_unsafe(&mut file, true, &mut findings);
        assert_eq!(findings.len(), 1, "missing forbid");
        let src = "#![forbid(unsafe_code)]\nfn f() { unsafe { } }";
        let mut file = SourceFile::with_kind("crates/x/src/lib.rs", src, FileKind::Lib, "x");
        let mut findings = Vec::new();
        check_unsafe(&mut file, true, &mut findings);
        assert_eq!(findings.len(), 1, "unsafe keyword");
    }
}
