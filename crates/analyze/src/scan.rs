//! From a lexed file to an analysis-ready view: file classification,
//! `#[cfg(test)]` / `#[test]` region masking, and `lint: allow`
//! annotation parsing.

use crate::lexer::{lex, Tok};

/// What kind of compilation target a file belongs to. Families apply
/// per kind (see [`FileKind::checked_for_invariants`],
/// [`FileKind::checked_for_unsafe`] and the DESIGN.md catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under a crate's `src/` (including the facade).
    Lib,
    /// A binary root or its modules (`src/bin/*.rs`): production
    /// entry points — served paths live here, so panic-freedom and
    /// determinism apply exactly as for library code.
    Bin,
    /// `examples/*.rs`: demo code; only the unsafe check applies.
    Example,
    /// Files under a `tests/` directory (integration tests, fixtures).
    TestDir,
    /// Files under a `benches/` directory, or anywhere in the
    /// measurement harness crate `crates/bench`.
    Bench,
    /// Vendored dependency stand-ins under `crates/shims/`: scanned
    /// (the lexer and unsafe check still run) but exempt from the
    /// invariant families — real crates.io code would not be linted.
    Shim,
}

impl FileKind {
    /// Whether the invariant families (panic, nondet, float_fmt,
    /// lock_order, wire) apply to this kind of file at all.
    pub fn checked_for_invariants(self) -> bool {
        matches!(self, FileKind::Lib | FileKind::Bin)
    }

    /// Whether the crate-root `#![forbid(unsafe_code)]` requirement is
    /// enforced when this file is a crate root.
    pub fn checked_for_unsafe(self) -> bool {
        !matches!(self, FileKind::Shim)
    }
}

/// Classify a workspace-relative path (forward slashes).
fn classify(rel_path: &str) -> FileKind {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.contains(&"shims") {
        FileKind::Shim
    } else if parts.contains(&"tests") {
        FileKind::TestDir
    } else if parts.contains(&"benches") || rel_path.starts_with("crates/bench/") {
        FileKind::Bench
    } else if parts.first() == Some(&"examples") || parts.contains(&"examples") {
        FileKind::Example
    } else if parts.contains(&"bin") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// The crate a workspace-relative path belongs to (`relm` for the
/// facade's `src/`, `relm-<dir>` for `crates/<dir>/…`).
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some("shims") => format!("shim-{}", parts.next().unwrap_or("unknown")),
            Some(name) => format!("relm-{name}"),
            None => "relm".into(),
        },
        _ => "relm".into(),
    }
}

/// Is this file a crate root (lib root, bin root, example, bench or
/// integration-test root)? Such files must open with
/// `#![forbid(unsafe_code)]`. Modules under `tests/fixtures/` or
/// similar are not roots, so only direct children of the marker
/// directories count.
pub fn is_crate_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let n = parts.len();
    if n >= 2 && parts[n - 2] == "src" && (parts[n - 1] == "lib.rs" || parts[n - 1] == "main.rs") {
        return true;
    }
    n >= 2 && matches!(parts[n - 2], "bin" | "examples" | "benches" | "tests")
}

/// One `// lint: allow(family, "reason")` annotation. It suppresses
/// exactly one finding of `family` on its own line or the line below
/// (so it can trail the site or sit on its own line above it); an
/// annotation that suppresses nothing is itself reported
/// (`unused_allow`), so stale annotations cannot linger.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) family: String,
    reason: String,
    pub(crate) used: bool,
}

/// A lexed, classified, masked file, ready for the analyses.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub kind: FileKind,
    pub crate_name: String,
    pub toks: Vec<Tok>,
    /// `in_test[i]` — token `i` sits inside a `#[cfg(test)]` or
    /// `#[test]` item and is invisible to the invariant families.
    pub in_test: Vec<bool>,
    pub(crate) allows: Vec<Allow>,
    pub lines: u32,
}

impl SourceFile {
    pub fn new(path: &str, source: &str) -> SourceFile {
        let kind = classify(path);
        let crate_name = crate_of(path);
        SourceFile::with_kind(path, source, kind, &crate_name)
    }

    /// A file of a given kind and crate whatever its path (the unit
    /// tests analyze snippets as library code).
    pub(crate) fn with_kind(
        path: &str,
        source: &str,
        kind: FileKind,
        crate_name: &str,
    ) -> SourceFile {
        let toks = lex(source);
        let in_test = test_mask(&toks);
        let allows = parse_allows(&toks, &in_test);
        SourceFile {
            path: path.to_string(),
            kind,
            crate_name: crate_name.to_string(),
            lines: source.lines().count() as u32,
            toks,
            in_test,
            allows,
        }
    }

    /// Lines outside `#[cfg(test)]`/`#[test]` regions: every line,
    /// blank and comment lines included, less the lines from the first
    /// to the last token of each test region.
    pub(crate) fn lines_outside_tests(&self) -> u32 {
        let mut in_tests = 0;
        // The last line counted as test code so far.
        let mut covered = 0;
        let mut i = 0;
        while i < self.toks.len() {
            if !self.in_test[i] {
                i += 1;
                continue;
            }
            let first = self.toks[i].line.max(covered + 1);
            while i + 1 < self.toks.len() && self.in_test[i + 1] {
                i += 1;
            }
            let last = self.toks[i].line;
            if last >= first {
                in_tests += last - first + 1;
                covered = last;
            }
            i += 1;
        }
        self.lines.saturating_sub(in_tests)
    }

    /// Iterate code-token indices outside test regions.
    pub fn code_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.toks.len()).filter(|&i| self.toks[i].is_code() && !self.in_test[i])
    }

    /// The next code-token index after `i` (comments skipped), still
    /// honoring nothing else — test masking is uniform across a region
    /// so neighbors share it.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.toks.len()).find(|&j| self.toks[j].is_code())
    }

    /// The previous code-token index before `i`.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.toks[j].is_code())
    }

    /// Does the file open with `#![forbid(unsafe_code)]`?
    pub fn has_forbid_unsafe(&self) -> bool {
        let code: Vec<&Tok> = self.toks.iter().filter(|t| t.is_code()).collect();
        code.windows(8).any(|w| {
            w[0].punct() == Some('#')
                && w[1].punct() == Some('!')
                && w[2].punct() == Some('[')
                && w[3].text == "forbid"
                && w[4].punct() == Some('(')
                && w[5].text == "unsafe_code"
                && w[6].punct() == Some(')')
                && w[7].punct() == Some(']')
        })
    }

    /// Consume an unused allow of `family` covering `line` (same line
    /// or the line directly above). Returns its reason when found.
    pub fn take_allow(&mut self, family: &str, line: u32) -> Option<String> {
        let hit = self
            .allows
            .iter_mut()
            .find(|a| !a.used && a.family == family && (a.line == line || a.line + 1 == line))?;
        hit.used = true;
        Some(hit.reason.clone())
    }
}

/// Mark every token inside a `#[test]`- or `#[cfg(test)]`-attributed
/// item. Attributes containing `not` (e.g. `#[cfg(not(test))]`) never
/// mask — compiled-in code stays analyzed. The scan is purely
/// token-structural: strings and comments are opaque single tokens, so
/// brace balancing cannot be fooled by literals.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let mut mask = vec![false; toks.len()];
    let punct_at = |ci: usize| -> Option<char> { code.get(ci).and_then(|&i| toks[i].punct()) };
    let mut ci = 0;
    while ci < code.len() {
        if punct_at(ci) != Some('#') || punct_at(ci + 1) != Some('[') {
            ci += 1;
            continue;
        }
        // A run of outer attributes; does any of them demand masking?
        let attr_start = ci;
        let mut is_test = false;
        while punct_at(ci) == Some('#') && punct_at(ci + 1) == Some('[') {
            let close = match matching(toks, &code, ci + 1, '[', ']') {
                Some(close) => close,
                None => return mask, // unterminated attribute: give up cleanly
            };
            let idents: Vec<&str> = code[ci + 2..close]
                .iter()
                .map(|&i| toks[i].text.as_str())
                .collect();
            let negated = idents.contains(&"not");
            let test_attr = idents.first() == Some(&"test")
                || (idents.first() == Some(&"cfg") && idents.contains(&"test"));
            if test_attr && !negated {
                is_test = true;
            }
            ci = close + 1;
        }
        if !is_test {
            continue;
        }
        // Mask from the first attribute through the item's body (`{…}`)
        // or its terminating `;`.
        let mut cj = ci;
        let mut end = code.len().saturating_sub(1);
        while cj < code.len() {
            match punct_at(cj) {
                Some('{') => {
                    end = matching(toks, &code, cj, '{', '}').unwrap_or(code.len() - 1);
                    break;
                }
                Some(';') => {
                    end = cj;
                    break;
                }
                Some('(') => {
                    // Skip parameter lists so a `;`/`{` inside them
                    // (closures in default args) cannot end the item.
                    cj = matching(toks, &code, cj, '(', ')').unwrap_or(code.len() - 1) + 1;
                }
                _ => cj += 1,
            }
        }
        for &i in &code[attr_start..=end.min(code.len() - 1)] {
            mask[i] = true;
        }
        // Comments inside the span are part of the region too.
        if let (Some(&first), Some(&last)) = (code.get(attr_start), code.get(end)) {
            for (i, slot) in mask.iter_mut().enumerate() {
                if i >= first && i <= last {
                    *slot = true;
                }
            }
        }
        ci = end + 1;
    }
    mask
}

/// Index (into `code`) of the bracket matching the opener at `open_ci`.
fn matching(
    toks: &[Tok],
    code: &[usize],
    open_ci: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for (ci, &i) in code.iter().enumerate().skip(open_ci) {
        match toks[i].punct() {
            Some(c) if c == open => depth += 1,
            Some(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(ci);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extract `lint: allow(family, "reason")` annotations from comment
/// tokens outside test regions.
fn parse_allows(toks: &[Tok], in_test: &[bool]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.is_code() || in_test[i] {
            continue;
        }
        let text = &tok.text;
        let Some(at) = text.find("lint: allow(") else {
            continue;
        };
        let rest = &text[at + "lint: allow(".len()..];
        let family: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        // Only the annotatable families, and only with a quoted
        // justification — prose that merely *mentions* the syntax
        // (docs, error messages) must not parse as an annotation.
        if !matches!(
            family.as_str(),
            "panic" | "nondet" | "float_fmt" | "dead_pub"
        ) {
            continue;
        }
        let Some(reason) = rest
            .split_once('"')
            .and_then(|(_, tail)| tail.split_once('"'))
            .map(|(r, _)| r.to_string())
        else {
            continue;
        };
        allows.push(Allow {
            line: tok.line,
            family,
            reason,
            used: false,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_kinds() {
        assert_eq!(classify("crates/core/src/session.rs"), FileKind::Lib);
        assert_eq!(
            classify("crates/serve/src/bin/relm_server.rs"),
            FileKind::Bin
        );
        assert_eq!(classify("src/bin/relm_store.rs"), FileKind::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(classify("tests/session.rs"), FileKind::TestDir);
        assert_eq!(classify("crates/bench/src/bias.rs"), FileKind::Bench);
        assert_eq!(classify("crates/lm/tests/property.rs"), FileKind::TestDir);
        assert_eq!(classify("crates/shims/rand/src/lib.rs"), FileKind::Shim);
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("src/bin/relm_store.rs"));
        assert!(is_crate_root("examples/quickstart.rs"));
        assert!(is_crate_root("tests/session.rs"));
        assert!(!is_crate_root("crates/core/src/session.rs"));
        assert!(!is_crate_root("crates/analyze/tests/fixtures/panics.rs"));
    }

    #[test]
    fn test_mod_is_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n\
                   fn live2() {}";
        let f = SourceFile::with_kind("a.rs", src, FileKind::Lib, "c");
        let unwraps: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.in_test)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let live2 = f.toks.iter().position(|t| t.text == "live2").unwrap();
        assert!(!f.in_test[live2]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let f = SourceFile::with_kind("a.rs", src, FileKind::Lib, "c");
        assert!(f.in_test.iter().all(|&m| !m));
    }

    #[test]
    fn test_fn_with_attrs_after_is_masked() {
        let src = "#[test]\n#[should_panic]\nfn t() { boom(); }\nfn live() {}";
        let f = SourceFile::with_kind("a.rs", src, FileKind::Lib, "c");
        let boom = f.toks.iter().position(|t| t.text == "boom").unwrap();
        let live = f.toks.iter().position(|t| t.text == "live").unwrap();
        assert!(f.in_test[boom]);
        assert!(!f.in_test[live]);
    }

    #[test]
    fn allow_parsing_and_take() {
        let src = "// lint: allow(panic, \"len checked above\")\nfoo.unwrap();";
        let mut f = SourceFile::with_kind("a.rs", src, FileKind::Lib, "c");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(
            f.take_allow("panic", 2).as_deref(),
            Some("len checked above")
        );
        assert!(f.take_allow("panic", 2).is_none(), "allow is single-use");
    }
}
