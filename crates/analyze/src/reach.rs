//! Reachability of the public surface: the `dead_pub` family.
//!
//! Every `pub` fn, method, struct, enum, trait, type alias, const,
//! static and named struct field in a library file (`crates/*/src`,
//! outside `#[cfg(test)]` regions and test-only modules) is an item.
//! An item is live when an identifier token with its name appears in
//! any *other* file, doc-comment examples included, except:
//! - test code of its own crate: its `tests/` directory, its
//!   `#[cfg(test)]` regions and test-only modules (a test of an item
//!   is not a caller of it; another crate's tests are);
//! - `pub use` re-export lines (re-exporting is not using);
//! - `tests/api_surface.rs` (the facade snapshot lists names, it does
//!   not call them).
//!
//! Vendored shims are not callers either: they stand in for external
//! crates, which cannot name workspace items.
//!
//! A type named in the signature of a live `pub fn` of its own file is
//! live through that fn. Everything else — other crates, bins,
//! examples, `crates/bench`, the frozen `benches/e2e` — counts, and any
//! same-named token anywhere counts, so the rule only ever under-reports:
//! a finding is an item no file outside its own could be calling.

use std::collections::BTreeSet;

use crate::findings::{Family, Finding};
use crate::lexer::{lex, TokKind};
use crate::scan::{FileKind, SourceFile};

/// The facade snapshot: a list of names, not a caller.
const SNAPSHOT: &str = "tests/api_surface.rs";

/// Item keywords that may follow `pub` (after `const`/`async`/`unsafe`
/// qualifiers on a fn).
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
/// Keywords after `pub` that are not indexed items.
const SKIPPED: [&str; 6] = ["mod", "use", "crate", "impl", "union", "extern"];

/// Public-surface tallies for the `LINT_JSON` summary.
#[derive(Debug, Default, Clone, Copy)]
pub struct SurfaceCounts {
    /// Indexed `pub` items in library files.
    pub pub_items: u64,
    /// Fields of `pub` library structs whose name ends in `Config`.
    pub knobs: u64,
}

struct Item {
    name: String,
    kind: &'static str,
    line: u32,
    /// For a fn, the code-token range of its signature (`fn` up to the
    /// body or `;`).
    signature: Option<(usize, usize)>,
}

/// Run the family over every file: index, collect uses, report each
/// item no other file names.
pub fn check(files: &mut [SourceFile], findings: &mut Vec<Finding>) -> SurfaceCounts {
    let test_modules = test_module_files(files);
    let uses: Vec<(usize, Uses)> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.path != SNAPSHOT && f.kind != FileKind::Shim)
        .map(|(i, f)| {
            let test_file = f.kind == FileKind::TestDir || test_modules.contains(&f.path);
            (i, used_names(f, test_file))
        })
        .collect();
    let mut counts = SurfaceCounts::default();
    for fi in 0..files.len() {
        let file = &files[fi];
        if !is_library(file) || test_modules.contains(&file.path) {
            continue;
        }
        let (items, knobs) = index(file);
        counts.pub_items += items.len() as u64;
        counts.knobs += knobs;
        // Test code uses an item only from another crate.
        let used_elsewhere = |name: &str| {
            uses.iter().any(|(ui, uses)| {
                let foreign = files[*ui].crate_name != file.crate_name;
                *ui != fi && (uses.code.contains(name) || (foreign && uses.test.contains(name)))
            })
        };
        let mut live: Vec<bool> = items.iter().map(|it| used_elsewhere(&it.name)).collect();
        // Types reachable through the signature of a live fn.
        let mut through: BTreeSet<&str> = BTreeSet::new();
        for (it, _) in items.iter().zip(&live).filter(|(_, &l)| l) {
            if let Some((a, b)) = it.signature {
                through.extend(
                    (a..b)
                        .filter(|&k| file.toks[k].kind == TokKind::Ident)
                        .map(|k| file.toks[k].text.as_str()),
                );
            }
        }
        for (it, l) in items.iter().zip(live.iter_mut()) {
            if matches!(it.kind, "struct" | "enum" | "trait" | "type")
                && through.contains(it.name.as_str())
            {
                *l = true;
            }
        }
        let dead: Vec<&Item> = items
            .iter()
            .zip(&live)
            .filter(|(_, &l)| !l)
            .map(|(it, _)| it)
            .collect();
        let mut out = Vec::new();
        for it in dead {
            out.push(Finding {
                family: Family::DeadPub,
                path: file.path.clone(),
                line: it.line,
                token: it.name.clone(),
                ordinal: 0,
                message: format!(
                    "`pub {} {}` is named by no other file outside this crate's tests — delete it, narrow it, or justify with `lint: allow(dead_pub, …)`",
                    it.kind, it.name
                ),
            });
        }
        let file = &mut files[fi];
        for f in out {
            if file.take_allow(Family::DeadPub.name(), f.line).is_none() {
                findings.push(f);
            }
        }
    }
    counts
}

/// A library file: `FileKind::Lib` under `crates/<name>/src`.
fn is_library(file: &SourceFile) -> bool {
    let parts: Vec<&str> = file.path.split('/').collect();
    file.kind == FileKind::Lib && parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Files that are modules declared under `#[cfg(test)]` (`mod
/// oracle;`): test code in its own file, so neither items nor uses.
pub(crate) fn test_module_files(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        let code: Vec<usize> = (0..file.toks.len())
            .filter(|&i| file.toks[i].is_code())
            .collect();
        for w in code.windows(3) {
            let (m, name, semi) = (&file.toks[w[0]], &file.toks[w[1]], &file.toks[w[2]]);
            if m.text == "mod"
                && file.in_test[w[0]]
                && name.kind == TokKind::Ident
                && semi.punct() == Some(';')
            {
                let (dir, stem) = file
                    .path
                    .rsplit_once('/')
                    .unwrap_or(("", file.path.as_str()));
                let base = match stem {
                    "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
                    _ => format!("{dir}/{}", stem.trim_end_matches(".rs")),
                };
                out.insert(format!("{base}/{}.rs", name.text));
                out.insert(format!("{base}/{}/mod.rs", name.text));
            }
        }
    }
    out
}

/// The names one file uses, split by whether they sit in test code: a
/// `#[cfg(test)]`/`#[test]` region, a test-only module or a `tests/`
/// directory.
#[derive(Default)]
struct Uses {
    code: BTreeSet<String>,
    test: BTreeSet<String>,
}

/// Every name a file uses: identifier tokens outside `pub use` lines,
/// plus the identifiers of doc-comment code examples.
fn used_names(file: &SourceFile, test_file: bool) -> Uses {
    let mut uses = Uses::default();
    let mut in_reexport = false;
    let mut in_fence = false;
    for (i, tok) in file.toks.iter().enumerate() {
        let names = if test_file || file.in_test[i] {
            &mut uses.test
        } else {
            &mut uses.code
        };
        if !tok.is_code() {
            let body = tok
                .text
                .strip_prefix("///")
                .or_else(|| tok.text.strip_prefix("//!"));
            if let Some(body) = body {
                if body.trim_start().starts_with("```") {
                    in_fence = !in_fence;
                } else if in_fence {
                    names.extend(
                        lex(body)
                            .into_iter()
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text),
                    );
                }
            }
            continue;
        }
        in_fence = false;
        let next = file.next_code(i).map(|j| file.toks[j].text.as_str());
        in_reexport |= tok.text == "pub" && next == Some("use");
        if in_reexport {
            in_reexport = tok.punct() != Some(';');
            continue;
        }
        if tok.kind == TokKind::Ident {
            names.insert(tok.text.clone());
        }
    }
    uses
}

/// The `pub` items of one library file and its knob count.
fn index(file: &SourceFile) -> (Vec<Item>, u64) {
    let code: Vec<usize> = file.code_indices().collect();
    let text = |ci: usize| code.get(ci).map_or("", |&i| file.toks[i].text.as_str());
    let punct = |ci: usize| code.get(ci).and_then(|&i| file.toks[i].punct());
    let mut items = Vec::new();
    for ci in 0..code.len() {
        if text(ci) != "pub" || punct(ci + 1) == Some('(') {
            continue;
        }
        let line = file.toks[code[ci]].line;
        let mut k = ci + 1;
        while matches!(text(k), "async" | "unsafe") || (text(k) == "const" && text(k + 1) == "fn") {
            k += 1;
        }
        let word = text(k);
        if SKIPPED.contains(&word) {
            continue;
        }
        if let Some(kind) = ITEM_KEYWORDS.iter().find(|&&kw| kw == word) {
            let name = text(k + 1);
            if name.is_empty() || name == "_" {
                continue;
            }
            let signature = (*kind == "fn").then(|| {
                let end = (k..code.len())
                    .find(|&e| matches!(punct(e), Some('{' | ';')))
                    .unwrap_or(code.len());
                (code[k], code.get(end).copied().unwrap_or(file.toks.len()))
            });
            items.push(Item {
                name: name.to_string(),
                kind,
                line,
                signature,
            });
        } else if punct(k + 1) == Some(':') && punct(k + 2) != Some(':') && !word.is_empty() {
            items.push(Item {
                name: word.to_string(),
                kind: "field",
                line,
                signature: None,
            });
        }
    }
    (items, knobs(file, &code))
}

/// The named fields of `pub` structs whose name ends in `Config`,
/// whatever each field's own visibility: a private field that a
/// `with_*` method sets is a setting too.
fn knobs(file: &SourceFile, code: &[usize]) -> u64 {
    let text = |ci: usize| code.get(ci).map_or("", |&i| file.toks[i].text.as_str());
    let punct = |ci: usize| code.get(ci).and_then(|&i| file.toks[i].punct());
    let mut count = 0;
    for ci in 1..code.len() {
        if text(ci) != "struct" || text(ci - 1) != "pub" || !text(ci + 1).ends_with("Config") {
            continue;
        }
        let body = (ci + 2..code.len()).find(|&k| matches!(punct(k), Some('{' | ';' | '(')));
        let Some(open) = body.filter(|&k| punct(k) == Some('{')) else {
            continue;
        };
        let mut depth = 0;
        for (k, &i) in code.iter().enumerate().skip(open) {
            match punct(k) {
                Some('{' | '(' | '[') => depth += 1,
                Some('}' | ')' | ']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            let field = file.toks[i].kind == TokKind::Ident
                && punct(k + 1) == Some(':')
                && punct(k + 2) != Some(':')
                && punct(k - 1) != Some(':');
            if depth == 1 && field {
                count += 1;
            }
        }
    }
    count
}
