//! Reachability of the public surface: the `dead_pub` family.
//!
//! Every `pub` fn, method, struct, enum, trait, type alias, const,
//! static and named struct field in a library file (`crates/*/src`,
//! outside `#[cfg(test)]` regions and test-only modules) is an item.
//! An item is live when any *other* file names it, doc-comment examples
//! included: its name in a path, a call, a method call, a field access,
//! a type position or a `use` — not in a `let`, `for`, match-arm,
//! closure or parameter binding, a read of such a local, or another
//! item's or field's declaration. Uses do not count in:
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
//! same-named use counts whatever it resolves to (`v.reverse()` keeps
//! every `pub fn reverse` alive), so the rule under-reports: a finding
//! is an item no file outside its own names.

use std::collections::BTreeSet;

use crate::findings::{Family, Finding};
use crate::lexer::{lex, Tok, TokKind};
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

/// Every name a file uses: the identifiers [`naming`] counts, outside
/// `pub use` lines, plus those of doc-comment code examples.
fn used_names(file: &SourceFile, test_file: bool) -> Uses {
    let mut uses = Uses::default();
    let code: Vec<usize> = (0..file.toks.len())
        .filter(|&i| file.toks[i].is_code())
        .collect();
    let toks: Vec<&Tok> = code.iter().map(|&i| &file.toks[i]).collect();
    let names = naming(&toks);
    let mut in_reexport = false;
    for (ci, &i) in code.iter().enumerate() {
        let tok = &file.toks[i];
        in_reexport |= tok.text == "pub" && toks.get(ci + 1).is_some_and(|t| t.text == "use");
        if in_reexport {
            in_reexport = tok.punct() != Some(';');
            continue;
        }
        if names[ci] {
            let set = if test_file || file.in_test[i] {
                &mut uses.test
            } else {
                &mut uses.code
            };
            set.insert(tok.text.clone());
        }
    }
    // Doc examples: each fence's lines lexed and read as one snippet.
    let mut fence: Option<(String, bool)> = None;
    for (i, tok) in file.toks.iter().enumerate() {
        let body = tok
            .text
            .strip_prefix("///")
            .or_else(|| tok.text.strip_prefix("//!"));
        let in_test = test_file || file.in_test[i];
        match (body, fence.take()) {
            (Some(body), None) if body.trim_start().starts_with("```") => {
                fence = Some((String::new(), in_test));
            }
            (Some(body), Some((snippet, test))) if body.trim_start().starts_with("```") => {
                let set = if test { &mut uses.test } else { &mut uses.code };
                let toks = lex(&snippet);
                let toks: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();
                let names = naming(&toks);
                set.extend(
                    toks.iter()
                        .zip(names)
                        .filter(|(_, named)| *named)
                        .map(|(t, _)| t.text.clone()),
                );
            }
            (Some(body), Some((mut snippet, test))) => {
                snippet.push_str(body);
                snippet.push('\n');
                fence = Some((snippet, test));
            }
            _ => {}
        }
    }
    uses
}

/// Keywords whose next identifier is declared, not used (`*const T`
/// opens a type instead).
const DECLARING: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "union", "mod", "static", "const",
];

/// Which of the code tokens `t` name something: an identifier in a
/// path, a call, a method call, a field access, a type position or a
/// `use`. An identifier that declares an item or a field, binds a
/// pattern (`let`, `for`, a closure or fn parameter, a match arm) or
/// reads a local its enclosing fn binds is not a use. The scan is
/// token-structural: a local is any lowercase name bound anywhere in
/// the same fn, whatever the block.
fn naming(t: &[&Tok]) -> Vec<bool> {
    let n = t.len();
    let text = |k: usize| t.get(k).map_or("", |x| x.text.as_str());
    let punct = |k: usize| t.get(k).and_then(|x| x.punct());
    let is = |k: usize, c: char| punct(k) == Some(c);
    let ident = |k: usize| t.get(k).is_some_and(|x| x.kind == TokKind::Ident);
    // A path segment's `::` on either side; a field or method's `.`.
    let after_path = |k: usize| k >= 2 && is(k - 1, ':') && is(k - 2, ':');
    let before_path = |k: usize| is(k + 1, ':') && is(k + 2, ':');
    let single_colon = |k: usize| is(k, ':') && !is(k + 1, ':') && !(k > 0 && is(k - 1, ':'));
    let dot = |k: usize| k > 0 && is(k - 1, '.');
    let bare =
        |k: usize| !(dot(k) || after_path(k) || before_path(k) || is(k + 1, '(') || is(k + 1, '!'));
    let lower = |k: usize| text(k).starts_with(|c: char| c.is_lowercase() || c == '_');

    // Matching brackets.
    let mut pair = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    for k in 0..n {
        match punct(k) {
            Some('(' | '[' | '{') => stack.push(k),
            Some(c @ (')' | ']' | '}')) => {
                let open = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                if stack.last().is_some_and(|&o| is(o, open)) {
                    let o = stack.pop().unwrap_or(k);
                    pair[o] = k;
                    pair[k] = o;
                }
            }
            _ => {}
        }
    }
    // The next position at bracket depth 0: past a whole group.
    let step = |k: usize| match punct(k) {
        Some('(' | '[' | '{') if pair[k] != usize::MAX => pair[k] + 1,
        _ => k + 1,
    };
    // The first depth-0 position at or after `k` that `stop` accepts.
    let skip_to = |mut k: usize, stop: &dyn Fn(usize) -> bool| {
        while k < n && !stop(k) {
            k = step(k);
        }
        k
    };

    let mut binds = vec![false; n];
    // Bind the lowercase bare names of the pattern `lo..hi`; a name
    // before `:` inside braces is a struct pattern's field, and a
    // depth-0 `if` starts a match guard.
    let pattern = |lo: usize, hi: usize, binds: &mut Vec<bool>| {
        let mut braces = 0i32;
        for (k, bind) in binds.iter_mut().enumerate().take(hi).skip(lo) {
            match punct(k) {
                Some('{') => braces += 1,
                Some('}') => braces -= 1,
                _ => {}
            }
            if braces == 0 && text(k) == "if" {
                break;
            }
            let field = braces > 0 && single_colon(k + 1);
            if ident(k) && lower(k) && bare(k) && !is(k + 1, '{') && !field {
                *bind = true;
            }
        }
    };
    // Each `pat: Type` of a parameter list `lo..hi`: the pattern binds.
    let params = |lo: usize, hi: usize, binds: &mut Vec<bool>| {
        let mut k = lo;
        while k < hi {
            let colon = skip_to(k, &|j| j >= hi || is(j, ',') || single_colon(j)).min(hi);
            pattern(k, colon, binds);
            k = skip_to(colon, &|j| j >= hi || is(j, ',')) + 1;
        }
    };
    let mut scope_of = vec![0usize; n];
    let mut fields = vec![false; n];
    // Declared fields: the depth-1 `name:` of a braced body at `open`.
    let declare = |open: usize, fields: &mut Vec<bool>| {
        if is(open, '{') && pair[open] != usize::MAX {
            let mut k = open + 1;
            while k < pair[open] {
                fields[k] = ident(k) && single_colon(k + 1);
                k = step(k);
            }
        }
    };
    for k in 0..n {
        let next_open = |k: usize| skip_to(k, &|j| matches!(punct(j), Some('{' | ';' | '(')));
        match text(k) {
            "let" => pattern(
                k + 1,
                skip_to(k + 1, &|j| is(j, '=') || is(j, ';') || single_colon(j)),
                &mut binds,
            ),
            "for" => {
                let end = skip_to(k + 1, &|j| matches!(text(j), "in" | "{" | ";" | "<"));
                if text(end) == "in" {
                    pattern(k + 1, end, &mut binds);
                }
            }
            "fn" if ident(k + 1) => {
                // The parameter list: the first `(` outside the generics.
                let (mut open, mut angle) = (k + 2, 0i32);
                while open < n && !(angle == 0 && matches!(punct(open), Some('(' | '{' | ';'))) {
                    match punct(open) {
                        Some('<') => angle += 1,
                        Some('>') if !matches!(punct(open - 1), Some('-' | '=')) => angle -= 1,
                        _ => {}
                    }
                    open = step(open);
                }
                if is(open, '(') && pair[open] != usize::MAX {
                    params(open + 1, pair[open], &mut binds);
                    let body = skip_to(pair[open] + 1, &|j| is(j, '{') || is(j, ';'));
                    if is(body, '{') && pair[body] != usize::MAX {
                        scope_of[k..=pair[body]].fill(k + 1);
                    }
                }
            }
            "struct" | "union" => declare(next_open(k + 1), &mut fields),
            "enum" => {
                let body = next_open(k + 1);
                if is(body, '{') && pair[body] != usize::MAX {
                    for v in body + 1..pair[body] {
                        if ident(v) && is(v + 1, '{') {
                            declare(v + 1, &mut fields);
                        }
                    }
                }
            }
            _ => {}
        }
        // A closure's `|params|` opens where an operand may start.
        let opens_closure = is(k, '|')
            && (k == 0
                || matches!(punct(k - 1), Some('(' | '[' | '{' | ',' | ';' | '=' | ':'))
                || (is(k - 1, '>') && k >= 2 && is(k - 2, '='))
                || matches!(text(k - 1), "move" | "return"));
        if opens_closure {
            let close = skip_to(k + 1, &|j| is(j, '|'));
            params(k + 1, close.min(n), &mut binds);
        }
        // A match arm's pattern runs back from `=>` to the arm before.
        if is(k, '=') && is(k + 1, '>') {
            let mut s = k;
            while s > 0 {
                let p = s - 1;
                let o = pair[p];
                s = match punct(p) {
                    Some(')' | ']') if o != usize::MAX => o,
                    Some('}')
                        if o != usize::MAX && !(o >= 2 && is(o - 1, '>') && is(o - 2, '=')) =>
                    {
                        o
                    }
                    Some('>') if p > 0 && is(p - 1, '=') => break,
                    Some(',' | ';' | '(' | '[' | '{' | '}' | ')' | ']') => break,
                    _ => p,
                };
            }
            pattern(s, k, &mut binds);
        }
    }
    let mut locals: BTreeSet<(usize, &str)> = BTreeSet::new();
    for k in (0..n).filter(|&k| binds[k]) {
        locals.insert((scope_of[k], text(k)));
    }
    (0..n)
        .map(|k| {
            let declared = k > 0 && DECLARING.contains(&text(k - 1)) && !(k >= 2 && is(k - 2, '*'));
            let local = bare(k) && lower(k) && locals.contains(&(scope_of[k], text(k)));
            ident(k) && !declared && !binds[k] && !fields[k] && !local
        })
        .collect()
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
