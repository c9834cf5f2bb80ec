//! Lock-order analysis.
//!
//! Every `.lock()` / `.read()` / `.write()` acquisition (empty
//! argument lists only — `stream.write(buf)` is I/O, not a lock) is
//! classified into a named lock class by its receiver, collected into
//! a per-function acquisition sequence, and propagated through an
//! intra-workspace call graph recovered from the token stream. An
//! edge `A -> B` means "B was (possibly transitively) acquired while A
//! was held"; any cycle in that graph — including a self-edge, since
//! neither std nor the parking_lot shim is reentrant — is a potential
//! deadlock. On top of cycle-freedom, the blessed hierarchy
//!
//! ```text
//! memo -> plan_parts -> cache -> counters -> pool
//! ```
//!
//! is enforced as a partial order: an edge from a ranked class to a
//! *lower*-ranked one is a finding even before it closes a cycle.
//!
//! Approximations, chosen to over- rather than under-report:
//! - a guard bound by `let` (or holding an `if let`/`match` block
//!   open) is held to the end of its block; a guard used inline
//!   (`x.lock().get(k)`) is held to the end of its statement;
//! - calls are resolved by name, and only names with exactly one
//!   workspace definition propagate (an ambiguous name — `insert`,
//!   `len` — would otherwise merge unrelated types into fabricated
//!   edges); the count of skipped ambiguous call sites is reported;
//! - a function whose body *returns* a guard (`fn jobs() -> Guard`)
//!   counts as an acquisition site in each caller.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::{Family, Finding};
use crate::lexer::TokKind;
use crate::scan::SourceFile;

/// Receiver-field-name -> lock-class table. This *is* the repo's lock
/// inventory; a new lock must be added here (or it reports as its own
/// `other:<name>` class, which still participates in cycle checks).
const CLASS_OF_RECEIVER: [(&str, &str); 6] = [
    ("plans", "memo"),            // Relm plan memo
    ("walk_table", "plan_parts"), // lazily-built per-plan walk table
    ("table", "cache"),           // SharedScoringCache, the one scoring memo
    ("queue", "pool"),            // WorkerPool job queue
    ("registry", "pool"),         // process-wide pool registry
    ("pools", "pool"),            // its guard
];

/// The blessed acquisition hierarchy, outermost first. `counters` has
/// no lock today (SharedCounters is atomics-only) but holds its rank
/// so adding one cannot silently invert the documented order.
const HIERARCHY: [&str; 5] = ["memo", "plan_parts", "cache", "counters", "pool"];

fn class_of(receiver: &str) -> String {
    for (name, class) in CLASS_OF_RECEIVER {
        if receiver == name {
            return class.to_string();
        }
    }
    format!("other:{receiver}")
}

fn rank(class: &str) -> Option<usize> {
    HIERARCHY.iter().position(|&h| h == class)
}

/// How long an acquired guard lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// `let g = x.lock();` — to the end of the enclosing block.
    Block,
    /// `if let … = x.lock() { … }` / `match x.lock() { … }` — for the
    /// block that follows.
    NextBlock,
    /// Inline temporary — to the end of the statement.
    Statement,
}

#[derive(Debug, Clone)]
enum Event {
    Acquire {
        class: String,
        hold: Hold,
        line: u32,
    },
    Call {
        name: String,
        line: u32,
    },
    Open,    // `{`
    Close,   // `}`
    StmtEnd, // `;`
}

#[derive(Debug, Default, Clone)]
struct FnBody {
    name: String,
    path: String,
    events: Vec<Event>,
    /// The body's final expression is a lock acquisition: callers
    /// receive a live guard of this class.
    returns_guard: Option<String>,
}

/// One directed lock-order edge with a representative site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub path: String,
    pub line: u32,
    pub via: String,
}

/// The analysis result: the graph, its verdicts, and tallies.
#[derive(Debug, Default)]
pub struct LockReport {
    pub sites: u64,
    pub functions: u64,
    pub classes: BTreeSet<String>,
    pub edges: Vec<Edge>,
    pub cycle: Option<Vec<String>>,
    pub ambiguous_calls: u64,
}

/// Extract per-function acquisition/call sequences from every file,
/// then simulate and report.
pub fn analyze(files: &mut [SourceFile], findings: &mut Vec<Finding>) -> LockReport {
    let mut fns: Vec<FnBody> = Vec::new();
    for file in files.iter() {
        if !file.kind.checked_for_invariants() {
            continue;
        }
        extract_functions(file, &mut fns);
    }
    let mut sites = 0u64;
    let mut classes: BTreeSet<String> = BTreeSet::new();
    for f in &fns {
        for e in &f.events {
            if let Event::Acquire { class, .. } = e {
                sites += 1;
                classes.insert(class.clone());
            }
        }
        if let Some(class) = &f.returns_guard {
            classes.insert(class.clone());
        }
    }

    // Name -> definition count, and name -> transitive may-acquire set
    // (fixpoint; only unambiguous names are entered).
    let mut def_count: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &fns {
        *def_count.entry(&f.name).or_insert(0) += 1;
    }
    let mut may: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    loop {
        let mut changed = false;
        for f in &fns {
            if def_count.get(f.name.as_str()) != Some(&1) {
                continue;
            }
            let mut set: BTreeSet<String> = may.get(&f.name).cloned().unwrap_or_default();
            for e in &f.events {
                match e {
                    Event::Acquire { class, .. } => {
                        set.insert(class.clone());
                    }
                    Event::Call { name, .. } if def_count.get(name.as_str()) == Some(&1) => {
                        if let Some(callee) = may.get(name) {
                            set.extend(callee.iter().cloned());
                        }
                        if let Some(g) = fns
                            .iter()
                            .find(|g| &g.name == name)
                            .and_then(|g| g.returns_guard.clone())
                        {
                            set.insert(g);
                        }
                    }
                    _ => {}
                }
            }
            let known = may.entry(f.name.clone()).or_default();
            if set.len() > known.len() {
                *known = set;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Simulate each function: track held guards, record ordering edges.
    let mut ambiguous_calls = 0u64;
    let mut edge_set: BTreeSet<Edge> = BTreeSet::new();
    for f in &fns {
        simulate(
            f,
            &fns,
            &def_count,
            &may,
            &mut edge_set,
            &mut ambiguous_calls,
        );
    }

    // Dedup to one representative edge per (from, to) for the graph.
    let mut graph: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for e in &edge_set {
        graph
            .entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| e.clone());
    }

    // Hierarchy violations: a ranked class acquired under an equal- or
    // higher-ranked one.
    for ((from, to), edge) in &graph {
        if let (Some(rf), Some(rt)) = (rank(from), rank(to)) {
            if rf >= rt {
                findings.push(Finding {
                    family: Family::LockOrder,
                    path: edge.path.clone(),
                    line: edge.line,
                    token: format!("{from}->{to}"),
                    ordinal: 0,
                    message: format!(
                        "lock `{to}` acquired while holding `{from}` ({}) — violates the blessed order {}",
                        edge.via,
                        HIERARCHY.join(" -> ")
                    ),
                });
            }
        }
    }

    // Cycle detection over the class graph (self-edges included).
    let mut adj: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (from, to) in graph.keys() {
        adj.entry(from.clone()).or_default().push(to.clone());
        adj.entry(to.clone()).or_default();
    }
    let cycle = find_cycle(&adj);
    if let Some(cycle_path) = &cycle {
        let edge = graph.get(&(
            cycle_path[0].clone(),
            cycle_path.get(1).unwrap_or(&cycle_path[0]).clone(),
        ));
        findings.push(Finding {
            family: Family::LockOrder,
            path: edge.map(|e| e.path.clone()).unwrap_or_default(),
            line: edge.map(|e| e.line).unwrap_or(0),
            token: "cycle".into(),
            ordinal: 0,
            message: format!("lock-order cycle: {}", cycle_path.join(" -> ")),
        });
    }
    LockReport {
        sites,
        functions: fns.len() as u64,
        classes,
        edges: edge_set.into_iter().collect(),
        cycle,
        ambiguous_calls,
    }
}

/// Iterative three-color DFS; returns the first cycle found as a class
/// sequence (closing edge back to the first element implied).
fn find_cycle(adj: &BTreeMap<String, Vec<String>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = adj.keys().map(|n| (n.as_str(), Color::White)).collect();
    let starts: Vec<&String> = adj.keys().collect();
    for start in starts {
        if color.get(start.as_str()) != Some(&Color::White) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start.as_str(), 0)];
        color.insert(start.as_str(), Color::Grey);
        while let Some(&(node, next)) = stack.last() {
            let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next >= succs.len() {
                color.insert(node, Color::Black);
                stack.pop();
                continue;
            }
            if let Some(last) = stack.last_mut() {
                last.1 += 1;
            }
            let succ = succs[next].as_str();
            match color.get(succ) {
                Some(Color::Grey) => {
                    let mut cycle: Vec<String> = stack.iter().map(|(n, _)| n.to_string()).collect();
                    if let Some(pos) = cycle.iter().position(|n| n == succ) {
                        cycle.drain(..pos);
                    }
                    return Some(cycle);
                }
                Some(Color::White) => {
                    color.insert(succ, Color::Grey);
                    stack.push((succ, 0));
                }
                _ => {}
            }
        }
    }
    None
}

/// Recover `fn name … { body }` items and their event streams from
/// one file's token stream (test regions excluded).
fn extract_functions(file: &SourceFile, out: &mut Vec<FnBody>) {
    let code: Vec<usize> = file.code_indices().collect();
    let mut ci = 0;
    while ci < code.len() {
        ci = scan_fn(file, &code, ci, out);
    }
}

/// If `ci` starts a function definition, consume it (recursing into
/// nested fns) and return the index after it; otherwise return `ci+1`.
fn scan_fn(file: &SourceFile, code: &[usize], ci: usize, out: &mut Vec<FnBody>) -> usize {
    let tok = |ci: usize| -> Option<&crate::lexer::Tok> { code.get(ci).map(|&i| &file.toks[i]) };
    if tok(ci).map(|t| t.text.as_str()) != Some("fn") {
        return ci + 1;
    }
    let Some(name_tok) = tok(ci + 1) else {
        return ci + 1;
    };
    if name_tok.kind != TokKind::Ident {
        return ci + 1; // `fn(` type position
    }
    let name = name_tok.text.clone();
    // Find the body `{` (or `;` for a bodiless trait method), skipping
    // parenthesized parameter lists.
    let mut cj = ci + 2;
    loop {
        match tok(cj) {
            None => return code.len(),
            Some(t) if t.punct() == Some(';') => return cj + 1,
            Some(t) if t.punct() == Some('(') => {
                let mut depth = 0i64;
                while let Some(t) = tok(cj) {
                    match t.punct() {
                        Some('(') => depth += 1,
                        Some(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    cj += 1;
                }
                cj += 1;
            }
            Some(t) if t.punct() == Some('{') => break,
            _ => cj += 1,
        }
    }
    // Walk the body, collecting events; recurse on nested `fn`.
    let mut body = FnBody {
        name,
        path: file.path.clone(),
        ..FnBody::default()
    };
    let mut depth = 0i64;
    let mut group = 0i64; // (…)/[…] nesting — commas inside stay expression-level
    let body_open = cj;
    while let Some(t) = tok(cj) {
        match t.punct() {
            Some('{') => {
                depth += 1;
                if cj != body_open {
                    body.events.push(Event::Open);
                }
                cj += 1;
                continue;
            }
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                body.events.push(Event::Close);
                cj += 1;
                continue;
            }
            Some(';') => {
                body.events.push(Event::StmtEnd);
                cj += 1;
                continue;
            }
            Some('(') | Some('[') => group += 1,
            Some(')') | Some(']') => group -= 1,
            // A comma directly at brace level separates match arms (or
            // struct-literal fields): arms are mutually exclusive, so a
            // statement-lifetime guard from one arm must not be held
            // across the next. Commas nested in `(…)`/`[…]` are argument
            // separators — `f(x.lock(), y)` really does hold the guard.
            Some(',') if group <= 0 => {
                body.events.push(Event::StmtEnd);
                cj += 1;
                continue;
            }
            _ => {}
        }
        if t.text == "fn" && tok(cj + 1).map(|t| t.kind) == Some(TokKind::Ident) {
            cj = scan_fn(file, code, cj, out);
            continue;
        }
        if t.kind == TokKind::Ident {
            let prev_dot = tok(ci_prev(cj))
                .map(|p| p.punct() == Some('.'))
                .unwrap_or(false);
            let next_open = tok(cj + 1).map(|n| n.punct() == Some('(')).unwrap_or(false);
            let empty_args =
                next_open && tok(cj + 2).map(|n| n.punct() == Some(')')).unwrap_or(false);
            if prev_dot && empty_args && matches!(t.text.as_str(), "lock" | "read" | "write") {
                let receiver = receiver_base(file, code, cj);
                let hold = hold_kind(file, code, cj);
                body.events.push(Event::Acquire {
                    class: class_of(&receiver),
                    hold,
                    line: t.line,
                });
                cj += 3; // past `( )`
                continue;
            }
            if next_open && !is_keyword(&t.text) {
                body.events.push(Event::Call {
                    name: t.text.clone(),
                    line: t.line,
                });
            }
        }
        cj += 1;
    }
    // Guard-returning body: last event is a block-final acquisition
    // with no trailing `;` — i.e. the event stream ends Acquire (with
    // possible trailing Close events only).
    let mut tail = body.events.iter().rev();
    loop {
        match tail.next() {
            Some(Event::Close) => continue,
            Some(Event::Call { name, .. })
                if matches!(name.as_str(), "unwrap_or_else" | "into_inner") =>
            {
                continue; // poisoning adapters on the guard chain
            }
            Some(Event::Acquire { class, .. }) => {
                body.returns_guard = Some(class.clone());
                break;
            }
            _ => break,
        }
    }
    out.push(body);
    cj + 1
}

fn ci_prev(ci: usize) -> usize {
    ci.saturating_sub(1)
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "let"
            | "else"
            | "move"
            | "in"
            | "as"
            | "ref"
            | "mut"
            | "box"
            | "await"
    )
}

/// The base identifier of the receiver chain ending at the `.` before
/// `method_ci`: `self.plans.lock()` -> `plans`;
/// `pools[i].lock()` -> `pools`.
fn receiver_base(file: &SourceFile, code: &[usize], method_ci: usize) -> String {
    // Step back over the dot.
    let mut ci = method_ci.saturating_sub(1); // the '.'
    if ci == 0 {
        return String::new();
    }
    ci -= 1; // token before the dot
             // Skip a trailing index/call group.
    loop {
        let t = &file.toks[code[ci]];
        match t.punct() {
            Some(']') | Some(')') => {
                let (open, close) = if t.punct() == Some(']') {
                    ('[', ']')
                } else {
                    ('(', ')')
                };
                let mut depth = 0i64;
                while ci > 0 {
                    let t = &file.toks[code[ci]];
                    if t.punct() == Some(close) {
                        depth += 1;
                    } else if t.punct() == Some(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ci -= 1;
                }
                if ci == 0 {
                    return String::new();
                }
                ci -= 1;
            }
            _ => break,
        }
    }
    let t = &file.toks[code[ci]];
    if t.kind == TokKind::Ident && t.text != "self" {
        return t.text.clone();
    }
    // `self.lock()` or unnameable receiver: use the following field if
    // the pattern was `self . field . lock` (ci points at `field`
    // already in that case) — otherwise give up gracefully.
    String::from("_expr")
}

/// Classify how long the guard from the acquisition at `ci` lives.
fn hold_kind(file: &SourceFile, code: &[usize], ci: usize) -> Hold {
    // Forward: after `( )`.
    let after = ci + 3;
    match code.get(after).map(|&i| file.toks[i].punct()) {
        Some(Some('{')) => Hold::NextBlock,
        Some(Some(';')) => {
            // `… = x.lock();` binds the guard iff the statement
            // started with `let` (or assigns to an existing binding).
            let mut cj = ci;
            while cj > 0 {
                let t = &file.toks[code[cj]];
                if matches!(t.punct(), Some(';') | Some('{') | Some('}')) {
                    break;
                }
                if t.text == "let" || t.punct() == Some('=') {
                    return Hold::Block;
                }
                cj -= 1;
            }
            Hold::Statement
        }
        _ => Hold::Statement,
    }
}

/// Walk one function's events, tracking held guards and emitting
/// ordering edges for nested acquisitions and lock-acquiring calls.
fn simulate(
    f: &FnBody,
    fns: &[FnBody],
    def_count: &BTreeMap<&str, usize>,
    may: &BTreeMap<String, BTreeSet<String>>,
    edges: &mut BTreeSet<Edge>,
    ambiguous: &mut u64,
) {
    struct Held {
        class: String,
        scope: i64,
        statement: bool,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i64;
    for event in &f.events {
        match event {
            Event::Open => depth += 1,
            Event::Close => {
                depth -= 1;
                held.retain(|h| h.scope <= depth);
            }
            Event::StmtEnd => held.retain(|h| !(h.statement && h.scope == depth)),
            Event::Acquire { class, hold, line } => {
                for h in &held {
                    edges.insert(Edge {
                        from: h.class.clone(),
                        to: class.clone(),
                        path: f.path.clone(),
                        line: *line,
                        via: format!("in `{}`", f.name),
                    });
                }
                held.push(Held {
                    class: class.clone(),
                    scope: match hold {
                        Hold::NextBlock => depth + 1,
                        _ => depth,
                    },
                    statement: *hold == Hold::Statement,
                });
            }
            Event::Call { name, line } => {
                if held.is_empty() {
                    continue;
                }
                match def_count.get(name.as_str()) {
                    Some(1) => {
                        let mut acquired: BTreeSet<String> =
                            may.get(name).cloned().unwrap_or_default();
                        if let Some(g) = fns
                            .iter()
                            .find(|g| &g.name == name)
                            .and_then(|g| g.returns_guard.clone())
                        {
                            acquired.insert(g);
                        }
                        for to in acquired {
                            for h in &held {
                                edges.insert(Edge {
                                    from: h.class.clone(),
                                    to: to.clone(),
                                    path: f.path.clone(),
                                    line: *line,
                                    via: format!("via call `{}` in `{}`", name, f.name),
                                });
                            }
                        }
                    }
                    Some(_) => *ambiguous += 1,
                    None => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileKind;

    fn analyze_src(src: &str) -> (LockReport, Vec<Finding>) {
        let mut files = vec![SourceFile::with_kind(
            "crates/x/src/a.rs",
            src,
            FileKind::Lib,
            "relm-x",
        )];
        let mut findings = Vec::new();
        let report = analyze(&mut files, &mut findings);
        (report, findings)
    }

    #[test]
    fn nested_acquisition_makes_an_edge() {
        let (r, f) =
            analyze_src("fn f(&self) { let g = self.plans.lock(); self.table.lock().len(); }");
        assert_eq!(r.sites, 2);
        assert!(r.edges.iter().any(|e| e.from == "memo" && e.to == "cache"));
        assert!(r.cycle.is_none());
        assert!(f.is_empty(), "memo -> cache follows the hierarchy: {f:?}");
    }

    #[test]
    fn inverted_order_is_a_finding_and_cycles_are_caught() {
        let (_, f) =
            analyze_src("fn f(&self) { let g = self.table.lock(); self.plans.lock().len(); }");
        assert!(
            f.iter().any(|x| x.family == Family::LockOrder),
            "cache -> memo inverts the hierarchy: {f:?}"
        );
        let (r, f) = analyze_src(
            "fn a(&self) { let g = self.plans.lock(); self.table.lock().len(); }\n\
             fn b(&self) { let g = self.table.lock(); self.plans.lock().len(); }",
        );
        assert!(r.cycle.is_some());
        assert!(f.iter().any(|x| x.token == "cycle"));
    }

    #[test]
    fn transient_guard_dies_at_statement_end() {
        let (r, _) = analyze_src(
            "fn f(&self) { self.plans.lock().get(k); self.plans.lock().insert(k, v); }",
        );
        assert!(
            !r.edges.iter().any(|e| e.from == "memo" && e.to == "memo"),
            "sequential transients must not self-edge: {:?}",
            r.edges
        );
    }

    #[test]
    fn let_bound_guard_survives_to_block_end() {
        let (r, _) =
            analyze_src("fn f(&self) { let g = self.plans.lock(); { self.plans.lock().x(); } }");
        assert!(
            r.edges.iter().any(|e| e.from == "memo" && e.to == "memo"),
            "relock under a live let-guard is a self-edge: {:?}",
            r.edges
        );
    }

    #[test]
    fn call_graph_propagates_through_unambiguous_names() {
        let (r, f) = analyze_src(
            "fn outer(&self) { let g = self.table.lock(); helper_unique(); }\n\
             fn helper_unique(&self) { self.plans.lock().get(k); }",
        );
        assert!(
            r.edges
                .iter()
                .any(|e| e.from == "cache" && e.to == "memo" && e.via.contains("helper_unique")),
            "{:?}",
            r.edges
        );
        assert!(f.iter().any(|x| x.family == Family::LockOrder));
    }

    #[test]
    fn ambiguous_names_are_skipped_not_merged() {
        let (r, _) = analyze_src(
            "fn outer(&self) { let g = self.table.lock(); dup(); }\n\
             fn dup(&self) { self.plans.lock().get(k); }\n\
             fn other(&self) {}\n\
             mod m { fn dup() {} }",
        );
        assert_eq!(r.ambiguous_calls, 1);
        assert!(r.edges.iter().all(|e| e.to != "memo"));
    }

    #[test]
    fn guard_returning_fn_counts_in_callers() {
        let (r, _) = analyze_src(
            "fn jobs(&self) -> G { self.queue.lock().unwrap_or_else(into) }\n\
             fn caller(&self) { let g = self.plans.lock(); let j = jobs(); }",
        );
        assert!(
            r.edges.iter().any(|e| e.from == "memo" && e.to == "pool"),
            "{:?}",
            r.edges
        );
    }

    #[test]
    fn if_let_guard_holds_for_its_block() {
        let (r, _) = analyze_src(
            "fn f(&self) { if let Ok(g) = plans[i].lock() { self.table.lock().x(); } }",
        );
        assert!(r.edges.iter().any(|e| e.from == "memo" && e.to == "cache"));
    }
}
