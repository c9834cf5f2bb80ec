//! Property tests for the automata algebra, independent of the regex
//! front end: random NFAs are built directly from combinators so the
//! invariants are checked on shapes regexes might never produce.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use relm_automata::{ascii_alphabet, reverse, Dfa, Nfa, StateId, Symbol, WalkChoice, WalkTable};

/// A recursive strategy over small NFAs with a 3-symbol alphabet.
fn small_nfa() -> impl Strategy<Value = Nfa> {
    let leaf = prop_oneof![
        Just(Nfa::epsilon()),
        (0u32..3).prop_map(Nfa::symbol),
        proptest::collection::vec(0u32..3, 1..4).prop_map(Nfa::literal),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.concat(b)),
            inner.clone().prop_map(Nfa::star),
            inner.clone().prop_map(|a| a.union(Nfa::epsilon())),
        ]
    })
}

fn short_string() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0u32..3, 0..7)
}

/// Most states a [`partial_dfa`] has, and the length of the key vector
/// [`permuted`] needs to shuffle one.
const MAX_STATES: usize = 40;

/// Random *partial* DFAs built straight through [`Dfa::from_parts`]:
/// 1–40 states over at most 6 symbols, each edge present with
/// probability one half, a random accepting set and a random start, so
/// unreachable and dead states are common and two states often differ
/// only in *having* an edge — the case `small_nfa()` almost never
/// reaches. Every other automaton is a blow-up of a smaller random one
/// (each state copies the accepting flag and the edge symbols of a class
/// and points at arbitrary members of the target classes), so that there
/// is something to merge.
fn partial_dfa() -> impl Strategy<Value = Dfa> {
    proptest::collection::vec(0usize..1 << 16, 1024..1025).prop_map(|draws| {
        let mut draws = draws.into_iter();
        let mut draw = |bound: usize| draws.next().expect("1024 draws are enough") % bound;
        let n = 1 + draw(MAX_STATES);
        let symbols = 1 + draw(6);
        let classes = if draw(2) == 0 { n } else { 1 + draw(n) };
        // The first `classes` states are one of each class, so every
        // class has a member.
        let class_of: Vec<usize> = (0..n)
            .map(|s| if s < classes { s } else { draw(classes) })
            .collect();
        let members: Vec<Vec<StateId>> = (0..classes)
            .map(|c| (0..n).filter(|&s| class_of[s] == c).collect())
            .collect();
        let class_accepting: Vec<bool> = (0..classes).map(|_| draw(2) == 1).collect();
        let class_edges: Vec<Vec<Option<usize>>> = (0..classes)
            .map(|_| {
                (0..symbols)
                    .map(|_| (draw(2) == 1).then(|| draw(classes)))
                    .collect()
            })
            .collect();
        let accepting: Vec<StateId> = (0..n).filter(|&s| class_accepting[class_of[s]]).collect();
        let mut transitions = Vec::new();
        for s in 0..n {
            for (a, edge) in class_edges[class_of[s]].iter().enumerate() {
                if let Some(target_class) = *edge {
                    let targets = &members[target_class];
                    transitions.push((s, a as Symbol, targets[draw(targets.len())]));
                }
            }
        }
        Dfa::from_parts(n, draw(n), &accepting, &transitions)
    })
}

/// Keys that [`permuted`] sorts the state ids by.
fn permutation_keys() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1 << 16, MAX_STATES..MAX_STATES + 1)
}

/// Number of Myhill–Nerode classes of `dfa`'s language (the dead class
/// not counted; 0 for the empty language), by a deliberately naive
/// reference that shares no code with `Dfa::minimize`: it reads the
/// automaton through its accessors only, finds the live states by
/// fixpoint, completes them with an explicit dead state into a dense
/// table over the automaton's own alphabet, and runs Moore's refinement
/// — start from accepting ≠ non-accepting, and separate two states
/// whenever some symbol leads them to separated states — until nothing
/// changes. Signatures instead of a pair table, so that the thousand
/// states of an edit automaton are still within reach.
fn naive_class_count(dfa: &Dfa) -> usize {
    let n = dfa.state_count();
    let symbols = dfa.alphabet();
    let mut reachable = vec![false; n];
    reachable[dfa.start()] = true;
    let mut productive: Vec<bool> = (0..n).map(|s| dfa.is_accepting(s)).collect();
    loop {
        let mut changed = false;
        for s in 0..n {
            for (_, t) in dfa.transitions(s) {
                if reachable[s] && !reachable[t] {
                    reachable[t] = true;
                    changed = true;
                }
                if productive[t] && !productive[s] {
                    productive[s] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let live: Vec<StateId> = (0..n).filter(|&s| reachable[s] && productive[s]).collect();
    if live.is_empty() {
        return 0;
    }
    // Row `i` is live state `live[i]`; the last row is the dead state.
    let dead = live.len();
    let row_of = |s: StateId| live.binary_search(&s).unwrap_or(dead);
    let mut table = vec![vec![dead; symbols.len()]; dead + 1];
    for (i, &s) in live.iter().enumerate() {
        for (a, t) in dfa.transitions(s) {
            table[i][symbols.binary_search(&a).unwrap()] = row_of(t);
        }
    }
    let mut class: Vec<usize> = (0..=dead)
        .map(|i| usize::from(i < dead && dfa.is_accepting(live[i])))
        .collect();
    let mut class_count = 0;
    loop {
        let mut ids = std::collections::BTreeMap::new();
        let next: Vec<usize> = (0..=dead)
            .map(|i| {
                let signature: Vec<usize> = std::iter::once(class[i])
                    .chain(table[i].iter().map(|&t| class[t]))
                    .collect();
                let fresh = ids.len();
                *ids.entry(signature).or_insert(fresh)
            })
            .collect();
        if ids.len() == class_count {
            break;
        }
        class_count = ids.len();
        class = next;
    }
    // A live state reaches acceptance and the dead state does not, so
    // the dead state is alone in its class.
    assert!((0..dead).all(|i| class[i] != class[dead]));
    class_count - 1
}

/// First string of at most `max_len` symbols over `symbols` that one of
/// `a`, `b` accepts and the other rejects, by walking both at once.
fn first_disagreement(a: &Dfa, b: &Dfa, symbols: &[Symbol], max_len: usize) -> Option<Vec<Symbol>> {
    fn walk(
        (a, sa): (&Dfa, Option<StateId>),
        (b, sb): (&Dfa, Option<StateId>),
        symbols: &[Symbol],
        budget: usize,
        string: &mut Vec<Symbol>,
    ) -> bool {
        if sa.is_some_and(|s| a.is_accepting(s)) != sb.is_some_and(|s| b.is_accepting(s)) {
            return true;
        }
        if budget == 0 || (sa.is_none() && sb.is_none()) {
            return false;
        }
        for &sym in symbols {
            string.push(sym);
            let ta = sa.and_then(|s| a.step(s, sym));
            let tb = sb.and_then(|s| b.step(s, sym));
            if walk((a, ta), (b, tb), symbols, budget - 1, string) {
                return true;
            }
            string.pop();
        }
        false
    }
    let mut string = Vec::new();
    walk(
        (a, Some(a.start())),
        (b, Some(b.start())),
        symbols,
        max_len,
        &mut string,
    )
    .then_some(string)
}

/// `dfa` with its states renumbered in the order of `keys` (ties by
/// id), rebuilt through [`Dfa::from_parts`]: the same language from a
/// different numbering.
fn permuted(dfa: &Dfa, keys: &[u32]) -> Dfa {
    let n = dfa.state_count();
    let mut order: Vec<StateId> = (0..n).collect();
    order.sort_by_key(|&s| (keys[s % keys.len()], s));
    let mut new_id = vec![0; n];
    for (id, &s) in order.iter().enumerate() {
        new_id[s] = id;
    }
    let accepting: Vec<StateId> = (0..n)
        .filter(|&s| dfa.is_accepting(s))
        .map(|s| new_id[s])
        .collect();
    let transitions: Vec<(StateId, Symbol, StateId)> = (0..n)
        .flat_map(|s| {
            let new_id = &new_id;
            dfa.transitions(s)
                .map(move |(a, t)| (new_id[s], a, new_id[t]))
        })
        .collect();
    Dfa::from_parts(n, new_id[dfa.start()], &accepting, &transitions)
}

/// Everything `Dfa::minimize` promises, checked against the naive
/// reference: the class count, the language, minimality, idempotence,
/// and canonicity — the result depends on the language only, not on how
/// the input numbered or arranged its states.
fn check_minimize(dfa: &Dfa, keys: &[u32]) -> Result<(), String> {
    let min = dfa.minimize();
    // The empty language keeps one (dead) state: a `Dfa` has a start.
    prop_assert_eq!(min.state_count(), naive_class_count(dfa).max(1));
    let disagreement = first_disagreement(dfa, &min, &dfa.alphabet(), 6);
    prop_assert!(
        disagreement.is_none(),
        "membership differs on {disagreement:?}"
    );
    prop_assert_eq!(naive_class_count(&min).max(1), min.state_count());
    prop_assert_eq!(&min.minimize(), &min);
    prop_assert_eq!(&permuted(dfa, keys).minimize(), &min);
    prop_assert_eq!(&reverse(&reverse(dfa)).minimize(), &min);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Determinization preserves membership for arbitrary combinator
    /// trees.
    #[test]
    fn determinize_preserves_membership(nfa in small_nfa(), s in short_string()) {
        let dfa = nfa.determinize();
        prop_assert_eq!(nfa.contains(s.iter().copied()), dfa.contains(s.iter().copied()));
    }

    /// trim() never changes the language.
    #[test]
    fn trim_preserves_language(nfa in small_nfa(), s in short_string()) {
        let dfa = nfa.determinize();
        prop_assert_eq!(
            dfa.contains(s.iter().copied()),
            dfa.trim().contains(s.iter().copied())
        );
    }

    /// Minimization yields the smallest automaton among our pipeline's
    /// outputs and never changes membership.
    #[test]
    fn minimize_is_sound_and_small(nfa in small_nfa(), s in short_string()) {
        let dfa = nfa.determinize();
        let min = dfa.minimize();
        prop_assert_eq!(dfa.contains(s.iter().copied()), min.contains(s.iter().copied()));
        prop_assert!(min.state_count() <= dfa.trim().state_count().max(1));
    }

    /// Complement over the 3-symbol universe flips membership exactly.
    #[test]
    fn complement_flips_membership(nfa in small_nfa(), s in short_string()) {
        let alphabet: Vec<Symbol> = (0..3).collect();
        let dfa = nfa.determinize();
        let comp = dfa.complement(&alphabet);
        prop_assert_eq!(
            dfa.contains(s.iter().copied()),
            !comp.contains(s.iter().copied())
        );
    }

    /// De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B, checked pointwise.
    #[test]
    fn de_morgan(a in small_nfa(), b in small_nfa(), s in short_string()) {
        let alphabet: Vec<Symbol> = (0..3).collect();
        let da = a.determinize();
        let db = b.determinize();
        let lhs = da.union(&db).complement(&alphabet);
        let rhs = da.complement(&alphabet).intersect(&db.complement(&alphabet));
        prop_assert_eq!(lhs.contains(s.iter().copied()), rhs.contains(s.iter().copied()));
    }

    /// Left quotient: w ∈ p⁻¹L iff some prefix string p' ∈ P has p'w ∈ L.
    #[test]
    fn left_quotient_definition(
        lang in small_nfa(),
        prefix in proptest::collection::vec(0u32..3, 0..3),
        suffix in short_string(),
    ) {
        let l = lang.determinize();
        let p = Nfa::literal(prefix.iter().copied()).determinize();
        let q = l.left_quotient(&p);
        let mut full = prefix.clone();
        full.extend(suffix.iter().copied());
        // With a singleton prefix language the definition is exact.
        prop_assert_eq!(
            q.contains(suffix.iter().copied()),
            l.contains(full.iter().copied())
        );
    }

    /// Walk counts are monotone in both budget and language growth.
    #[test]
    fn walk_counts_monotone(nfa in small_nfa()) {
        let dfa = nfa.determinize().minimize();
        let table = WalkTable::new(&dfa, 8);
        let mut last = 0.0;
        for budget in 0..=8 {
            let c = table.count(dfa.start(), budget);
            prop_assert!(c >= last, "budget {budget}: {c} < {last}");
            last = c;
        }
        // And equals the exact enumeration when small.
        let exact = WalkTable::count_exact(&dfa, 8);
        if exact < 1_000_000 {
            prop_assert_eq!(table.count(dfa.start(), 8) as u128, exact);
        }
    }

    /// Enumeration output is sound, deduplicated, and within bounds.
    #[test]
    fn enumerate_is_sound(nfa in small_nfa()) {
        let dfa = nfa.determinize();
        let results = dfa.enumerate(5, 64);
        prop_assert!(results.len() <= 64);
        let mut seen = std::collections::HashSet::new();
        for r in &results {
            prop_assert!(r.len() <= 5);
            prop_assert!(dfa.contains(r.iter().copied()), "enumerated non-member {r:?}");
            prop_assert!(seen.insert(r.clone()), "duplicate {r:?}");
        }
    }

    /// Subset construction gives the same automaton, state for state,
    /// whatever `Parallelism` it is asked for.
    #[test]
    fn sharded_determinize_is_structurally_identical(
        nfa in small_nfa(),
        threads in 2usize..6,
    ) {
        let serial = nfa.determinize();
        let threads = std::num::NonZeroUsize::new(threads).unwrap();
        let sharded = nfa.determinize_with(relm_automata::Parallelism::Sharded(threads));
        prop_assert_eq!(serial, sharded);
    }

    /// `finite_size` agrees with enumeration on finite languages.
    #[test]
    fn longest_len_agrees_with_enumeration(nfa in small_nfa()) {
        let dfa = nfa.determinize().minimize();
        if let Some((longest, count)) = dfa.finite_size() {
            if count < 4096 {
                let all = dfa.enumerate(longest, 4096);
                prop_assert_eq!(all.len() as u128, count);
                let max_seen = all.iter().map(Vec::len).max().unwrap_or(0);
                prop_assert_eq!(longest, max_seen);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `minimize` against the naive reference, on combinator trees.
    #[test]
    fn minimize_matches_naive_reference_on_nfas(nfa in small_nfa(), keys in permutation_keys()) {
        check_minimize(&nfa.determinize(), &keys)?;
    }

    /// `minimize` against the naive reference, on random partial DFAs
    /// with unreachable, dead and mergeable states.
    #[test]
    fn minimize_matches_naive_reference_on_partial_dfas(
        dfa in partial_dfa(),
        keys in permutation_keys(),
    ) {
        check_minimize(&dfa, &keys)?;
    }
}

/// The longest walk budget the prefix-draw oracle tables cover.
const DRAW_MAX_BUDGET: usize = 8;

/// A test-only copy of the prefix-draw rule as the sampler used it
/// before `WalkTable::draw`: collect the choices of positive weight
/// (edges in transition order, then stop) and normalize each by their
/// sum. `None` when no accepting walk remains.
fn reference_distribution(
    table: &WalkTable,
    dfa: &Dfa,
    state: StateId,
    budget: usize,
) -> Option<(Vec<WalkChoice>, Vec<f64>)> {
    let mut choices = Vec::new();
    let mut weights = Vec::new();
    if budget > 0 {
        for (symbol, target) in dfa.transitions(state) {
            let w = table.edge_weight(target, budget);
            if w > 0.0 {
                choices.push(WalkChoice::Step { symbol, target });
                weights.push(w);
            }
        }
    }
    let stop = table.stop_weight(dfa, state);
    if stop > 0.0 {
        choices.push(WalkChoice::Stop);
        weights.push(stop);
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    for w in &mut weights {
        *w /= total;
    }
    Some((choices, weights))
}

/// The copy's draw: the first choice whose running sum exceeds `u`,
/// else the last.
fn reference_sample(choices: &[WalkChoice], weights: &[f64], u: f64) -> WalkChoice {
    let mut acc = 0.0;
    for (c, w) in choices.iter().zip(weights) {
        acc += w;
        if u < acc {
            return *c;
        }
    }
    *choices.last().expect("a distribution has a choice")
}

/// The draws worth checking at one state: zero, every running-sum
/// boundary of the copy and the float just below it, and the top of
/// `[0, 1)`.
fn boundary_draws(weights: &[f64]) -> Vec<f64> {
    let mut draws = vec![0.0, 1.0 - f64::EPSILON, 1.0f64.next_down()];
    let mut acc = 0.0;
    for w in weights {
        acc += w;
        draws.push(acc);
        draws.push(acc.next_down());
    }
    draws
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 1024 }))]

    /// The sampler's prefix draw against the test-only copy of the
    /// two-vector rule, at every state and budget of a random partial
    /// DFA and at every boundary where the pick changes: the same
    /// choice, including the fall-back past a sum that rounds below 1.
    #[test]
    fn draw_matches_the_two_vector_rule(dfa in partial_dfa()) {
        let table = WalkTable::new(&dfa, DRAW_MAX_BUDGET);
        for state in 0..dfa.state_count() {
            for budget in 0..=DRAW_MAX_BUDGET {
                let reference = reference_distribution(&table, &dfa, state, budget);
                let draws = reference
                    .as_ref()
                    .map_or_else(|| vec![0.0, 0.5], |(_, weights)| boundary_draws(weights));
                for u in draws {
                    let expected = reference
                        .as_ref()
                        .map(|(choices, weights)| reference_sample(choices, weights, u));
                    let got = table.draw(&dfa, state, budget, u);
                    prop_assert_eq!(got, expected, "state {}, budget {}, u {}", state, budget, u);
                }
            }
        }
    }
}

/// Random NFAs with shared targets: `n` states whose labelled edges are
/// drawn at random (several per state, duplicates and same-symbol forks
/// allowed, so two members of a state set often reach one target on one
/// symbol), joined with a [`small_nfa`] by a combinator that adds
/// ε-edges. The Thompson shapes of `small_nfa` alone never share a
/// target between states.
fn tangled_nfa() -> impl Strategy<Value = Nfa> {
    let raw = proptest::collection::vec(0usize..1 << 16, 64..65).prop_map(|draws| {
        // Eight states of four edges take 81 draws: past the 64th, the
        // draws start over rather than run out.
        let mut draws = draws.into_iter().cycle();
        let mut draw = |bound: usize| draws.next().expect("the draws repeat") % bound;
        let n = 1 + draw(8);
        let mut nfa = Nfa::empty();
        for _ in 1..n {
            nfa.add_state();
        }
        for s in 0..n {
            nfa.set_accepting(s, draw(3) == 0);
            for _ in 0..draw(5) {
                nfa.add_transition(s, draw(3) as Symbol, draw(n));
            }
        }
        nfa
    });
    (raw, small_nfa(), 0usize..3).prop_map(|(raw, other, how)| match how {
        0 => raw.union(other),
        1 => raw.concat(other).star(),
        _ => other.concat(raw),
    })
}

/// The ε-closure of `set` by breadth-first search over
/// [`Nfa::epsilon_transitions`].
fn reference_closure(nfa: &Nfa, set: BTreeSet<StateId>) -> BTreeSet<StateId> {
    let mut closure = set.clone();
    let mut queue: VecDeque<StateId> = set.into_iter().collect();
    while let Some(s) = queue.pop_front() {
        for t in nfa.epsilon_transitions(s) {
            if closure.insert(t) {
                queue.push_back(t);
            }
        }
    }
    closure
}

/// A test-only subset construction that shares no code with the
/// library's: `BTreeSet` state sets numbered in FIFO discovery order
/// from the start set (id 0), each set's moves grouped by symbol in a
/// `BTreeMap` and followed in ascending symbol order, `close` finishing
/// every target set, and the result rebuilt with [`Dfa::from_parts`].
fn reference_subsets(
    start: BTreeSet<StateId>,
    moves: impl Fn(StateId) -> Vec<(Symbol, StateId)>,
    close: impl Fn(BTreeSet<StateId>) -> BTreeSet<StateId>,
    accepting: impl Fn(StateId) -> bool,
) -> Dfa {
    let mut sets = vec![start.clone()];
    let mut ids = BTreeMap::from([(start, 0)]);
    let mut queue = VecDeque::from([0]);
    let mut transitions = Vec::new();
    while let Some(id) = queue.pop_front() {
        let mut grouped: BTreeMap<Symbol, BTreeSet<StateId>> = BTreeMap::new();
        for &s in &sets[id] {
            for (symbol, t) in moves(s) {
                grouped.entry(symbol).or_default().insert(t);
            }
        }
        for (symbol, targets) in grouped {
            let target = close(targets);
            let next = match ids.get(&target) {
                Some(&next) => next,
                None => {
                    let next = sets.len();
                    ids.insert(target.clone(), next);
                    sets.push(target);
                    queue.push_back(next);
                    next
                }
            };
            transitions.push((id, symbol, next));
        }
    }
    let accepting: Vec<StateId> = (0..sets.len())
        .filter(|&id| sets[id].iter().any(|&s| accepting(s)))
        .collect();
    Dfa::from_parts(sets.len(), 0, &accepting, &transitions)
}

/// [`Nfa::determinize`] by the reference construction.
fn reference_determinize(nfa: &Nfa) -> Dfa {
    reference_subsets(
        reference_closure(nfa, BTreeSet::from([nfa.start()])),
        |s| nfa.transitions(s).collect(),
        |set| reference_closure(nfa, set),
        |s| nfa.is_accepting(s),
    )
}

/// [`Dfa::left_quotient`] by the reference construction: the states of
/// `full` that some string of `prefix` leads to (a breadth-first sweep
/// of the product), then the subsets reachable from them, trimmed.
fn reference_left_quotient(full: &Dfa, prefix: &Dfa) -> Dfa {
    let mut starts = BTreeSet::new();
    let mut seen = BTreeSet::from([(full.start(), prefix.start())]);
    let mut queue = VecDeque::from([(full.start(), prefix.start())]);
    while let Some((sf, sp)) = queue.pop_front() {
        if prefix.is_accepting(sp) {
            starts.insert(sf);
        }
        for (symbol, tf) in full.transitions(sf) {
            if let Some(tp) = prefix.step(sp, symbol) {
                if seen.insert((tf, tp)) {
                    queue.push_back((tf, tp));
                }
            }
        }
    }
    if starts.is_empty() {
        return Dfa::empty();
    }
    reference_subsets(
        starts,
        |s| full.transitions(s).collect(),
        |set| set,
        |s| full.is_accepting(s),
    )
    .trim()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 1024 }))]

    /// Subset construction against the reference, state for state and
    /// edge for edge: the same numbering, the same acceptance, the same
    /// edges.
    #[test]
    fn subset_determinize_matches_reference(nfa in small_nfa(), tangled in tangled_nfa()) {
        prop_assert_eq!(nfa.determinize(), reference_determinize(&nfa));
        prop_assert_eq!(tangled.determinize(), reference_determinize(&tangled));
    }

    /// The quotient's subset construction against the reference, on
    /// determinized combinator trees and on random partial DFAs (whose
    /// quotients start from wide state sets with unreachable and dead
    /// members).
    #[test]
    fn subset_quotient_matches_reference(
        a in small_nfa(),
        b in small_nfa(),
        c in partial_dfa(),
        d in partial_dfa(),
    ) {
        let (da, db) = (a.determinize(), b.determinize());
        prop_assert_eq!(da.left_quotient(&db), reference_left_quotient(&da, &db));
        prop_assert_eq!(c.left_quotient(&d), reference_left_quotient(&c, &d));
        prop_assert_eq!(c.left_quotient(&db), reference_left_quotient(&c, &db));
    }
}

/// The bias template of the paper's cold queries, "The man was trained
/// in (p₁|…|pₙ).", over the given professions, before its edit
/// expansion.
fn bias_template(gender: &str, professions: &[&str]) -> Nfa {
    let lit = |text: &str| Nfa::literal(relm_automata::str_symbols(text));
    let choice = professions.iter().map(|p| lit(p)).reduce(Nfa::union);
    lit(&format!("The {gender} was trained in "))
        .concat(choice.expect("at least one profession"))
        .concat(lit("."))
}

/// The ten professions of the paper's bias queries (§4.2).
const PROFESSIONS: [&str; 10] = [
    "art",
    "business",
    "computer science",
    "engineering",
    "humanities",
    "information systems",
    "math",
    "medicine",
    "science",
    "social sciences",
];

/// The heavy shape of a cold compile against the reference: the
/// Levenshtein-1 expansion of both genders' ten-profession
/// [`bias_template`]s over the 95 printable-ASCII symbols (1,339 states
/// once determinized), and its quotient by one expanded prefix, as a
/// prefixed query compiles it.
#[test]
fn subset_levenshtein_template_matches_reference() {
    let alphabet = ascii_alphabet();
    let both = bias_template("man", &PROFESSIONS).union(bias_template("woman", &PROFESSIONS));
    let nfa = relm_automata::levenshtein_within(&both, 1, &alphabet);
    let dfa = nfa.determinize();
    assert!(dfa.state_count() > 1000, "{} states", dfa.state_count());
    assert_eq!(dfa, reference_determinize(&nfa));
    let prefix = Nfa::literal(relm_automata::str_symbols("The man was trained in "));
    let prefix = relm_automata::levenshtein_within(&prefix, 1, &alphabet)
        .determinize()
        .minimize();
    let full = dfa.minimize();
    assert_eq!(
        full.left_quotient(&prefix),
        reference_left_quotient(&full, &prefix)
    );
}

#[test]
fn levenshtein_expansion_is_monotone_in_distance() {
    let word = Nfa::literal(relm_automata::str_symbols("query"));
    let alphabet = ascii_alphabet();
    let mut previous: Option<Dfa> = None;
    for d in 0..3 {
        let current = relm_automata::levenshtein_within(&word, d, &alphabet).determinize();
        if let Some(prev) = &previous {
            // Every string within d-1 edits is within d edits.
            for s in prev.enumerate(8, 200) {
                assert!(current.contains(s.iter().copied()), "lost {s:?} at d={d}");
            }
        }
        previous = Some(current);
    }
}

/// The heavy shape of a cold compile, in tier-1: the Levenshtein-1
/// expansion (what `Preprocessor::levenshtein(1)` builds) of a
/// three-profession [`bias_template`] over the 95 printable-ASCII
/// symbols.
#[test]
fn minimize_levenshtein_template_matches_naive_reference() {
    let dfa = relm_automata::levenshtein_within(
        &bias_template("man", &["art", "science", "medicine"]),
        1,
        &ascii_alphabet(),
    )
    .determinize();
    assert_eq!(dfa.alphabet().len(), 95);
    let min = dfa.minimize();
    assert_eq!(min.state_count(), naive_class_count(&dfa));
    assert!(min.state_count() < dfa.state_count());
    assert!(min.equivalent(&dfa));
    assert_eq!(min.minimize(), min);
}

/// A test-only copy of the enumerability pre-check `Dfa::finite_size`
/// replaced: the longest string's length by a post-order DP over the
/// trimmed automaton once a grey/black DFS finds it acyclic, then the
/// count of strings up to `max_len` by the walk-count DP.
fn reference_longest_string_len(dfa: &Dfa) -> Option<usize> {
    let trimmed = dfa.trim();
    if trimmed.is_empty_language() {
        return None;
    }
    let n = trimmed.state_count();
    // 0 white, 1 grey, 2 black; `order` is the post-order.
    let mut marks = vec![0u8; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if marks[root] != 0 {
            continue;
        }
        let mut stack: Vec<(StateId, Vec<StateId>)> =
            vec![(root, trimmed.transitions(root).map(|(_, t)| t).collect())];
        marks[root] = 1;
        while let Some((s, pending)) = stack.last_mut() {
            let s = *s;
            if let Some(t) = pending.pop() {
                match marks[t] {
                    1 => return None,
                    0 => {
                        marks[t] = 1;
                        stack.push((t, trimmed.transitions(t).map(|(_, u)| u).collect()));
                    }
                    _ => {}
                }
            } else {
                marks[s] = 2;
                order.push(s);
                stack.pop();
            }
        }
    }
    let mut memo: Vec<Option<usize>> = vec![None; n];
    for &s in &order {
        let mut best = trimmed.is_accepting(s).then_some(0);
        for (_, t) in trimmed.transitions(s) {
            if let Some(len) = memo[t] {
                best = Some(best.map_or(len + 1, |b: usize| b.max(len + 1)));
            }
        }
        memo[s] = best;
    }
    memo[trimmed.start()]
}

/// The pre-check `compile_canonical` ran before `Dfa::finite_size`.
fn reference_enumerable(dfa: &Dfa, max_len: usize, max_strings: u128) -> bool {
    match reference_longest_string_len(dfa) {
        Some(longest) => longest <= max_len && WalkTable::count_exact(dfa, max_len) <= max_strings,
        None => dfa.is_empty_language(),
    }
}

/// The pre-check `compile_canonical` runs now.
fn enumerable(dfa: &Dfa, max_len: usize, max_strings: u128) -> bool {
    dfa.finite_size()
        .is_some_and(|(longest, count)| longest <= max_len && count <= max_strings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 1024 }))]

    /// `finite_size` decides enumerability as the two-pass check did,
    /// for random limits, on combinator trees, random graphs and random
    /// partial DFAs (dead cycles, unreachable states), minimized or not;
    /// and on finite languages its parts are the old longest length
    /// and the walk-count total.
    #[test]
    fn finite_size_matches_the_two_pass_check(
        nfa in small_nfa(),
        tangled in tangled_nfa(),
        partial in partial_dfa(),
        max_len in 0usize..12,
        max_strings in 0u64..40,
    ) {
        let max_strings = u128::from(max_strings);
        let d = nfa.determinize();
        for dfa in [d.minimize(), d, tangled.determinize(), partial] {
            prop_assert_eq!(
                enumerable(&dfa, max_len, max_strings),
                reference_enumerable(&dfa, max_len, max_strings)
            );
            let longest = reference_longest_string_len(&dfa);
            match dfa.finite_size() {
                Some((0, 0)) => prop_assert!(dfa.is_empty_language()),
                Some((l, count)) => {
                    prop_assert_eq!(Some(l), longest);
                    prop_assert_eq!(count, WalkTable::count_exact(&dfa, l));
                }
                None => {
                    prop_assert_eq!(longest, None);
                    prop_assert!(!dfa.is_empty_language());
                }
            }
        }
    }
}
