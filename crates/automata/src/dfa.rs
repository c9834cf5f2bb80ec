//! Deterministic finite automata: subset construction, Hopcroft
//! minimization, boolean language operations, and enumeration.
//!
//! Subset construction ([`Nfa::determinize`]) and the quotient
//! determinization behind [`Dfa::left_quotient`] are one loop,
//! [`subsets`], run on the calling thread over interned state sets:
//! every state set is a sorted slice, looked up by a borrowed slice and
//! numbered in discovery order.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::nfa::Nfa;
use crate::pool::Parallelism;
use crate::{StateId, Symbol};

/// The state sets of a subset construction, numbered in the order they
/// are interned. Each set is stored twice: as the key of the map that
/// numbers the sets, and in one flat member array the expansion reads.
struct StateSets {
    ids: HashMap<Box<[StateId]>, StateId>,
    /// Set `id` is `members[bounds[id]..bounds[id + 1]]`.
    members: Vec<StateId>,
    bounds: Vec<usize>,
}

impl StateSets {
    fn new() -> Self {
        StateSets {
            ids: HashMap::new(),
            members: Vec::new(),
            bounds: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn members(&self, id: StateId) -> &[StateId] {
        &self.members[self.bounds[id]..self.bounds[id + 1]]
    }

    /// The id of `set`, and whether it was interned just now. A set
    /// seen before costs a lookup and no allocation.
    fn intern(&mut self, set: &[StateId]) -> (StateId, bool) {
        if let Some(&id) = self.ids.get(set) {
            return (id, false);
        }
        let id = self.len();
        self.ids.insert(set.into(), id);
        self.members.extend_from_slice(set);
        self.bounds.push(self.members.len());
        (id, true)
    }
}

/// Subset construction from the sorted, deduplicated state set `start`,
/// over states whose labelled edges `edges` returns and whose
/// acceptance `accepting` reports. `close` finishes every state set
/// (the start set and each move's targets, handed over sorted and
/// deduplicated) into the set that names a DFA state, and leaves it
/// sorted and deduplicated: the ε-closure for a determinization,
/// nothing for a quotient.
///
/// DFA states are numbered in discovery order: state 0 is the start
/// set, and a state's moves are followed in ascending symbol order.
/// States are therefore expanded in the order of their ids, and the
/// work queue is just `0..states.len()`.
fn subsets<'a>(
    mut start: Vec<StateId>,
    edges: impl Fn(StateId) -> &'a [(Symbol, StateId)],
    accepting: impl Fn(StateId) -> bool,
    mut close: impl FnMut(&mut Vec<StateId>),
) -> Dfa {
    let mut sets = StateSets::new();
    let mut states: Vec<DfaState> = Vec::new();
    let new_state = |set: &[StateId]| DfaState {
        transitions: Vec::new(),
        accepting: set.iter().any(|&s| accepting(s)),
    };
    close(&mut start);
    sets.intern(&start);
    states.push(new_state(&start));
    let mut moves: Vec<(Symbol, StateId)> = Vec::new();
    let mut targets: Vec<StateId> = Vec::new();
    let mut id = 0;
    while id < states.len() {
        moves.clear();
        for &s in sets.members(id) {
            moves.extend_from_slice(edges(s));
        }
        moves.sort_unstable();
        moves.dedup();
        let mut transitions = Vec::new();
        for group in moves.chunk_by(|x, y| x.0 == y.0) {
            targets.clear();
            targets.extend(group.iter().map(|&(_, t)| t));
            close(&mut targets);
            let (target, new) = sets.intern(&targets);
            if new {
                states.push(new_state(&targets));
            }
            transitions.push((group[0].0, target));
        }
        states[id].transitions = transitions;
        id += 1;
    }
    Dfa { states, start: 0 }
}

/// A partition of the states `0..n` for [`Dfa::minimize`]: every block
/// is an index range over one permutation vector, and a block is split
/// by first moving the states to separate to the front of its range.
struct Partition {
    /// The states, grouped by block.
    elems: Vec<StateId>,
    /// `elems[loc[s]] == s`.
    loc: Vec<usize>,
    /// The block each state is in.
    block_of: Vec<usize>,
    /// Block `b` is `elems[first[b]..end[b]]`, its first `marked[b]`
    /// states the marked ones.
    first: Vec<usize>,
    end: Vec<usize>,
    marked: Vec<usize>,
}

impl Partition {
    /// The states `0..n` in at most two blocks: those `accepting` holds
    /// for, then the rest. An empty side gets no block.
    fn new(n: usize, accepting: impl Fn(StateId) -> bool) -> Self {
        let mut elems: Vec<StateId> = (0..n).collect();
        elems.sort_by_key(|&s| !accepting(s));
        let split = elems.partition_point(|&s| accepting(s));
        let mut partition = Partition {
            loc: vec![0; n],
            block_of: vec![0; n],
            first: Vec::new(),
            end: Vec::new(),
            marked: Vec::new(),
            elems,
        };
        for (i, &s) in partition.elems.iter().enumerate() {
            partition.loc[s] = i;
        }
        for (first, end) in [(0, split), (split, n)] {
            if first < end {
                partition.push_block(first, end);
            }
        }
        partition
    }

    fn block_count(&self) -> usize {
        self.first.len()
    }

    fn members(&self, block: usize) -> &[StateId] {
        &self.elems[self.first[block]..self.end[block]]
    }

    /// Make `elems[first..end]` a new block and return its id.
    fn push_block(&mut self, first: usize, end: usize) -> usize {
        let block = self.first.len();
        for &s in &self.elems[first..end] {
            self.block_of[s] = block;
        }
        self.first.push(first);
        self.end.push(end);
        self.marked.push(0);
        block
    }

    /// Mark the unmarked state `s`, recording its block in `touched`
    /// when it is the block's first marked state.
    fn mark(&mut self, s: StateId, touched: &mut Vec<usize>) {
        let block = self.block_of[s];
        let slot = self.first[block] + self.marked[block];
        debug_assert!(self.loc[s] >= slot, "state marked twice");
        if self.marked[block] == 0 {
            touched.push(block);
        }
        let other = self.elems[slot];
        self.elems.swap(self.loc[s], slot);
        self.loc[other] = self.loc[s];
        self.loc[s] = slot;
        self.marked[block] += 1;
    }

    /// Unmark `block`; if only some of its states were marked, move the
    /// smaller of the two sides into a new block and return that.
    fn split(&mut self, block: usize) -> Option<usize> {
        let (first, end) = (self.first[block], self.end[block]);
        let mid = first + std::mem::take(&mut self.marked[block]);
        if mid == end {
            return None;
        }
        if mid - first <= end - mid {
            self.first[block] = mid;
            Some(self.push_block(first, mid))
        } else {
            self.end[block] = mid;
            Some(self.push_block(mid, end))
        }
    }
}

/// A single DFA state with transitions sorted by symbol (binary-searchable).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DfaState {
    /// Sorted `(symbol, target)` pairs — at most one target per symbol.
    transitions: Vec<(Symbol, StateId)>,
    accepting: bool,
}

/// A deterministic finite automaton over `u32` symbols.
///
/// Produced from an [`Nfa`] by [`Nfa::determinize`] (subset construction).
/// Supports the boolean algebra of regular languages (intersection, union,
/// difference, complement), Hopcroft minimization, bounded enumeration,
/// and membership queries — everything the ReLM graph compiler and
/// executor need from the *Natural Language Automaton*.
///
/// # Example
///
/// ```
/// use relm_automata::{Nfa, str_symbols};
///
/// let a = Nfa::literal(str_symbols("cat")).determinize();
/// let b = Nfa::literal(str_symbols("cat"))
///     .union(Nfa::literal(str_symbols("dog")))
///     .determinize();
/// let both = a.intersect(&b);
/// assert!(both.contains(str_symbols("cat")));
/// assert!(!both.contains(str_symbols("dog")));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dfa {
    states: Vec<DfaState>,
    start: StateId,
}

impl Dfa {
    /// The DFA accepting the empty language.
    pub fn empty() -> Self {
        Dfa {
            states: vec![DfaState::default()],
            start: 0,
        }
    }

    /// Subset construction from an NFA: ε-closures by a walk from the
    /// set's members, marking what it reaches with a stamp array reused
    /// across closures, then a sort.
    pub(crate) fn from_nfa(nfa: &Nfa) -> Self {
        let mut stamp = vec![0usize; nfa.states.len()];
        let mut epoch = 0;
        let close = |set: &mut Vec<StateId>| {
            epoch += 1;
            for &s in set.iter() {
                stamp[s] = epoch;
            }
            let before = set.len();
            let mut next = 0;
            while next < set.len() {
                for &t in &nfa.states[set[next]].epsilon {
                    if stamp[t] != epoch {
                        stamp[t] = epoch;
                        set.push(t);
                    }
                }
                next += 1;
            }
            if set.len() > before {
                set.sort_unstable();
            }
        };
        subsets(
            vec![nfa.start],
            |s| &nfa.states[s].transitions,
            |s| nfa.states[s].accepting,
            close,
        )
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `state` accepts.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states[state].accepting
    }

    /// The transition from `state` on `symbol`, if present.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn step(&self, state: StateId, symbol: Symbol) -> Option<StateId> {
        let st = &self.states[state];
        st.transitions
            .binary_search_by_key(&symbol, |&(s, _)| s)
            .ok()
            .map(|i| st.transitions[i].1)
    }

    /// Iterate over `(symbol, target)` transitions of `state`, in symbol
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn transitions(
        &self,
        state: StateId,
    ) -> impl ExactSizeIterator<Item = (Symbol, StateId)> + '_ {
        self.states[state].transitions.iter().copied()
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.transitions.len()).sum()
    }

    /// Estimated resident heap bytes of this automaton (states, sorted
    /// transition arrays, and per-`Vec` headers). Used by byte-budgeted
    /// caches (a session's plan memo) to charge compiled automata their
    /// real footprint rather than counting entries.
    pub fn estimated_bytes(&self) -> usize {
        let per_state = std::mem::size_of::<Vec<(Symbol, StateId)>>() + std::mem::size_of::<bool>();
        std::mem::size_of::<Self>()
            + self.states.len() * per_state
            + self.transition_count() * std::mem::size_of::<(Symbol, StateId)>()
    }

    /// Run the DFA over `symbols`, returning the final state if no
    /// transition is missing.
    pub fn run<I: IntoIterator<Item = Symbol>>(&self, symbols: I) -> Option<StateId> {
        let mut state = self.start;
        for a in symbols {
            state = self.step(state, a)?;
        }
        Some(state)
    }

    /// Membership test.
    pub fn contains<I: IntoIterator<Item = Symbol>>(&self, symbols: I) -> bool {
        self.run(symbols).is_some_and(|s| self.is_accepting(s))
    }

    /// Whether the language is empty (no accepting state reachable).
    pub fn is_empty_language(&self) -> bool {
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start] = true;
        while let Some(s) = queue.pop_front() {
            if self.states[s].accepting {
                return false;
            }
            for &(_, t) in &self.states[s].transitions {
                if !seen[t] {
                    seen[t] = true;
                    queue.push_back(t);
                }
            }
        }
        true
    }

    /// The set of symbols appearing on any transition.
    pub fn alphabet(&self) -> Vec<Symbol> {
        let mut set = BTreeSet::new();
        for st in &self.states {
            for &(a, _) in &st.transitions {
                set.insert(a);
            }
        }
        set.into_iter().collect()
    }

    /// Remove states that cannot reach an accepting state or are not
    /// reachable from the start state. Keeps the automaton *trim*, which
    /// the walk-counting table requires (dead states would inflate counts
    /// of non-accepting walks).
    #[must_use]
    pub fn trim(&self) -> Dfa {
        let n = self.states.len();
        let live = self.live_states();
        if !live[self.start] {
            return Dfa::empty();
        }
        let mut remap = vec![usize::MAX; n];
        let mut out = Dfa {
            states: Vec::new(),
            start: 0,
        };
        for s in 0..n {
            if live[s] {
                remap[s] = out.states.len();
                out.states.push(DfaState {
                    transitions: Vec::new(),
                    accepting: self.states[s].accepting,
                });
            }
        }
        for s in 0..n {
            if live[s] {
                for &(a, t) in &self.states[s].transitions {
                    if live[t] {
                        out.states[remap[s]].transitions.push((a, remap[t]));
                    }
                }
            }
        }
        out.start = remap[self.start];
        out
    }

    /// Which states are live: reachable from the start state and able
    /// to reach an accepting state. Reverse edges are one CSR array.
    fn live_states(&self) -> Vec<bool> {
        let n = self.states.len();
        let mut fwd = vec![false; n];
        let mut queue = VecDeque::from([self.start]);
        fwd[self.start] = true;
        while let Some(s) = queue.pop_front() {
            for &(_, t) in &self.states[s].transitions {
                if !fwd[t] {
                    fwd[t] = true;
                    queue.push_back(t);
                }
            }
        }
        // `sources[first[t]..first[t + 1]]` are the states with an edge
        // into `t`.
        let mut first = vec![0usize; n + 1];
        for st in &self.states {
            for &(_, t) in &st.transitions {
                first[t + 1] += 1;
            }
        }
        for t in 0..n {
            first[t + 1] += first[t];
        }
        let mut fill = first.clone();
        let mut sources = vec![0; first[n]];
        for (s, st) in self.states.iter().enumerate() {
            for &(_, t) in &st.transitions {
                sources[fill[t]] = s;
                fill[t] += 1;
            }
        }
        let mut bwd = vec![false; n];
        queue.extend((0..n).filter(|&s| self.states[s].accepting));
        for &s in &queue {
            bwd[s] = true;
        }
        while let Some(s) = queue.pop_front() {
            for &p in &sources[first[s]..first[s + 1]] {
                if !bwd[p] {
                    bwd[p] = true;
                    queue.push_back(p);
                }
            }
        }
        for (f, b) in fwd.iter_mut().zip(bwd) {
            *f &= b;
        }
        fwd
    }

    /// Hopcroft's minimization algorithm: the canonical minimal DFA for
    /// the language, with dead and unreachable states trimmed away.
    ///
    /// The result depends on the language only, not on how `self`
    /// numbers or arranges its states, and golden digests, stored plan
    /// artifacts and plan-memo byte counts rely on its exact numbering:
    /// states are numbered in BFS order from the start state (which is
    /// 0), each state's edges visited in ascending symbol order. Two
    /// automata for the same language therefore minimize to values that
    /// compare equal (`==`).
    ///
    /// Runs in `O(m log n)` for `m` transitions and `n` states (plus
    /// the sort of each splitter's in-edges by symbol): partition
    /// refinement over the trimmed *partial* automaton, no dead state
    /// and no completion over the alphabet.
    #[must_use]
    pub fn minimize(&self) -> Dfa {
        let trimmed = self.trim();
        if trimmed.is_empty_language() {
            return Dfa::empty();
        }
        let n = trimmed.states.len();

        // Reverse edges in CSR form: the in-edges of `t`, as
        // `(symbol, source)`, are `rev[rev_start[t]..rev_start[t + 1]]`.
        let mut rev_start = vec![0usize; n + 1];
        for st in &trimmed.states {
            for &(_, t) in &st.transitions {
                rev_start[t + 1] += 1;
            }
        }
        for t in 0..n {
            rev_start[t + 1] += rev_start[t];
        }
        let mut rev: Vec<(Symbol, StateId)> = vec![(0, 0); rev_start[n]];
        let mut fill = rev_start.clone();
        for (s, st) in trimmed.states.iter().enumerate() {
            for &(a, t) in &st.transitions {
                rev[fill[t]] = (a, s);
                fill[t] += 1;
            }
        }

        // The transition function is partial, so a state with no
        // `a`-edge and a state whose `a`-edge misses the accepting block
        // are told apart only by refining against the non-accepting
        // block too: both initial blocks start on the worklist. (A
        // missing edge leads to the dead state, which is in neither and
        // whose n·|Σ| in-edges are never enumerated.)
        let mut partition = Partition::new(n, |s| trimmed.states[s].accepting);
        let mut worklist: Vec<usize> = (0..partition.block_count()).collect();
        let mut in_edges: Vec<(Symbol, StateId)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        while let Some(splitter) = worklist.pop() {
            // Snapshot the splitter's in-edges before anything is split:
            // the splitter itself may be, and refining against the set
            // it was when popped stays correct.
            in_edges.clear();
            for &t in partition.members(splitter) {
                in_edges.extend_from_slice(&rev[rev_start[t]..rev_start[t + 1]]);
            }
            in_edges.sort_unstable();
            for group in in_edges.chunk_by(|x, y| x.0 == y.0) {
                // A state has one edge per symbol, so no source repeats
                // within a group.
                for &(_, s) in group {
                    partition.mark(s, &mut touched);
                }
                for block in touched.drain(..) {
                    // The new block is the smaller half. If `block` was
                    // still waiting on the worklist both halves now
                    // are; if not, the smaller half is enough.
                    if let Some(smaller) = partition.split(block) {
                        worklist.push(smaller);
                    }
                }
            }
        }

        // Build the quotient automaton, numbering blocks in BFS order
        // from the start block. All members of a block have the same
        // edge symbols into the same blocks, so any one represents it.
        let mut block_remap = vec![usize::MAX; partition.block_count()];
        let mut out = Dfa {
            states: Vec::new(),
            start: 0,
        };
        let start_block = partition.block_of[trimmed.start];
        let mut queue = VecDeque::from([start_block]);
        block_remap[start_block] = 0;
        out.states.push(DfaState::default());
        while let Some(bi) = queue.pop_front() {
            let id = block_remap[bi];
            let repr = &trimmed.states[partition.members(bi)[0]];
            out.states[id].accepting = repr.accepting;
            let mut trans = Vec::with_capacity(repr.transitions.len());
            for &(a, t) in &repr.transitions {
                let tb = partition.block_of[t];
                if block_remap[tb] == usize::MAX {
                    block_remap[tb] = out.states.len();
                    out.states.push(DfaState::default());
                    queue.push_back(tb);
                }
                trans.push((a, block_remap[tb]));
            }
            out.states[id].transitions = trans;
        }
        out.trim()
    }

    /// Complete the automaton over `alphabet`: every state gets a
    /// transition for every symbol, adding a dead state if needed.
    #[must_use]
    fn complete(&self, alphabet: &[Symbol]) -> Dfa {
        let mut out = self.clone();
        let dead = out.states.len();
        let mut used_dead = false;
        for s in 0..dead {
            let missing: Vec<Symbol> = alphabet
                .iter()
                .copied()
                .filter(|&a| out.step(s, a).is_none())
                .collect();
            if !missing.is_empty() {
                used_dead = true;
                for a in missing {
                    out.states[s].transitions.push((a, dead));
                }
                out.states[s].transitions.sort_unstable_by_key(|&(a, _)| a);
            }
        }
        if used_dead {
            let mut dead_state = DfaState::default();
            for &a in alphabet {
                dead_state.transitions.push((a, dead));
            }
            dead_state.transitions.sort_unstable_by_key(|&(a, _)| a);
            out.states.push(dead_state);
        }
        out
    }

    /// Complement with respect to `alphabet`: accepts exactly the strings
    /// over `alphabet` this automaton rejects.
    #[must_use]
    // lint: allow(dead_pub, "de_morgan in crates/automata/tests/property.rs checks union and intersect against it")
    pub fn complement(&self, alphabet: &[Symbol]) -> Dfa {
        let mut completed = self.complete(alphabet);
        for st in &mut completed.states {
            st.accepting = !st.accepting;
        }
        completed
    }

    /// Product construction over the union of both alphabets;
    /// `accept(a, b)` decides acceptance of a product state.
    fn product<F: Fn(bool, bool) -> bool>(&self, other: &Dfa, accept: F) -> Dfa {
        let mut alphabet: BTreeSet<Symbol> = self.alphabet().into_iter().collect();
        alphabet.extend(other.alphabet());
        let alphabet: Vec<Symbol> = alphabet.into_iter().collect();
        let a = self.complete(&alphabet);
        let b = other.complete(&alphabet);

        let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut out = Dfa {
            states: Vec::new(),
            start: 0,
        };
        let start = (a.start, b.start);
        ids.insert(start, 0);
        out.states.push(DfaState {
            transitions: Vec::new(),
            accepting: accept(a.is_accepting(start.0), b.is_accepting(start.1)),
        });
        let mut queue = VecDeque::from([start]);
        while let Some((sa, sb)) = queue.pop_front() {
            let id = ids[&(sa, sb)];
            for &sym in &alphabet {
                let ta = a.step(sa, sym).expect("completed DFA"); // lint: allow(panic, "operand completed over the shared alphabet just above; step is total")
                let tb = b.step(sb, sym).expect("completed DFA"); // lint: allow(panic, "operand completed over the shared alphabet just above; step is total")
                let tid = *ids.entry((ta, tb)).or_insert_with(|| {
                    out.states.push(DfaState {
                        transitions: Vec::new(),
                        accepting: accept(a.is_accepting(ta), b.is_accepting(tb)),
                    });
                    queue.push_back((ta, tb));
                    out.states.len() - 1
                });
                out.states[id].transitions.push((sym, tid));
            }
            out.states[id].transitions.sort_unstable_by_key(|&(s, _)| s);
        }
        out.trim()
    }

    /// Language intersection.
    #[must_use]
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// Language union.
    #[must_use]
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// Language difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && !b)
    }

    /// Language equivalence: do both automata accept exactly the same set
    /// of strings?
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.product(other, |a, b| a != b).is_empty_language()
    }

    /// Left quotient `prefix⁻¹ · L(self)`: the language of strings `w`
    /// such that `p·w ∈ L(self)` for some `p ∈ L(prefix)`.
    ///
    /// This is how ReLM separates a query into its conditioning prefix
    /// and its generated suffix: the paper's queries state the *full*
    /// pattern and name a prefix sub-pattern (Figures 4 and 11); the
    /// suffix machine is the quotient.
    #[must_use]
    pub fn left_quotient(&self, prefix: &Dfa) -> Dfa {
        // Explore the product of (self, prefix); every self-state paired
        // with an accepting prefix state is a valid suffix start.
        let mut starts: BTreeSet<StateId> = BTreeSet::new();
        let mut seen: HashSet<(StateId, StateId)> = HashSet::new();
        let mut queue = VecDeque::from([(self.start, prefix.start)]);
        seen.insert((self.start, prefix.start));
        while let Some((sf, sp)) = queue.pop_front() {
            if prefix.is_accepting(sp) {
                starts.insert(sf);
            }
            for &(a, tf) in &self.states[sf].transitions {
                if let Some(tp) = prefix.step(sp, a) {
                    if seen.insert((tf, tp)) {
                        queue.push_back((tf, tp));
                    }
                }
            }
        }
        if starts.is_empty() {
            return Dfa::empty();
        }
        // The suffix machine: subsets of this automaton's states from
        // the start set, with no ε-moves to close over.
        subsets(
            starts.into_iter().collect(),
            |s| &self.states[s].transitions,
            |s| self.states[s].accepting,
            |_| {},
        )
        .trim()
    }

    /// [`Dfa::left_quotient`]: compile runs on the calling thread, and
    /// `par` is ignored.
    #[must_use]
    pub fn left_quotient_with(&self, prefix: &Dfa, _par: Parallelism) -> Dfa {
        self.left_quotient(prefix)
    }

    /// Enumerate accepted strings in shortlex (length, then symbol) order,
    /// up to `max_len` symbols and at most `max_count` results.
    ///
    /// This is the brute-force oracle the paper contrasts against: viable
    /// only for small languages, used here for tests and for the
    /// enumeration-based canonical-encoding path on tiny query sets.
    ///
    /// Work is bounded: exploration stops after
    /// `max_count · (max_len + 1) + 1024` partial prefixes even when fewer
    /// than `max_count` strings have been found (possible for very wide
    /// languages). Call [`Dfa::finite_size`] first when an exact
    /// cardinality decision matters.
    pub fn enumerate(&self, max_len: usize, max_count: usize) -> Vec<Vec<Symbol>> {
        let mut results = Vec::new();
        let mut budget = max_count.saturating_mul(max_len + 1).saturating_add(1024);
        let mut layer: Vec<(StateId, Vec<Symbol>)> = vec![(self.start, Vec::new())];
        for _ in 0..=max_len {
            let mut next = Vec::new();
            for (state, prefix) in &layer {
                if self.is_accepting(*state) {
                    results.push(prefix.clone());
                    if results.len() >= max_count {
                        return results;
                    }
                }
            }
            for (state, prefix) in layer {
                for &(a, t) in &self.states[state].transitions {
                    if budget == 0 {
                        return results;
                    }
                    budget -= 1;
                    let mut p = prefix.clone();
                    p.push(a);
                    next.push((t, p));
                }
            }
            if next.is_empty() {
                break;
            }
            layer = next;
        }
        results
    }

    /// The length of the longest string and the number of strings of
    /// a finite language, or `None` when the language is infinite. The
    /// empty language is `Some((0, 0))`. The count saturates at
    /// `u128::MAX`.
    ///
    /// One pass over the live states (see [`Dfa::trim`]): a depth-first
    /// search from the start state that fails on a cycle and, as each
    /// state finishes, sums the counts and takes the longest of its
    /// successors, which have all finished by then. `O(n + m)` for `n`
    /// states and `m` transitions, with a handful of arrays and no
    /// allocation per state — the cheap pre-check that makes
    /// enumeration-based constructions safe.
    pub fn finite_size(&self) -> Option<(usize, u128)> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let live = self.live_states();
        if !live[self.start] {
            return Some((0, 0));
        }
        let mut mark = vec![WHITE; self.states.len()];
        let mut size = vec![(0usize, 0u128); self.states.len()];
        // (state, index of its next edge to follow)
        let mut stack = vec![(self.start, 0usize)];
        mark[self.start] = GREY;
        while let Some(&mut (s, ref mut edge)) = stack.last_mut() {
            let transitions = &self.states[s].transitions;
            if let Some(&(_, t)) = transitions.get(*edge) {
                *edge += 1;
                if !live[t] {
                    continue;
                }
                match mark[t] {
                    GREY => return None,
                    WHITE => {
                        mark[t] = GREY;
                        stack.push((t, 0));
                    }
                    _ => {}
                }
                continue;
            }
            // Every live successor has finished: post-order.
            let mut longest = 0;
            let mut count = u128::from(self.states[s].accepting);
            for &(_, t) in transitions {
                if live[t] {
                    let (l, c) = size[t];
                    longest = longest.max(l + 1);
                    count = count.saturating_add(c);
                }
            }
            size[s] = (longest, count);
            mark[s] = BLACK;
            stack.pop();
        }
        Some(size[self.start])
    }

    /// Build a DFA directly from parts. Used by graph-rewriting passes
    /// that produce deterministic output (e.g. the canonical tokenizer
    /// rewrite).
    ///
    /// # Panics
    ///
    /// Panics if `start` or any transition target is out of bounds, or if
    /// a state has two transitions on the same symbol.
    pub fn from_parts(
        state_count: usize,
        start: StateId,
        accepting: &[StateId],
        transitions: &[(StateId, Symbol, StateId)],
    ) -> Dfa {
        // lint: allow(panic, "documented panicking constructor; try_from_parts is the fallible form")
        Self::try_from_parts(state_count, start, accepting, transitions).expect("invalid DFA parts")
    }

    /// Fallible [`Dfa::from_parts`]: returns `None` instead of
    /// panicking when `start` or any transition endpoint is out of
    /// bounds, or a state has two transitions on the same symbol. This
    /// is the constructor for data read from outside the process (the
    /// warm-artifact store), where malformed input must surface as an
    /// error rather than abort.
    ///
    /// Transitions are stored per state in ascending symbol order —
    /// the same order [`Dfa::transitions`] iterates and every
    /// in-process construction produces — so a DFA rebuilt from the
    /// parts of another compares equal (`==`) to it.
    pub fn try_from_parts(
        state_count: usize,
        start: StateId,
        accepting: &[StateId],
        transitions: &[(StateId, Symbol, StateId)],
    ) -> Option<Dfa> {
        if start >= state_count {
            return None;
        }
        let mut states = vec![DfaState::default(); state_count];
        for &s in accepting {
            if s >= state_count {
                return None;
            }
            states[s].accepting = true;
        }
        for &(f, a, t) in transitions {
            if f >= state_count || t >= state_count {
                return None;
            }
            states[f].transitions.push((a, t));
        }
        for st in &mut states {
            st.transitions.sort_unstable_by_key(|&(a, _)| a);
            if st.transitions.windows(2).any(|w| w[0].0 == w[1].0) {
                return None;
            }
        }
        Some(Dfa { states, start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ascii_alphabet, str_symbols, Nfa};

    fn s(text: &str) -> Vec<Symbol> {
        str_symbols(text)
    }

    fn dfa(pattern: Nfa) -> Dfa {
        pattern.determinize()
    }

    #[test]
    fn determinize_preserves_membership() {
        let nfa =
            Nfa::literal(s("The ")).concat(Nfa::literal(s("cat")).union(Nfa::literal(s("dog"))));
        let d = nfa.determinize();
        assert!(d.contains(s("The cat")));
        assert!(d.contains(s("The dog")));
        assert!(!d.contains(s("The cow")));
        assert!(!d.contains(s("The ca")));
    }

    #[test]
    fn determinize_star_language() {
        let d = dfa(Nfa::literal(s("ab")).star());
        assert!(d.contains(s("")));
        assert!(d.contains(s("ababab")));
        assert!(!d.contains(s("aab")));
    }

    #[test]
    fn minimize_merges_equivalent_states() {
        // (a|b)(a|b) has a 3-state minimal DFA (+ nothing else).
        let ab = || Nfa::symbol_class([u32::from(b'a'), u32::from(b'b')]);
        let d = dfa(ab().concat(ab()));
        let m = d.minimize();
        assert_eq!(m.state_count(), 3);
        assert!(m.contains(s("ab")));
        assert!(m.contains(s("ba")));
        assert!(!m.contains(s("a")));
        assert!(!m.contains(s("aba")));
    }

    #[test]
    fn minimize_numbers_states_in_bfs_symbol_order() {
        // (ab|cb)d? — the `a` and `c` branches merge, and `d` is a
        // branch out of an accepting state. BFS from the start, edges
        // in symbol order: 0 -a,c-> 1 -b-> 2 (accepting) -d-> 3
        // (accepting).
        let b = || Nfa::literal(s("b"));
        let pattern = Nfa::literal(s("a"))
            .concat(b())
            .union(Nfa::literal(s("c")).concat(b()))
            .concat(Nfa::literal(s("d")).optional());
        let m = dfa(pattern).minimize();
        let edges: Vec<(StateId, Symbol, StateId)> = (0..m.state_count())
            .flat_map(|q| m.transitions(q).map(move |(a, t)| (q, a, t)))
            .collect();
        let [a, b, c, d] = [b'a', b'b', b'c', b'd'].map(u32::from);
        assert_eq!(m.start(), 0);
        assert_eq!(edges, vec![(0, a, 1), (0, c, 1), (1, b, 2), (2, d, 3)]);
        let accepting: Vec<StateId> = (0..m.state_count())
            .filter(|&q| m.is_accepting(q))
            .collect();
        assert_eq!(accepting, vec![2, 3]);
    }

    #[test]
    fn minimize_preserves_language() {
        let patterns: Vec<Nfa> = vec![
            Nfa::literal(s("cat")).union(Nfa::literal(s("car"))),
            Nfa::literal(s("ab")).star().concat(Nfa::literal(s("c"))),
            Nfa::symbol_class((b'0'..=b'9').map(u32::from)).repeat(2, Some(4)),
        ];
        for p in patterns {
            let d = p.determinize();
            let m = d.minimize();
            assert!(d.equivalent(&m));
        }
    }

    #[test]
    fn minimize_empty_language() {
        let d = Dfa::empty().minimize();
        assert!(d.is_empty_language());
    }

    #[test]
    fn intersect_dates() {
        // All strings over {cat,dog} of length 3 ∩ {dog, cow} = {dog}.
        let any3 =
            dfa(Nfa::symbol_class(s("catdogw").into_iter().collect::<Vec<_>>()).repeat(3, Some(3)));
        let choices = dfa(Nfa::literal(s("dog")).union(Nfa::literal(s("cow"))));
        let inter = any3.intersect(&choices);
        assert!(inter.contains(s("dog")));
        assert!(inter.contains(s("cow")));
        assert!(!inter.contains(s("cat"))); // in any3, not among the choices
        let only = dfa(Nfa::literal(s("dog")));
        let inter2 = inter.intersect(&only);
        assert!(inter2.contains(s("dog")));
        assert!(!inter2.contains(s("cow")));
    }

    #[test]
    fn union_combines() {
        let u = dfa(Nfa::literal(s("x"))).union(&dfa(Nfa::literal(s("y"))));
        assert!(u.contains(s("x")));
        assert!(u.contains(s("y")));
        assert!(!u.contains(s("z")));
    }

    #[test]
    fn difference_removes_stopwords() {
        // Mirrors the no-stop filter in §4.4: words minus {the, a}.
        let words = dfa(Nfa::literal(s("the"))
            .union(Nfa::literal(s("a")))
            .union(Nfa::literal(s("menu"))));
        let stop = dfa(Nfa::literal(s("the")).union(Nfa::literal(s("a"))));
        let filtered = words.difference(&stop);
        assert!(filtered.contains(s("menu")));
        assert!(!filtered.contains(s("the")));
        assert!(!filtered.contains(s("a")));
    }

    #[test]
    fn complement_flips_membership() {
        let d = dfa(Nfa::literal(s("ab")));
        let c = d.complement(&ascii_alphabet());
        assert!(!c.contains(s("ab")));
        assert!(c.contains(s("a")));
        assert!(c.contains(s("")));
        assert!(c.contains(s("abc")));
    }

    #[test]
    fn equivalence_detects_same_language() {
        let a = dfa(Nfa::literal(s("ab")).star());
        let b = dfa(Nfa::epsilon().union(Nfa::literal(s("ab")).plus()));
        assert!(a.equivalent(&b));
        let c = dfa(Nfa::literal(s("ab")).plus());
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn enumerate_shortlex_order() {
        let d = dfa(Nfa::literal(s("a"))
            .union(Nfa::literal(s("bb")))
            .union(Nfa::literal(s("c"))));
        let all = d.enumerate(10, 100);
        assert_eq!(all, vec![s("a"), s("c"), s("bb")]);
    }

    #[test]
    fn enumerate_respects_limits() {
        let d = dfa(Nfa::symbol_class([u32::from(b'a'), u32::from(b'b')]).star());
        let some = d.enumerate(3, 5);
        assert_eq!(some.len(), 5);
        let shallow = d.enumerate(1, 1000);
        // "", "a", "b"
        assert_eq!(shallow.len(), 3);
    }

    #[test]
    fn finite_vs_infinite_language() {
        assert_eq!(dfa(Nfa::literal(s("abc"))).finite_size(), Some((3, 1)));
        assert_eq!(dfa(Nfa::literal(s("ab")).star()).finite_size(), None);
        assert_eq!(Dfa::empty().finite_size(), Some((0, 0)));
        let words = Nfa::literal(s("a"))
            .union(Nfa::literal(s("bcd")))
            .union(Nfa::epsilon());
        assert_eq!(dfa(words).finite_size(), Some((3, 3)));
        // A cycle among dead states does not count.
        let dead_loop = Dfa::from_parts(3, 0, &[1], &[(0, 0, 1), (0, 1, 2), (2, 0, 2)]);
        assert_eq!(dead_loop.finite_size(), Some((1, 1)));
    }

    #[test]
    fn trim_removes_dead_states() {
        // `ab` then a dangling non-accepting branch.
        let mut nfa = Nfa::literal(s("ab"));
        let dead = nfa.add_state();
        nfa.add_transition(nfa.start(), u32::from(b'z'), dead);
        let d = nfa.determinize();
        let t = d.trim();
        assert!(t.contains(s("ab")));
        assert!(!t.contains(s("z")));
        assert!(t.state_count() < d.state_count() || d.step(d.start(), u32::from(b'z')).is_none());
    }

    #[test]
    fn from_parts_builds_dfa() {
        // a(b|c)
        let b = u32::from(b'b');
        let c = u32::from(b'c');
        let a = u32::from(b'a');
        let d = Dfa::from_parts(3, 0, &[2], &[(0, a, 1), (1, b, 2), (1, c, 2)]);
        assert!(d.contains(s("ab")));
        assert!(d.contains(s("ac")));
        assert!(!d.contains(s("a")));
    }

    #[test]
    #[should_panic(expected = "invalid DFA parts")]
    fn from_parts_rejects_nondeterminism() {
        let _ = Dfa::from_parts(2, 0, &[1], &[(0, 5, 1), (0, 5, 0)]);
    }

    #[test]
    fn sharded_determinize_is_structurally_identical() {
        use crate::Parallelism;
        // Wide alternation: many subset states per BFS level.
        let words: Vec<Nfa> = (0..40)
            .map(|i| {
                Nfa::literal(s(&format!(
                    "word{i}tail{}",
                    "x".repeat(1 + (i % 5) as usize)
                )))
            })
            .collect();
        let nfa = words.into_iter().reduce(Nfa::union).unwrap();
        let serial = nfa.determinize();
        for threads in [2usize, 3, 8] {
            let sharded = nfa.determinize_with(Parallelism::sharded(threads));
            assert_eq!(serial, sharded, "threads={threads}");
        }
        assert_eq!(serial, nfa.determinize_with(Parallelism::Serial));
    }

    #[test]
    fn run_returns_final_state() {
        let d = dfa(Nfa::literal(s("hi")));
        let end = d.run(s("hi")).unwrap();
        assert!(d.is_accepting(end));
        assert!(d.run(s("hx")).is_none());
    }
}

#[cfg(test)]
mod quotient_tests {
    use super::*;
    use crate::{str_symbols, Nfa};

    fn dfa(pattern: &str) -> Dfa {
        // tiny regex-free builder: literal | union of literals via '|'
        pattern
            .split('|')
            .map(|p| Nfa::literal(str_symbols(p)))
            .reduce(Nfa::union)
            .unwrap()
            .determinize()
            .minimize()
    }

    #[test]
    fn quotient_of_literal_prefix() {
        let full = dfa("the cat|the dog");
        let prefix = dfa("the ");
        let q = full.left_quotient(&prefix);
        assert!(q.contains(str_symbols("cat")));
        assert!(q.contains(str_symbols("dog")));
        assert!(!q.contains(str_symbols("the cat")));
    }

    #[test]
    fn quotient_with_alternative_prefixes() {
        let full = dfa("ax|by");
        let prefix = dfa("a|b");
        let q = full.left_quotient(&prefix);
        // After 'a' the suffix is x; after 'b' it's y; quotient is x|y.
        assert!(q.contains(str_symbols("x")));
        assert!(q.contains(str_symbols("y")));
        assert!(!q.contains(str_symbols("ax")));
    }

    #[test]
    fn quotient_by_non_prefix_is_empty() {
        let full = dfa("hello");
        let prefix = dfa("world");
        assert!(full.left_quotient(&prefix).is_empty_language());
    }

    #[test]
    fn quotient_by_epsilon_is_identity() {
        let full = dfa("abc|abd");
        let eps = Nfa::epsilon().determinize();
        let q = full.left_quotient(&eps);
        assert!(q.equivalent(&full));
    }

    #[test]
    fn quotient_by_full_language_accepts_epsilon() {
        let full = dfa("abc");
        let q = full.left_quotient(&full);
        assert!(q.contains(str_symbols("")));
        assert!(!q.contains(str_symbols("abc")));
    }
}
