//! Combinatorial walk counting for unbiased sampling (§3.3 of the paper).
//!
//! Uniformly sampling *edges* of an automaton does not uniformly sample
//! *strings*: in the language `{a, b, bb, bbb}` the first transition splits
//! 50/50 between `a` and `b` even though `b` leads to three strings. The
//! paper's fix is to weigh each edge by the number of accepting walks that
//! pass through it. [`WalkTable`] precomputes those counts with the
//! adjacency-power recurrence `walks(q₀,n) = s(q₀)ᵀ·Aⁿ·f(F)`, evaluated as
//! a dynamic program (one matrix-vector product per length) rather than by
//! materializing `Aⁿ`.
//!
//! Cycles make walk counts unbounded, so — like the paper, which notes
//! that "LLMs have finite state" — counting is performed up to a maximum
//! walk length (the model's max sequence length).

use crate::{Dfa, StateId, Symbol};

/// Precomputed accepting-walk counts for a [`Dfa`], up to a maximum length.
///
/// `count(state, budget)` is the number of accepting walks of length
/// `≤ budget` starting at `state`. Counts are stored as `f64`: they can
/// exceed `u128` for wide automata with long budgets, and only the
/// *ratios* matter for sampling. An exact `u128` path
/// ([`WalkTable::count_exact`]) is provided for testing on small automata.
///
/// # Example
///
/// ```
/// use relm_automata::{Nfa, WalkTable, str_symbols};
///
/// // {a, b, bb, bbb}
/// let lang = Nfa::literal(str_symbols("a"))
///     .union(Nfa::literal(str_symbols("b")))
///     .union(Nfa::literal(str_symbols("bb")))
///     .union(Nfa::literal(str_symbols("bbb")))
///     .determinize()
///     .minimize();
/// let table = WalkTable::new(&lang, 8);
/// assert_eq!(table.count(lang.start(), 8) as u64, 4);
/// ```
#[derive(Debug, Clone)]
pub struct WalkTable {
    /// `counts[budget][state]` = number of accepting walks of length
    /// exactly `budget` starting at `state`.
    exact_by_len: Vec<Vec<f64>>,
    /// `cumulative[budget][state]` = number of accepting walks of length
    /// `≤ budget` starting at `state`.
    cumulative: Vec<Vec<f64>>,
    max_len: usize,
}

impl WalkTable {
    /// Build the table for `dfa` with walk lengths up to `max_len`.
    ///
    /// Runs in `O(max_len · E)` for `E` transitions.
    pub fn new(dfa: &Dfa, max_len: usize) -> Self {
        let n = dfa.state_count();
        let mut exact_by_len: Vec<Vec<f64>> = Vec::with_capacity(max_len + 1);
        // Length 0: a walk of length 0 is accepting iff the state accepts.
        let base: Vec<f64> = (0..n)
            .map(|s| if dfa.is_accepting(s) { 1.0 } else { 0.0 })
            .collect();
        exact_by_len.push(base);
        for len in 1..=max_len {
            let prev = &exact_by_len[len - 1];
            let mut cur = vec![0.0f64; n];
            for (s, slot) in cur.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (_, t) in dfa.transitions(s) {
                    acc += prev[t];
                }
                *slot = acc;
            }
            exact_by_len.push(cur);
        }
        Self::from_exact_rows_trusted(exact_by_len, max_len)
    }

    /// The per-length exact walk-count rows: `exact_rows()[len][state]`
    /// is the number of accepting walks of length exactly `len` from
    /// `state`. This is the minimal data from which
    /// [`WalkTable::from_exact_rows`] rebuilds the full table
    /// bit-identically — the warm-artifact store serializes only these.
    pub fn exact_rows(&self) -> &[Vec<f64>] {
        &self.exact_by_len
    }

    /// Rebuild a table from its exact-length rows (as produced by
    /// [`WalkTable::exact_rows`]). The cumulative rows are recomputed
    /// as running sums in the same slot order as [`WalkTable::new`],
    /// so a round trip through `exact_rows` is bit-identical for every
    /// `f64` the table can return.
    ///
    /// Returns `None` when the rows are structurally invalid: there
    /// must be exactly `max_len + 1` rows and every row must have the
    /// same length (one slot per state).
    pub fn from_exact_rows(exact_by_len: Vec<Vec<f64>>, max_len: usize) -> Option<Self> {
        if exact_by_len.len() != max_len.checked_add(1)? {
            return None;
        }
        let n = exact_by_len[0].len();
        if exact_by_len.iter().any(|row| row.len() != n) {
            return None;
        }
        Some(Self::from_exact_rows_trusted(exact_by_len, max_len))
    }

    /// Finish a table from its exact-length rows: the cumulative rows
    /// are running sums, identical whether the exact rows were just
    /// built or read back.
    fn from_exact_rows_trusted(exact_by_len: Vec<Vec<f64>>, max_len: usize) -> Self {
        let n = exact_by_len.first().map_or(0, Vec::len);
        let mut cumulative: Vec<Vec<f64>> = Vec::with_capacity(max_len + 1);
        let mut running = vec![0.0f64; n];
        for row in &exact_by_len {
            for (r, v) in running.iter_mut().zip(row) {
                *r += v;
            }
            cumulative.push(running.clone());
        }
        WalkTable {
            exact_by_len,
            cumulative,
            max_len,
        }
    }

    /// Estimated resident heap bytes of the count tables — the dominant
    /// cost of a memoized plan once a table is built, charged by the
    /// session plan memo's byte accounting.
    pub fn estimated_bytes(&self) -> usize {
        let rows = self.exact_by_len.len() + self.cumulative.len();
        let cells: usize = self
            .exact_by_len
            .iter()
            .chain(self.cumulative.iter())
            .map(Vec::len)
            .sum();
        std::mem::size_of::<Self>()
            + rows * std::mem::size_of::<Vec<f64>>()
            + cells * std::mem::size_of::<f64>()
    }

    /// Maximum walk length covered by this table.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of accepting walks of length `≤ budget` starting at `state`.
    ///
    /// # Panics
    ///
    /// Panics if `budget > max_len` or `state` is out of bounds.
    pub fn count(&self, state: StateId, budget: usize) -> f64 {
        self.cumulative[budget][state]
    }

    /// The sampling weight of taking `edge_target` from `state` with
    /// `budget` symbols remaining: the count of accepting walks through
    /// that edge, i.e. `count(target, budget - 1)`.
    ///
    /// The weight of *stopping* at an accepting `state` is `1.0`
    /// (the single zero-length walk); use [`WalkTable::stop_weight`].
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn edge_weight(&self, edge_target: StateId, budget: usize) -> f64 {
        assert!(budget > 0, "no budget left for an edge");
        self.cumulative[budget - 1][edge_target]
    }

    /// Weight of terminating the walk at `state` (1 if accepting, else 0).
    // lint: allow(dead_pub, "the draw oracle's reference rule in crates/automata/tests/property.rs (draw_matches_the_two_vector_rule) weighs stops with it")
    pub fn stop_weight(&self, dfa: &Dfa, state: StateId) -> f64 {
        if dfa.is_accepting(state) {
            1.0
        } else {
            0.0
        }
    }

    /// Exact `u128` walk count for small automata; saturates at
    /// `u128::MAX`. Used to validate the floating-point table in tests.
    // lint: allow(dead_pub, "walk_counts_monotone and the finite-size oracle in crates/automata/tests/property.rs count with it")
    pub fn count_exact(dfa: &Dfa, max_len: usize) -> u128 {
        let n = dfa.state_count();
        let mut prev: Vec<u128> = (0..n).map(|s| u128::from(dfa.is_accepting(s))).collect();
        let mut total: u128 = prev[dfa.start()];
        for _ in 1..=max_len {
            let mut cur = vec![0u128; n];
            for (s, slot) in cur.iter_mut().enumerate() {
                let mut acc: u128 = 0;
                for (_, t) in dfa.transitions(s) {
                    acc = acc.saturating_add(prev[t]);
                }
                *slot = acc;
            }
            total = total.saturating_add(cur[dfa.start()]);
            prev = cur;
        }
        total
    }

    /// Draw the move at `state` with `budget` symbols remaining, given a
    /// uniform `u ∈ [0, 1)`: each choice — the outgoing edges in
    /// transition order, then stopping if `state` accepts — weighted by
    /// the accepting walks through it. Returns `None` when no accepting
    /// walk remains (all weights zero).
    ///
    /// Allocation-free: one pass sums the weights, a second adds up each
    /// weight divided by that total and takes the first choice whose
    /// running sum exceeds `u` (the last choice if rounding leaves every
    /// sum at or below `u`).
    pub fn draw(&self, dfa: &Dfa, state: StateId, budget: usize, u: f64) -> Option<WalkChoice> {
        let stop = self.stop_weight(dfa, state);
        let choices = || {
            (budget > 0)
                .then(|| dfa.transitions(state))
                .into_iter()
                .flatten()
                .map(|(symbol, target)| {
                    (
                        WalkChoice::Step { symbol, target },
                        self.edge_weight(target, budget),
                    )
                })
                .chain(std::iter::once((WalkChoice::Stop, stop)))
                .filter(|&(_, w)| w > 0.0)
        };
        let total: f64 = choices().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        let mut acc = 0.0;
        let mut last = None;
        for (choice, w) in choices() {
            acc += w / total;
            if u < acc {
                return Some(choice);
            }
            last = Some(choice);
        }
        last
    }

    /// Normalized probabilities over the choices available at `state`
    /// with `budget` remaining symbols: one entry per outgoing edge in
    /// transition order, plus (if accepting) a final entry for stopping.
    /// The two-vector form [`WalkTable::draw`] replaced, kept to check
    /// the table's weights.
    ///
    /// Returns `None` when no accepting walk remains (all weights zero).
    #[cfg(test)]
    fn choice_distribution(
        &self,
        dfa: &Dfa,
        state: StateId,
        budget: usize,
    ) -> Option<ChoiceDistribution> {
        let mut weights = Vec::new();
        let mut choices = Vec::new();
        if budget > 0 {
            for (sym, t) in dfa.transitions(state) {
                let w = self.edge_weight(t, budget);
                if w > 0.0 {
                    weights.push(w);
                    choices.push(WalkChoice::Step {
                        symbol: sym,
                        target: t,
                    });
                }
            }
        }
        let stop = self.stop_weight(dfa, state);
        if stop > 0.0 {
            weights.push(stop);
            choices.push(WalkChoice::Stop);
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        for w in &mut weights {
            *w /= total;
        }
        Some(ChoiceDistribution { choices, weights })
    }
}

/// One available move during a walk: advance along an edge or stop at an
/// accepting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkChoice {
    /// Take the transition labelled `symbol` to `target`.
    Step {
        /// The transition label.
        symbol: Symbol,
        /// The destination state.
        target: StateId,
    },
    /// Terminate the walk here (the state is accepting).
    Stop,
}

/// A normalized distribution over the [`WalkChoice`]s available at a state.
#[cfg(test)]
#[derive(Debug, Clone)]
struct ChoiceDistribution {
    choices: Vec<WalkChoice>,
    weights: Vec<f64>,
}

#[cfg(test)]
impl ChoiceDistribution {
    /// The available choices.
    fn choices(&self) -> &[WalkChoice] {
        &self.choices
    }

    /// The normalized probabilities, parallel to [`Self::choices`].
    fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{str_symbols, Nfa};

    fn abbb_dfa() -> Dfa {
        Nfa::literal(str_symbols("a"))
            .union(Nfa::literal(str_symbols("b")))
            .union(Nfa::literal(str_symbols("bb")))
            .union(Nfa::literal(str_symbols("bbb")))
            .determinize()
            .minimize()
    }

    #[test]
    fn counts_match_enumeration() {
        let dfa = abbb_dfa();
        let table = WalkTable::new(&dfa, 10);
        assert_eq!(table.count(dfa.start(), 10) as u64, 4);
        assert_eq!(table.count(dfa.start(), 1) as u64, 2); // a, b
        assert_eq!(table.count(dfa.start(), 0) as u64, 0);
    }

    #[test]
    fn exact_and_float_agree() {
        let dfa = Nfa::symbol_class([1, 2, 3])
            .repeat(0, Some(5))
            .determinize();
        let table = WalkTable::new(&dfa, 5);
        let exact = WalkTable::count_exact(&dfa, 5);
        // 3^0 + 3^1 + ... + 3^5 = 364
        assert_eq!(exact, 364);
        assert_eq!(table.count(dfa.start(), 5) as u128, exact);
    }

    #[test]
    fn paper_example_first_transition_weights() {
        // Language {a, b, bb, bbb}: the `b` edge should carry weight 3/4.
        let dfa = abbb_dfa();
        let table = WalkTable::new(&dfa, 3);
        let dist = table
            .choice_distribution(&dfa, dfa.start(), 3)
            .expect("non-empty language");
        // Two edges (a, b), no stop at start.
        assert_eq!(dist.choices().len(), 2);
        let mut by_symbol: Vec<(Symbol, f64)> = dist
            .choices()
            .iter()
            .zip(dist.weights())
            .map(|(c, &w)| match c {
                WalkChoice::Step { symbol, .. } => (*symbol, w),
                WalkChoice::Stop => panic!("start must not accept"),
            })
            .collect();
        by_symbol.sort_by_key(|&(s, _)| s);
        let (a_sym, a_w) = by_symbol[0];
        let (b_sym, b_w) = by_symbol[1];
        assert_eq!(a_sym, u32::from(b'a'));
        assert_eq!(b_sym, u32::from(b'b'));
        assert!((a_w - 0.25).abs() < 1e-12, "a weight {a_w}");
        assert!((b_w - 0.75).abs() < 1e-12, "b weight {b_w}");
    }

    #[test]
    fn stop_vs_continue_weighting() {
        // In {b, bb, bbb}, after reading one `b` the state accepts (1 walk)
        // and continues to {b, bb} (2 walks): stop weight 1/3.
        let dfa = Nfa::literal(str_symbols("b"))
            .union(Nfa::literal(str_symbols("bb")))
            .union(Nfa::literal(str_symbols("bbb")))
            .determinize()
            .minimize();
        let table = WalkTable::new(&dfa, 3);
        let after_b = dfa.step(dfa.start(), u32::from(b'b')).unwrap();
        let dist = table.choice_distribution(&dfa, after_b, 2).unwrap();
        let stop_w: f64 = dist
            .choices()
            .iter()
            .zip(dist.weights())
            .filter(|(c, _)| matches!(c, WalkChoice::Stop))
            .map(|(_, &w)| w)
            .sum();
        assert!((stop_w - 1.0 / 3.0).abs() < 1e-12, "stop weight {stop_w}");
    }

    #[test]
    fn empty_language_has_no_distribution() {
        let dfa = Dfa::empty();
        let table = WalkTable::new(&dfa, 4);
        assert!(table.choice_distribution(&dfa, dfa.start(), 4).is_none());
        assert_eq!(table.draw(&dfa, dfa.start(), 4, 0.0), None);
    }

    #[test]
    fn budget_zero_only_stops() {
        let dfa = Nfa::epsilon().determinize();
        let table = WalkTable::new(&dfa, 4);
        let dist = table.choice_distribution(&dfa, dfa.start(), 0).unwrap();
        assert_eq!(dist.choices(), &[WalkChoice::Stop]);
        assert_eq!(
            table.draw(&dfa, dfa.start(), 0, 0.5),
            Some(WalkChoice::Stop)
        );
    }

    #[test]
    fn sample_is_deterministic_in_u() {
        let dfa = abbb_dfa();
        let table = WalkTable::new(&dfa, 3);
        let dist = table.choice_distribution(&dfa, dfa.start(), 3).unwrap();
        // u = 0.0 lands in the first choice; u just under 1.0 in the last.
        let first = table.draw(&dfa, dfa.start(), 3, 0.0);
        let last = table.draw(&dfa, dfa.start(), 3, 0.999_999);
        assert_eq!(first, Some(dist.choices()[0]));
        assert_eq!(last, dist.choices().last().copied());
    }

    #[test]
    fn cyclic_language_counts_bounded_by_length() {
        // (ab)* — infinitely many strings, but only ⌊L/2⌋+1 up to length L.
        let dfa = Nfa::literal(str_symbols("ab"))
            .star()
            .determinize()
            .minimize();
        let table = WalkTable::new(&dfa, 10);
        assert_eq!(table.count(dfa.start(), 10) as u64, 6); // "", ab, abab, ... x5
    }
}
