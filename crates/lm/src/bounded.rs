//! The clock ring: the one bounded table behind both memos a session
//! reuses across queries.
//!
//! [`Clock`] holds the rows of [`crate::SharedScoringCache`] (keyed by
//! context) and the compiled plans of a `relm_core` session's plan memo
//! (keyed by query). Each owner keeps its own policy — what an entry
//! costs, when room must be made (a byte budget, an entry cap), what is
//! admitted and what a value means — and the ring does the bookkeeping
//! once:
//!
//! * **Cost**: every entry is charged the cost its owner passes in, and
//!   the ring keeps the sum ([`Clock::bytes`]). An owner whose values
//!   grow after insert charges them again ([`Clock::set_cost`]).
//! * **Second chance**: entries live in slots arranged in a ring, and a
//!   lookup sets the entry's referenced bit. [`Clock::evict_one`] sweeps
//!   a hand around the ring, clearing referenced bits, and removes and
//!   returns the first unreferenced entry. This approximates LRU at O(1)
//!   amortized cost with no linked-list bookkeeping.
//! * **Healing**: a mapping that points at an empty slot is the partial
//!   state a thread that panicked mid-update leaves behind once its
//!   owner's poisoned lock is recovered. Contact heals it and reports a
//!   miss, one recomputation counted in [`Clock::recoveries`], instead
//!   of a panic that, behind a shared lock, would kill every later query
//!   of a long-lived server.
//!
//! Not internally synchronized: each owner keeps its ring behind its own
//! `Mutex`.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// One resident entry and its clock metadata.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    cost: usize,
    referenced: bool,
}

/// A second-chance (clock) ring of `K -> V` entries, each charged a cost
/// by its owner. See the module docs.
#[derive(Debug)]
pub struct Clock<K, V> {
    /// `key -> slot index`; each key is held here and in its slot.
    map: HashMap<K, usize>,
    /// The ring. `None` slots are free.
    slots: Vec<Option<Slot<K, V>>>,
    /// Indices of free slots, reused before the ring grows.
    free: Vec<usize>,
    /// The next slot the sweep examines.
    hand: usize,
    /// Sum of the resident entries' costs.
    bytes: usize,
    /// Entries removed, swept out or cleared over the ring's lifetime.
    evictions: u64,
    /// Dangling mappings healed over the ring's lifetime.
    recoveries: u64,
}

impl<K, V> Default for Clock<K, V> {
    fn default() -> Self {
        Clock {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            bytes: 0,
            evictions: 0,
            recoveries: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Clock<K, V> {
    /// Keys the ring maps: its resident entries, plus any dangling
    /// mapping no contact has healed yet.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the ring maps no key.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the costs charged for the resident entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries removed, swept out or cleared over the ring's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dangling mappings healed over the ring's lifetime.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Whether `key` is mapped, a dangling mapping included. Touches
    /// nothing.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// The value resident under `key`. Touches neither its referenced
    /// bit nor a dangling mapping.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        self.slots.get(slot)?.as_ref().map(|entry| &entry.value)
    }

    /// The value resident under `key`, setting its referenced bit: the
    /// hit that earns it a second chance. A dangling mapping is healed
    /// and reported as a miss.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        if !self.is_resident(slot) {
            self.heal(key, slot);
            return None;
        }
        let entry = self.slots[slot].as_mut()?;
        entry.referenced = true;
        Some(&entry.value)
    }

    /// Charge the entry resident under `key` `cost` from now on, for an
    /// owner whose values grow after insert.
    pub fn set_cost<Q>(&mut self, key: &Q, cost: usize)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&slot) = self.map.get(key) else {
            return;
        };
        if let Some(entry) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            self.bytes = self.bytes - entry.cost + cost;
            entry.cost = cost;
        }
    }

    /// Hold `value` under `key` at `cost`, in a free slot when there is
    /// one. The owner makes room first ([`Self::evict_one`]). Whatever
    /// `key` held before is removed.
    pub fn insert(&mut self, key: K, value: V, cost: usize) {
        self.remove(&key);
        let entry = Slot {
            key: key.clone(),
            value,
            cost,
            referenced: false,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(entry);
                slot
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.bytes += cost;
    }

    /// Remove the entry under `key`, counted as an eviction, and return
    /// its value. A dangling mapping is healed.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        if !self.is_resident(slot) {
            self.heal(key, slot);
            return None;
        }
        self.remove_slot(slot).map(|(_, value)| value)
    }

    /// Sweep the hand to the first entry whose referenced bit is clear,
    /// clearing the bits it passes (so a referenced entry survives one
    /// revolution), and remove that entry, counted as an eviction.
    /// Returns the victim; `None` when nothing is resident.
    pub fn evict_one(&mut self) -> Option<(K, V)> {
        if self.map.is_empty() {
            return None;
        }
        // Two revolutions suffice: the first clears every bit.
        for _ in 0..self.slots.len() * 2 {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let Some(entry) = self.slots[slot].as_mut() else {
                continue;
            };
            if !entry.referenced {
                return self.remove_slot(slot);
            }
            entry.referenced = false;
        }
        None
    }

    /// Drop every entry, each counted as an eviction. The lifetime
    /// counters stay.
    pub fn clear(&mut self) {
        self.evictions += self.slots.iter().flatten().count() as u64;
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.hand = 0;
        self.bytes = 0;
    }

    /// The resident entries in slot order. Touches no referenced bit.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .flatten()
            .map(|entry| (&entry.key, &entry.value))
    }

    /// Fault injection for tests: empty the slot `key` maps to and leave
    /// the mapping behind, the partial state [`Self::get`] heals.
    /// Returns whether there was an entry to break.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn inject_dangling<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&slot) = self.map.get(key) else {
            return false;
        };
        let Some(entry) = self.slots.get_mut(slot).and_then(Option::take) else {
            return false;
        };
        self.bytes -= entry.cost;
        true
    }

    /// Slots in the ring, resident or free: what a healed slot must not
    /// grow.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    fn is_resident(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(Option::is_some)
    }

    /// Drop a mapping whose slot is empty, and return the slot (when it
    /// is one of the ring's) to the free list, so repeated recoveries
    /// cannot grow the ring.
    fn heal<Q>(&mut self, key: &Q, slot: usize)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(key);
        if slot < self.slots.len() && !self.free.contains(&slot) {
            self.free.push(slot);
        }
        self.recoveries += 1;
    }

    fn remove_slot(&mut self, slot: usize) -> Option<(K, V)> {
        let entry = self.slots.get_mut(slot)?.take()?;
        self.map.remove(&entry.key);
        self.bytes -= entry.cost;
        self.free.push(slot);
        self.evictions += 1;
        Some((entry.key, entry.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    type Ring = Clock<Arc<[u32]>, Arc<[f64]>>;

    fn dist(n: usize, seed: f64) -> Arc<[f64]> {
        (0..n).map(|i| seed - i as f64).collect()
    }

    /// What the scoring cache charges an entry.
    fn cost(key: &[u32], value: &[f64]) -> usize {
        std::mem::size_of_val(key) + std::mem::size_of_val(value) + 112
    }

    /// An owner's side of an insert, the scoring cache's policy: first
    /// writer wins, an entry larger than the budget is refused, and the
    /// hand makes room under `budget`.
    fn admit(ring: &mut Ring, budget: usize, key: Vec<u32>, value: Arc<[f64]>) {
        if ring.contains_key(&key[..]) {
            return;
        }
        let cost = cost(&key, &value);
        if cost > budget {
            return;
        }
        while ring.bytes() + cost > budget {
            if ring.evict_one().is_none() {
                return;
            }
        }
        ring.insert(key.into(), value, cost);
    }

    fn lookup(ring: &mut Ring, key: &[u32]) -> Option<Arc<[f64]>> {
        ring.get(key).cloned()
    }

    #[test]
    fn lookup_roundtrip_and_first_writer_wins() {
        let mut c = Ring::default();
        admit(&mut c, 1 << 20, vec![1, 2], dist(4, 0.0));
        admit(&mut c, 1 << 20, vec![1, 2], dist(4, 9.0)); // ignored
        assert_eq!(lookup(&mut c, &[1, 2]), Some(dist(4, 0.0)));
        assert_eq!(lookup(&mut c, &[9]), None);
        assert_eq!(c.len(), 1);
        assert!(c.bytes() > 0);
    }

    #[test]
    fn byte_budget_is_enforced() {
        let budget = cost(&[0, 0], &dist(8, 0.0)) * 4;
        let mut c = Ring::default();
        for i in 0..32u32 {
            admit(&mut c, budget, vec![i, i], dist(8, f64::from(i)));
        }
        assert!(c.bytes() <= budget, "{} > {budget}", c.bytes());
        assert!(c.len() <= 4);
        assert!(c.evictions() >= 28);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let budget = cost(&[0], &dist(8, 0.0)) * 3;
        let mut c = Ring::default();
        admit(&mut c, budget, vec![0], dist(8, 0.0));
        admit(&mut c, budget, vec![1], dist(8, 1.0));
        admit(&mut c, budget, vec![2], dist(8, 2.0));
        // Touch 0 so the sweep prefers 1 (unreferenced).
        assert!(lookup(&mut c, &[0]).is_some());
        admit(&mut c, budget, vec![3], dist(8, 3.0));
        assert!(
            lookup(&mut c, &[0]).is_some(),
            "recently used entry survives"
        );
        assert!(lookup(&mut c, &[3]).is_some(), "new entry admitted");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn evict_one_returns_the_victims_in_hand_order() {
        let mut c = Ring::default();
        for i in 0..3u32 {
            c.insert(vec![i].into(), dist(2, f64::from(i)), 10);
        }
        assert!(lookup(&mut c, &[0]).is_some());
        let victim = |c: &mut Ring| c.evict_one().map(|(key, _)| key.to_vec());
        // 0 was referenced: the hand clears its bit and passes it once.
        assert_eq!(victim(&mut c), Some(vec![1]));
        assert_eq!(victim(&mut c), Some(vec![2]));
        assert_eq!(victim(&mut c), Some(vec![0]));
        assert_eq!(victim(&mut c), None);
        assert_eq!((c.len(), c.bytes(), c.evictions()), (0, 0, 3));
    }

    #[test]
    fn oversized_entry_is_not_admitted() {
        let mut c = Ring::default();
        admit(&mut c, 64, vec![1; 100], dist(100, 0.0));
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn dangling_map_entry_is_healed_not_a_panic() {
        let mut c = Ring::default();
        admit(&mut c, 1 << 20, vec![1, 2], dist(4, 0.0));
        admit(&mut c, 1 << 20, vec![3, 4], dist(4, 1.0));
        // Simulate the partial state a mid-update panic leaves behind
        // once its poisoned lock is recovered: the index maps a context
        // to a slot that no longer holds an entry.
        assert!(c.inject_dangling(&[1, 2][..]));
        // Regression: this lookup used to `expect("mapped slot is
        // live")` — a panic that, behind the shared cache's mutex,
        // killed every later query of a long-lived server.
        assert_eq!(lookup(&mut c, &[1, 2]), None);
        assert_eq!(c.recoveries(), 1);
        // The ring healed: the dangling mapping is gone, the other
        // entry still serves, and the healed key can be re-admitted —
        // into the reclaimed slot, not a fresh one (repeated recoveries
        // must not grow the ring without bound).
        assert_eq!(lookup(&mut c, &[3, 4]), Some(dist(4, 1.0)));
        let ring_before = c.slot_count();
        admit(&mut c, 1 << 20, vec![1, 2], dist(4, 9.0));
        assert_eq!(lookup(&mut c, &[1, 2]), Some(dist(4, 9.0)));
        assert_eq!(c.slot_count(), ring_before, "healed slot was reused");
    }

    #[test]
    fn clear_resets_contents_but_not_counters() {
        let mut c = Ring::default();
        admit(&mut c, 1 << 20, vec![1], dist(4, 0.0));
        admit(&mut c, 1 << 20, vec![2], dist(4, 0.0));
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.evictions(), 2, "cleared entries count as evictions");
        admit(&mut c, 1 << 20, vec![2], dist(4, 0.0));
        assert_eq!(c.len(), 1);
    }
}
