//! A byte-budgeted, generation-tagged memo table with clock eviction.
//!
//! [`ClockCache`] is the table inside [`crate::SharedScoringCache`],
//! the one scoring memo in the workspace (every
//! [`crate::ScoringEngine`] scores through one, shared by a session or
//! its own), and with it the one eviction policy and the one admission
//! signal. Under a long audit (thousands of queries against one model)
//! an unbounded memo is a slow memory leak; here every insertion is
//! charged an estimated byte cost and the total is kept under a budget
//! by second-chance (clock) eviction.
//!
//! **Clock eviction**: entries live in slots arranged in a ring; each
//! lookup sets the entry's referenced bit; when space is needed a hand
//! sweeps the ring, clearing referenced bits and evicting the first
//! unreferenced entry it finds. This approximates LRU at O(1) amortized
//! cost with no linked-list bookkeeping.
//!
//! **Generations**: every entry is tagged with the generation current at
//! insertion. [`ClockCache::bump_generation`] invalidates the whole
//! table and drops the outgoing generation's rows on the spot, so a
//! swapped-out model's distributions neither serve nor keep occupying
//! the byte budget. The tag checks stay as the second line of defence:
//! an entry of another generation misses on lookup, is removed on
//! contact and is the eviction hand's first choice, and an import
//! tagged with an older generation is refused — a swapped model or
//! tokenizer can never be served a distribution computed by its
//! predecessor.

use std::collections::HashMap;
use std::sync::Arc;

use relm_bpe::TokenId;

/// Estimated fixed overhead per entry (hash-table slot, `Vec` headers,
/// clock metadata), charged on top of the key/value payload bytes.
const ENTRY_OVERHEAD_BYTES: usize = 112;

/// One memoized distribution. The key is shared with the index map
/// (`Arc`), so each context's bytes are stored once and `cost` charges
/// them once. The row is shared with its readers: a hit hands out a
/// clone of the `Arc`, never of the floats, so a row a reader still
/// holds outlives its eviction — the byte budget bounds the table, not
/// the process.
#[derive(Debug)]
struct Entry {
    key: Arc<[TokenId]>,
    value: Arc<[f64]>,
    generation: u64,
    referenced: bool,
    cost: usize,
    /// Lookups this entry has served — its observed reuse depth, the
    /// signal the shared cache's admission policy reads.
    hits: u64,
}

/// The bounded memo table. Not internally synchronized — its owner,
/// [`crate::SharedScoringCache`], wraps it in a `Mutex`.
#[derive(Debug)]
pub(crate) struct ClockCache {
    /// `context -> slot index` (keys shared with the entries).
    map: HashMap<Arc<[TokenId]>, usize>,
    /// The clock ring. `None` slots are free.
    slots: Vec<Option<Entry>>,
    /// Indices of free slots, reused before the ring grows.
    free: Vec<usize>,
    /// The clock hand: next slot the eviction sweep examines.
    hand: usize,
    /// Current estimated resident bytes.
    bytes: usize,
    /// The byte budget.
    max_bytes: usize,
    /// Current generation; entries from older generations are stale.
    generation: u64,
    /// Entries discarded to fit the budget (stale removals included).
    evictions: u64,
    /// Entries admitted over the cache's lifetime.
    insertions: u64,
    /// Map/ring inconsistencies healed on contact instead of panicking
    /// (a thread that panics mid-update can leave partial state behind
    /// once its poisoned lock is recovered; see [`ClockCache::lookup`]).
    recoveries: u64,
    /// Lifetime sum of per-entry reuse ([`Entry::hits`]) — survives the
    /// entries' eviction, so `reuse_hits / insertions` is the mean
    /// observed reuse depth over everything ever admitted.
    reuse_hits: u64,
    /// Live (current-generation) entry count, maintained incrementally
    /// so [`ClockCache::len`] is O(1) — it is read under the owner's
    /// lock on every stats snapshot.
    live: usize,
}

impl ClockCache {
    /// An empty cache with the given byte budget.
    pub(crate) fn new(max_bytes: usize) -> Self {
        ClockCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            bytes: 0,
            max_bytes,
            generation: 0,
            evictions: 0,
            insertions: 0,
            recoveries: 0,
            reuse_hits: 0,
            live: 0,
        }
    }

    /// Estimated bytes an entry with this key/value costs.
    fn cost_of(key: &[TokenId], value: &[f64]) -> usize {
        std::mem::size_of_val(key) + std::mem::size_of_val(value) + ENTRY_OVERHEAD_BYTES
    }

    /// Number of live (current-generation) entries. O(1).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Current estimated bytes of every entry the table holds.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget.
    pub(crate) fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Total evictions (budget pressure + stale collection).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total admitted entries.
    pub(crate) fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Lifetime sum of per-entry reuse (lookups served by entries,
    /// evicted ones included).
    pub(crate) fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Mean observed reuse depth per admitted entry (0 before any
    /// admission) — how many times the average entry has been served.
    pub(crate) fn mean_reuse_depth(&self) -> f64 {
        if self.insertions == 0 {
            return 0.0;
        }
        self.reuse_hits as f64 / self.insertions as f64
    }

    /// Map/ring inconsistencies healed on contact (each one would have
    /// been a panic — and, behind a shared lock, a poisoned cache —
    /// before the recovery path existed).
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The current generation tag.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidate every entry and collect it here: the outgoing
    /// generation's rows are dropped (counted as evictions) and their
    /// bytes returned to the budget. Leaving them to the eviction hand
    /// kept a swapped-out model's rows resident *and charged* until one
    /// insert at a time displaced them — a session swapping models per
    /// query ran with the whole budget occupied by rows nothing could
    /// read.
    pub(crate) fn bump_generation(&mut self) {
        self.generation += 1;
        self.evictions += self.slots.iter().flatten().count() as u64;
        self.clear();
    }

    /// Drop everything, keeping the budget and counters.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.hand = 0;
        self.bytes = 0;
        self.live = 0;
    }

    /// Remove the entry in `slot`, updating the map and byte account.
    fn remove_slot(&mut self, slot: usize) {
        if let Some(entry) = self.slots[slot].take() {
            self.map.remove(&entry.key[..]);
            self.bytes -= entry.cost;
            self.free.push(slot);
            self.evictions += 1;
            if entry.generation == self.generation {
                self.live -= 1;
            }
        }
    }

    /// Whether `context` is memoized in the current generation. Does not
    /// touch the referenced bit.
    pub(crate) fn contains(&self, context: &[TokenId]) -> bool {
        self.map
            .get(context)
            .and_then(|&slot| self.slots[slot].as_ref())
            .is_some_and(|e| e.generation == self.generation)
    }

    /// Look up `context`, setting its referenced bit on a hit. A stale
    /// (older-generation) entry is removed on contact and reported as a
    /// miss. A mapping that points at an empty or out-of-range slot —
    /// partial state left by a scoring thread that panicked mid-update,
    /// surfaced when the owner's poisoned lock is recovered — is healed
    /// on contact and reported as a miss: in a long-lived server one
    /// broken slot must cost one recomputation, not poison every later
    /// query with a cascading panic.
    pub(crate) fn lookup(&mut self, context: &[TokenId]) -> Option<Arc<[f64]>> {
        let slot = *self.map.get(context)?;
        match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(entry) if entry.generation == self.generation => {
                entry.referenced = true;
                entry.hits += 1;
                self.reuse_hits += 1;
                Some(Arc::clone(&entry.value))
            }
            Some(_) => {
                self.remove_slot(slot);
                None
            }
            None => {
                self.map.remove(context);
                // Return the orphaned slot to the free list (when it was
                // a real ring slot, not an out-of-range index) so the
                // ring does not grow monotonically under repeated
                // recoveries.
                if slot < self.slots.len() && !self.free.contains(&slot) {
                    self.free.push(slot);
                }
                self.recoveries += 1;
                None
            }
        }
    }

    /// Admit `context -> distribution` (first writer wins), evicting as
    /// needed to respect the byte budget. Entries larger than the whole
    /// budget are not admitted.
    pub(crate) fn insert(&mut self, context: Vec<TokenId>, distribution: Arc<[f64]>) {
        if self.contains(&context) {
            return; // first writer wins, matching the old HashMap entry API
        }
        // A stale entry under the same key must be displaced first.
        if let Some(&slot) = self.map.get(&context[..]) {
            self.remove_slot(slot);
        }
        let cost = Self::cost_of(&context, &distribution);
        if cost > self.max_bytes {
            return;
        }
        while self.bytes + cost > self.max_bytes {
            if !self.evict_one() {
                return; // nothing left to evict; shouldn't happen, but stay safe
            }
        }
        let key: Arc<[TokenId]> = context.into();
        let entry = Entry {
            key: Arc::clone(&key),
            value: distribution,
            generation: self.generation,
            referenced: false,
            cost,
            hits: 0,
        };
        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(entry);
                idx
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.bytes += cost;
        self.insertions += 1;
        self.live += 1;
    }

    /// Iterate the live (current-generation) entries as
    /// `(context, distribution)` pairs in ring-slot order — the export
    /// path of the warm-artifact store. Touches neither referenced bits
    /// nor reuse counters: exporting a cache must be unobservable to
    /// its admission policy. The row is the table's own `Arc`, for the
    /// caller to share rather than copy.
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (&[TokenId], &Arc<[f64]>)> {
        self.slots.iter().filter_map(|slot| {
            slot.as_ref()
                .filter(|e| e.generation == self.generation)
                .map(|e| (&e.key[..], &e.value))
        })
    }

    /// One clock sweep step: evict the first stale or unreferenced entry,
    /// clearing referenced bits along the way. Returns `false` when the
    /// ring holds nothing evictable.
    fn evict_one(&mut self) -> bool {
        if self.slots.is_empty() || self.bytes == 0 {
            return false;
        }
        // Two full revolutions suffice: the first clears referenced bits,
        // the second must then find a victim.
        for _ in 0..self.slots.len() * 2 {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let Some(entry) = self.slots[slot].as_mut() else {
                continue;
            };
            if entry.generation != self.generation || !entry.referenced {
                self.remove_slot(slot);
                return true;
            }
            entry.referenced = false;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(n: usize, seed: f64) -> Arc<[f64]> {
        (0..n).map(|i| seed - i as f64).collect()
    }

    #[test]
    fn lookup_roundtrip_and_first_writer_wins() {
        let mut c = ClockCache::new(1 << 20);
        c.insert(vec![1, 2], dist(4, 0.0));
        c.insert(vec![1, 2], dist(4, 9.0)); // ignored
        assert_eq!(c.lookup(&[1, 2]), Some(dist(4, 0.0)));
        assert_eq!(c.lookup(&[9]), None);
        assert_eq!(c.len(), 1);
        assert!(c.bytes() > 0);
    }

    #[test]
    fn byte_budget_is_enforced() {
        let entry_cost = ClockCache::cost_of(&[0, 0], &dist(8, 0.0));
        let mut c = ClockCache::new(entry_cost * 4);
        for i in 0..32u32 {
            c.insert(vec![i, i], dist(8, f64::from(i)));
        }
        assert!(
            c.bytes() <= c.max_bytes(),
            "{} > {}",
            c.bytes(),
            c.max_bytes()
        );
        assert!(c.len() <= 4);
        assert!(c.evictions() >= 28);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let entry_cost = ClockCache::cost_of(&[0], &dist(8, 0.0));
        let mut c = ClockCache::new(entry_cost * 3);
        c.insert(vec![0], dist(8, 0.0));
        c.insert(vec![1], dist(8, 1.0));
        c.insert(vec![2], dist(8, 2.0));
        // Touch 0 so the sweep prefers 1 (unreferenced).
        assert!(c.lookup(&[0]).is_some());
        c.insert(vec![3], dist(8, 3.0));
        assert!(c.lookup(&[0]).is_some(), "recently used entry survives");
        assert!(c.lookup(&[3]).is_some(), "new entry admitted");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn oversized_entry_is_not_admitted() {
        let mut c = ClockCache::new(64);
        c.insert(vec![1; 100], dist(100, 0.0));
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let mut c = ClockCache::new(1 << 20);
        c.insert(vec![1], dist(4, 0.0));
        c.insert(vec![2], dist(4, 1.0));
        assert_eq!(c.len(), 2);
        c.bump_generation();
        assert_eq!(c.len(), 0, "stale entries are not live");
        assert_eq!(c.lookup(&[1]), None, "stale entry must miss");
        // Re-insert under the new generation serves the new value.
        c.insert(vec![1], dist(4, 7.0));
        assert_eq!(c.lookup(&[1]), Some(dist(4, 7.0)));
    }

    #[test]
    fn generation_bump_returns_the_outgoing_rows_to_the_budget() {
        let mut c = ClockCache::new(1 << 20);
        for i in 0..6u32 {
            c.insert(vec![i], dist(8, f64::from(i)));
        }
        let held = c.lookup(&[0]).expect("resident");
        c.bump_generation();
        // Regression: the bump only moved a tag, so the old rows stayed
        // resident and charged until the hand evicted them one insert at
        // a time.
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 6, "collected rows count as evictions");
        assert_eq!(held[..], dist(8, 0.0)[..], "a reader's row outlives it");
        c.insert(vec![0], dist(8, 9.0));
        assert_eq!(c.lookup(&[0]), Some(dist(8, 9.0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), ClockCache::cost_of(&[0], &dist(8, 9.0)));
    }

    #[test]
    fn stale_entries_are_reclaimed_by_the_sweep() {
        let entry_cost = ClockCache::cost_of(&[0], &dist(8, 0.0));
        let mut c = ClockCache::new(entry_cost * 4);
        for i in 0..4u32 {
            c.insert(vec![i], dist(8, f64::from(i)));
        }
        c.bump_generation();
        // A budget the outgoing generation had filled admits a full
        // budget of new entries.
        for i in 10..14u32 {
            c.insert(vec![i], dist(8, f64::from(i)));
        }
        assert_eq!(c.len(), 4);
        for i in 10..14u32 {
            assert!(c.lookup(&[i]).is_some(), "entry {i} admitted post-bump");
        }
    }

    #[test]
    fn dangling_map_entry_is_healed_not_a_panic() {
        let mut c = ClockCache::new(1 << 20);
        c.insert(vec![1, 2], dist(4, 0.0));
        c.insert(vec![3, 4], dist(4, 1.0));
        // Simulate the partial state a mid-update panic leaves behind
        // once its poisoned lock is recovered: the index maps a context
        // to a slot that no longer holds an entry.
        let slot = *c.map.get(&[1, 2][..]).unwrap();
        c.slots[slot] = None;
        c.bytes -= ClockCache::cost_of(&[1, 2], &dist(4, 0.0));
        c.live -= 1;
        // Regression: this lookup used to `expect("mapped slot is
        // live")` — a panic that, behind the shared cache's mutex,
        // killed every later query of a long-lived server.
        assert_eq!(c.lookup(&[1, 2]), None);
        assert_eq!(c.recoveries(), 1);
        // The cache healed: the dangling mapping is gone, the other
        // entry still serves, and the healed key can be re-admitted —
        // into the reclaimed slot, not a fresh one (repeated recoveries
        // must not grow the ring without bound).
        assert_eq!(c.lookup(&[3, 4]), Some(dist(4, 1.0)));
        let ring_before = c.slots.len();
        c.insert(vec![1, 2], dist(4, 9.0));
        assert_eq!(c.lookup(&[1, 2]), Some(dist(4, 9.0)));
        assert_eq!(c.slots.len(), ring_before, "healed slot was reused");
    }

    #[test]
    fn clear_resets_contents_but_not_counters() {
        let mut c = ClockCache::new(1 << 20);
        c.insert(vec![1], dist(4, 0.0));
        let inserted = c.insertions();
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.insertions(), inserted);
        c.insert(vec![2], dist(4, 0.0));
        assert_eq!(c.len(), 1);
    }
}
