//! Test-only oracle: the scoring cache's bounded table as a standalone
//! clock ring, with its own generation tags, live count and reuse
//! counters. `shared::tests` drives it and the live cache with one
//! random sequence of operations and requires the same hits, misses,
//! victims and gauges after every one. The table's code is copied
//! unchanged; only the rustdoc is shortened, and the two helpers at the
//! end (the import gate and the fault injection) are the harness's.

use std::collections::HashMap;
use std::sync::Arc;

use relm_bpe::TokenId;

/// Estimated fixed overhead per entry (hash-table slot, `Vec` headers,
/// clock metadata), charged on top of the key/value payload bytes.
const ENTRY_OVERHEAD_BYTES: usize = 112;

/// One memoized distribution.
#[derive(Debug)]
struct Entry {
    key: Arc<[TokenId]>,
    value: Arc<[f64]>,
    generation: u64,
    referenced: bool,
    cost: usize,
    hits: u64,
}

/// The bounded memo table.
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
    /// Map/ring inconsistencies healed on contact instead of panicking.
    recoveries: u64,
    /// Lifetime sum of per-entry reuse.
    reuse_hits: u64,
    /// Live (current-generation) entry count.
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

    /// Total evictions (budget pressure + stale collection).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total admitted entries.
    pub(crate) fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Mean observed reuse depth per admitted entry.
    pub(crate) fn mean_reuse_depth(&self) -> f64 {
        if self.insertions == 0 {
            return 0.0;
        }
        self.reuse_hits as f64 / self.insertions as f64
    }

    /// Map/ring inconsistencies healed on contact.
    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The current generation tag.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidate every entry and collect it here.
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

    /// Whether `context` is memoized in the current generation.
    pub(crate) fn contains(&self, context: &[TokenId]) -> bool {
        self.map
            .get(context)
            .and_then(|&slot| self.slots[slot].as_ref())
            .is_some_and(|e| e.generation == self.generation)
    }

    /// Look up `context`, setting its referenced bit on a hit. Stale
    /// entries are removed on contact, dangling mappings healed.
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
                if slot < self.slots.len() && !self.free.contains(&slot) {
                    self.free.push(slot);
                }
                self.recoveries += 1;
                None
            }
        }
    }

    /// Admit `context -> distribution` (first writer wins), evicting as
    /// needed to respect the byte budget.
    pub(crate) fn insert(&mut self, context: Vec<TokenId>, distribution: Arc<[f64]>) {
        if self.contains(&context) {
            return;
        }
        if let Some(&slot) = self.map.get(&context[..]) {
            self.remove_slot(slot);
        }
        let cost = Self::cost_of(&context, &distribution);
        if cost > self.max_bytes {
            return;
        }
        while self.bytes + cost > self.max_bytes {
            if !self.evict_one() {
                return;
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

    /// The live entries as `(context, distribution)` in ring-slot order.
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (&[TokenId], &Arc<[f64]>)> {
        self.slots.iter().filter_map(|slot| {
            slot.as_ref()
                .filter(|e| e.generation == self.generation)
                .map(|e| (&e.key[..], &e.value))
        })
    }

    /// One clock sweep step: evict the first stale or unreferenced entry,
    /// clearing referenced bits along the way.
    fn evict_one(&mut self) -> bool {
        if self.slots.is_empty() || self.bytes == 0 {
            return false;
        }
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

    /// `SharedScoringCache::import_entries`' gate over this table:
    /// admit only a snapshot of the current generation. Returns the
    /// entries admitted.
    pub(crate) fn import(
        &mut self,
        generation: u64,
        entries: Vec<(Vec<TokenId>, Arc<[f64]>)>,
    ) -> usize {
        if self.generation != generation {
            return 0;
        }
        let before = self.insertions;
        for (context, distribution) in entries {
            self.insert(context, distribution);
        }
        (self.insertions - before) as usize
    }

    /// Fault injection: empty the slot `context` maps to and leave the
    /// mapping behind — the partial state of a thread that panicked
    /// mid-update, as the live table's own regression test builds it.
    /// Returns whether there was an entry to break.
    pub(crate) fn inject_dangling(&mut self, context: &[TokenId]) -> bool {
        let Some(&slot) = self.map.get(context) else {
            return false;
        };
        let Some(entry) = self.slots[slot].take() else {
            return false;
        };
        self.bytes -= entry.cost;
        self.live -= 1;
        true
    }
}
