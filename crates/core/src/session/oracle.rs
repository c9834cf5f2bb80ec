//! Test-only oracle: the session's plan memo as a standalone clock ring
//! — key → slot map, slot ring, free list, hand, byte gauge, eviction
//! and recovery counts. `session::tests` drives it and the live memo
//! with one random sequence of operations and requires the same hits,
//! misses, victims and gauges after every one. The memo's code is copied
//! unchanged; only the rustdoc is shortened, and the accessors at the
//! end are the harness's.

use std::collections::HashMap;
use std::sync::Arc;

use super::{PlanInsert, PlanKey, PlanParts, PLAN_ENTRY_OVERHEAD_BYTES};

/// One memoized plan: the compiled parts plus its clock metadata.
#[derive(Debug)]
struct PlanEntry {
    key: PlanKey,
    parts: Arc<PlanParts>,
    referenced: bool,
    cost: usize,
}

/// The bounded plan memo: count-capped and byte-budgeted, clock-evicted.
#[derive(Debug)]
pub(super) struct PlanMemo {
    capacity: usize,
    max_bytes: usize,
    bytes: usize,
    /// `key -> slot index` into the clock ring.
    map: HashMap<PlanKey, usize>,
    /// The clock ring; `None` slots are free.
    slots: Vec<Option<PlanEntry>>,
    free: Vec<usize>,
    hand: usize,
    evictions: u64,
    /// Map/ring inconsistencies healed on contact instead of panicking.
    recoveries: u64,
}

impl PlanMemo {
    pub(super) fn new(capacity: usize, max_bytes: usize) -> Self {
        PlanMemo {
            capacity: capacity.max(1),
            max_bytes,
            bytes: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            evictions: 0,
            recoveries: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Estimated resident bytes of one entry: fixed overhead, both
    /// copies of the key (entry + index map), and the plan payload.
    fn cost_of(key: &PlanKey, parts: &PlanParts) -> usize {
        PLAN_ENTRY_OVERHEAD_BYTES + 2 * key.estimated_bytes() + parts.estimated_bytes()
    }

    pub(super) fn get(&mut self, key: &PlanKey) -> Option<Arc<PlanParts>> {
        let slot = *self.map.get(key)?;
        let (parts, old_cost) = match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(entry) => {
                entry.referenced = true;
                (Arc::clone(&entry.parts), entry.cost)
            }
            None => {
                self.map.remove(key);
                if slot < self.slots.len() && !self.free.contains(&slot) {
                    self.free.push(slot);
                }
                self.recoveries += 1;
                return None;
            }
        };
        let new_cost = Self::cost_of(key, &parts);
        if new_cost != old_cost {
            if let Some(entry) = self.slots[slot].as_mut() {
                entry.cost = new_cost;
                self.bytes = self.bytes - old_cost + new_cost;
                while self.bytes > self.max_bytes {
                    if !self.evict_one() {
                        break;
                    }
                }
            }
        }
        Some(parts)
    }

    pub(super) fn insert(&mut self, key: PlanKey, parts: Arc<PlanParts>) -> PlanInsert {
        if self.map.contains_key(&key) {
            return PlanInsert::Duplicate;
        }
        let cost = Self::cost_of(&key, &parts);
        if cost > self.max_bytes {
            return PlanInsert::NotMemoizable;
        }
        while self.map.len() >= self.capacity || self.bytes + cost > self.max_bytes {
            if !self.evict_one() {
                return PlanInsert::NotMemoizable;
            }
        }
        let entry = PlanEntry {
            key: key.clone(),
            parts,
            referenced: false,
            cost,
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
        PlanInsert::Inserted
    }

    fn remove_slot(&mut self, slot: usize) {
        if let Some(entry) = self.slots[slot].take() {
            self.map.remove(&entry.key);
            self.bytes -= entry.cost;
            self.free.push(slot);
            self.evictions += 1;
        }
    }

    /// One clock sweep step: evict the first unreferenced plan, clearing
    /// referenced bits along the way.
    fn evict_one(&mut self) -> bool {
        if self.slots.is_empty() || self.map.is_empty() {
            return false;
        }
        for _ in 0..self.slots.len() * 2 {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let Some(entry) = self.slots[slot].as_mut() else {
                continue;
            };
            if !entry.referenced {
                self.remove_slot(slot);
                return true;
            }
            entry.referenced = false;
        }
        false
    }

    /// The resident keys in slot order.
    pub(super) fn resident(&self) -> Vec<PlanKey> {
        self.slots.iter().flatten().map(|e| e.key.clone()).collect()
    }

    /// `(len, bytes, evictions, recoveries)`.
    pub(super) fn gauges(&self) -> (usize, usize, u64, u64) {
        (self.len(), self.bytes, self.evictions, self.recoveries)
    }

    /// Fault injection: empty the slot `key` maps to and leave the
    /// mapping behind, as the live memo's own regression test builds
    /// it. Returns whether there was an entry to break.
    pub(super) fn inject_dangling(&mut self, key: &PlanKey) -> bool {
        let Some(&slot) = self.map.get(key) else {
            return false;
        };
        let Some(entry) = self.slots[slot].take() else {
            return false;
        };
        self.bytes -= entry.cost;
        true
    }
}
