//! A small bounded map with least-recently-used eviction.
//!
//! The fault model's process-global derivation cache (one cell table
//! per row) was previously bounded by wiping the whole map on
//! overflow, so sweeps just past the capacity re-derived every row on
//! every pass. This cache evicts exactly one
//! entry — the least recently *used* — per overflowing insert, so a
//! working set that fits stays resident no matter how many cold rows
//! stream past it.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A bounded `HashMap` that evicts the least-recently-used entry when
/// an insert would exceed its capacity.
///
/// Recency is tracked with a monotone tick stamped on every access.
/// A tick-ordered index beside the map names the oldest entry, so an
/// eviction is one `pop_first` — O(log n) — rather than a scan of
/// every stamp, which cost microseconds per insert once a sweep kept
/// thousands of rows resident.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    /// `tick → key` for every resident entry; its first key is the
    /// least recently used.
    order: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be nonzero");
        Self { map: HashMap::new(), order: BTreeMap::new(), capacity, tick: 0, evictions: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let slot = self.map.get_mut(key)?;
        let old = std::mem::replace(&mut slot.0, self.tick);
        if let Some(k) = self.order.remove(&old) {
            self.order.insert(self.tick, k);
        }
        Some(&slot.1)
    }

    /// Inserts `key`, evicting the least-recently-used entry first if
    /// the cache is full (and `key` is not already resident).
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if let Some((old, _)) = self.map.get(&key) {
            self.order.remove(old);
        } else if self.map.len() >= self.capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.order.insert(self.tick, key.clone());
        self.map.insert(key, (self.tick, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eviction this cache had before its tick index: stamp every
    /// access, scan all stamps for the oldest on an overflowing insert.
    /// The oracle the ordered cache must match operation for operation.
    struct ScanLru {
        map: HashMap<u8, (u64, u32)>,
        capacity: usize,
        tick: u64,
        evictions: u64,
    }

    impl ScanLru {
        fn get(&mut self, key: u8) -> Option<u32> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(&key).map(|slot| {
                slot.0 = tick;
                slot.1
            })
        }

        fn insert(&mut self, key: u8, value: u32) {
            self.tick += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                if let Some(oldest) = self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k)
                {
                    self.map.remove(&oldest);
                    self.evictions += 1;
                }
            }
            self.map.insert(key, (self.tick, value));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ordered_eviction_matches_min_tick_scan(
            capacity in 1usize..=8,
            ops in prop::collection::vec((0u8..4, 0u8..12, 0u32..1000), 0..300),
        ) {
            let mut lru = LruCache::new(capacity);
            let mut scan = ScanLru { map: HashMap::new(), capacity, tick: 0, evictions: 0 };
            for (i, &(op, key, value)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        lru.insert(key, value);
                        scan.insert(key, value);
                    }
                    2 => prop_assert_eq!(lru.get(&key).copied(), scan.get(key), "op {}", i),
                    _ => {
                        prop_assert_eq!(lru.map.contains_key(&key), scan.map.contains_key(&key))
                    }
                }
                let mut resident: Vec<u8> = (0..12).filter(|k| lru.map.contains_key(k)).collect();
                let mut expected: Vec<u8> = scan.map.keys().copied().collect();
                resident.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(resident, expected, "resident keys after op {}", i);
                prop_assert_eq!(lru.evictions(), scan.evictions, "evictions after op {}", i);
                prop_assert_eq!(lru.order.len(), lru.map.len(), "index out of sync at op {}", i);
            }
        }
    }

    #[test]
    fn holds_up_to_capacity() {
        let mut c = LruCache::new(4);
        for i in 0..4u32 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions(), 0);
        for i in 0..4u32 {
            assert_eq!(c.get(&i), Some(&(i * 10)));
        }
    }

    #[test]
    fn overflow_evicts_exactly_one_not_everything() {
        // The regression this type exists for: the N+1th insert must
        // not wipe the cache (the old code called `.clear()`).
        let mut c = LruCache::new(4);
        for i in 0..4u32 {
            c.insert(i, i);
        }
        c.insert(4, 4);
        assert_eq!(c.len(), 4, "insert past capacity must keep the cache full");
        assert_eq!(c.evictions(), 1, "exactly one entry evicted");
        // Only the oldest (0) is gone.
        assert!(!c.map.contains_key(&0));
        for i in 1..=4u32 {
            assert!(c.map.contains_key(&i), "entry {i} wrongly evicted");
        }
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(3);
        c.insert(0, 0);
        c.insert(1, 1);
        c.insert(2, 2);
        // Touch 0 so 1 becomes the oldest.
        assert_eq!(c.get(&0), Some(&0));
        c.insert(3, 3);
        assert!(c.map.contains_key(&0), "recently used entry must survive");
        assert!(!c.map.contains_key(&1), "least recently used entry must go");
    }

    #[test]
    fn reinsert_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(0, 0);
        c.insert(1, 1);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn working_set_survives_a_cold_stream() {
        // A sweep larger than the cache must not dislodge a hot working
        // set that is touched between cold inserts.
        let mut c = LruCache::new(8);
        for i in 0..4u32 {
            c.insert(i, i);
        }
        for cold in 100..200u32 {
            for hot in 0..4u32 {
                assert!(c.get(&hot).is_some(), "hot entry {hot} evicted at {cold}");
            }
            c.insert(cold, cold);
        }
    }
}
