//! A generic least-recently-used cache.

use std::hash::Hash;

use simkit::hash::FxHashMap;

/// A fixed-capacity LRU map.
///
/// Entries are evicted in least-recently-used order when the capacity is
/// exceeded. Lookups with [`LruCache::get`] refresh recency;
/// [`LruCache::peek`] does not.
///
/// The implementation is an intrusive doubly-linked list over a slot
/// vector, giving O(1) insert, lookup, touch, removal and eviction without
/// unsafe code.
///
/// # Example
///
/// ```
/// use sdds_storage::LruCache;
///
/// let mut c = LruCache::new(2);
/// c.insert("a", 1);
/// c.insert("b", 2);
/// c.get(&"a"); // refresh "a"
/// c.insert("c", 3); // evicts "b"
/// assert!(c.contains(&"a"));
/// assert!(!c.contains(&"b"));
/// assert!(c.contains(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: Option<usize>, // most recently used
    tail: Option<usize>, // least recently used
    capacity: usize,
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    /// `None` only while the slot sits on the free list.
    entry: Option<(K, V)>,
    prev: Option<usize>,
    next: Option<usize>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// The index and the slot vector are presized for at most 4,096
    /// entries and grow as the cache fills, so a capacity far beyond what
    /// memory holds costs nothing up front.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        let presize = capacity.min(4_096);
        LruCache {
            map: FxHashMap::with_capacity_and_hasher(presize, Default::default()),
            slots: Vec::with_capacity(presize),
            free: Vec::new(),
            head: None,
            tail: None,
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns `true` if `key` is cached (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slots[idx].entry.as_ref().map(|(_, v)| v)
    }

    /// Looks up `key` without refreshing recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&i| self.slots[i].entry.as_ref())
            .map(|(_, v)| v)
    }

    /// Inserts or updates `key`, returning the entry evicted to make room,
    /// if any (never the inserted key itself).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].entry = Some((key, value));
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    entry: None,
                    prev: None,
                    next: None,
                });
                self.slots.len() - 1
            }
        };
        self.slots[idx].entry = Some((key.clone(), value));
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.slots[idx].entry.take().map(|(_, v)| v)
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let tail = self.tail?;
        self.detach(tail);
        self.free.push(tail);
        let Some((k, v)) = self.slots[tail].entry.take() else {
            debug_assert!(false, "tail slot occupied");
            return None;
        };
        self.map.remove(&k);
        Some((k, v))
    }

    /// Iterates over keys from most to least recently used.
    pub fn keys_mru(&self) -> impl Iterator<Item = &K> {
        KeyIter {
            cache: self,
            cur: self.head,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            Some(p) => self.slots[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slots[n].prev = prev,
            None => self.tail = prev,
        }
        self.slots[idx].prev = None;
        self.slots[idx].next = None;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = None;
        self.slots[idx].next = self.head;
        if let Some(h) = self.head {
            self.slots[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }
}

struct KeyIter<'a, K, V> {
    cache: &'a LruCache<K, V>,
    cur: Option<usize>,
}

impl<'a, K: Eq + Hash + Clone, V> Iterator for KeyIter<'a, K, V> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        let idx = self.cur?;
        self.cur = self.cache.slots[idx].next;
        self.cache.slots[idx].entry.as_ref().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_lru_order() {
        let mut c = LruCache::new(3);
        for i in 0..3 {
            assert_eq!(c.insert(i, i * 10), None);
        }
        assert_eq!(c.insert(3, 30), Some((0, 0)));
        assert_eq!(c.insert(4, 40), Some((1, 10)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.insert("c", 3), Some(("b", 2)));
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.peek(&"a"), Some(&1));
        // "a" is still LRU.
        assert_eq!(c.insert("c", 3), Some(("a", 1)));
    }

    #[test]
    fn update_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, "x");
        c.insert(2, "y");
        assert_eq!(c.insert(1, "z"), None);
        assert_eq!(c.get(&1), Some(&"z"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.remove(&1), Some(1));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        c.insert(3, 3);
        c.insert(4, 4); // evicts 2
        assert!(!c.contains(&2));
        assert!(c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn pop_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&1);
        assert_eq!(c.pop_lru(), Some((2, ())));
        assert_eq!(c.pop_lru(), Some((3, ())));
        assert_eq!(c.pop_lru(), Some((1, ())));
        assert_eq!(c.pop_lru(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn keys_mru_iterates_in_order() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&2);
        let keys: Vec<i32> = c.keys_mru().copied().collect();
        assert_eq!(keys, vec![2, 3, 1]);
    }

    #[test]
    fn single_slot_cache() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1, "a"), None);
        assert_eq!(c.insert(2, "b"), Some((1, "a")));
        assert_eq!(c.get(&2), Some(&"b"));
    }

    #[test]
    fn a_capacity_no_allocator_could_presize_fills_as_it_goes() {
        let mut c = LruCache::new(usize::MAX);
        for k in 0..5_000u64 {
            assert_eq!(c.insert(k, k), None);
        }
        // Evict the three oldest by hand; new keys reuse their slots.
        for k in 0..3u64 {
            assert_eq!(c.pop_lru(), Some((k, k)));
        }
        for k in 5_000..5_003u64 {
            assert_eq!(c.insert(k, k), None);
        }
        assert_eq!(c.len(), 5_000);
        assert_eq!(c.slots.len(), 5_000);
        assert_eq!(c.keys_mru().next(), Some(&5_002));
        assert!(c.contains(&3) && !c.contains(&2));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, ()>::new(0);
    }

    #[test]
    fn stress_against_reference_model() {
        // Compare with a naive Vec-based LRU over a few thousand mixed ops.
        let mut c = LruCache::new(8);
        let mut reference: Vec<u64> = Vec::new(); // MRU at the end
        let mut x: u64 = 12345;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 24;
            if x.is_multiple_of(3) {
                // Lookup.
                let hit = c.get(&key).is_some();
                let ref_hit = reference.contains(&key);
                assert_eq!(hit, ref_hit, "lookup mismatch for {key}");
                if ref_hit {
                    reference.retain(|&k| k != key);
                    reference.push(key);
                }
            } else {
                // Insert.
                c.insert(key, key);
                reference.retain(|&k| k != key);
                reference.push(key);
                if reference.len() > 8 {
                    reference.remove(0);
                }
            }
            assert_eq!(c.len(), reference.len());
        }
    }
}
