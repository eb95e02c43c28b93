//! The global client-side buffer collectively managed by the scheduler
//! threads.
//!
//! Prefetched data live here between the scheduler thread's early fetch
//! and the application's original read point. Per §III:
//!
//! * a hit returns the data and *invalidates* the entry, making room for
//!   subsequent prefetches;
//! * when the buffer is full the scheduler threads stop fetching.
//!
//! Capacity is reserved at issue time (an in-flight fetch occupies its
//! bytes) so the threads cannot collectively oversubscribe the buffer.

use sdds_storage::FileId;
use simkit::hash::FxHashMap;
use simkit::SimTime;

/// A buffered byte range: the unit the scheduler prefetches and the
/// application consumes.
pub type RangeKey = (FileId, u64, u64);

/// State of one buffered range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// The fetch is in flight.
    InFlight {
        /// The storage ticket whose completion fills the entry.
        ticket: u64,
        /// When the scheduler thread issued the prefetch.
        issued_at: SimTime,
    },
    /// Data present and ready to be consumed.
    Ready,
}

/// Buffer occupancy and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Prefetches admitted into the buffer.
    pub admitted: u64,
    /// Prefetches rejected because the buffer was full.
    pub rejected_full: u64,
    /// Application reads served from the buffer (ready data).
    pub hits: u64,
    /// Application reads that found their fetch still in flight.
    pub hits_in_flight: u64,
    /// Application reads that found nothing buffered.
    pub misses: u64,
    /// High-water mark of used bytes.
    pub peak_used: u64,
}

/// The collectively-managed prefetch buffer.
///
/// # Example
///
/// ```
/// use sdds_runtime::GlobalBuffer;
/// use sdds_storage::FileId;
/// use simkit::SimTime;
///
/// let mut buf = GlobalBuffer::new(1 << 20);
/// let key = (FileId(0), 0, 65_536);
/// assert!(buf.reserve(key, 0, SimTime::ZERO));
/// buf.fill(&key);
/// assert!(buf.consume(&key));
/// assert_eq!(buf.used(), 0); // consume invalidates
/// ```
#[derive(Debug)]
pub struct GlobalBuffer {
    capacity: u64,
    used: u64,
    entries: FxHashMap<RangeKey, EntryState>,
    stats: BufferStats,
}

impl GlobalBuffer {
    /// Creates a buffer of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        GlobalBuffer {
            capacity,
            used: 0,
            entries: FxHashMap::default(),
            stats: BufferStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved or filled.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Returns `true` if `len` more bytes would fit.
    pub fn has_room(&self, len: u64) -> bool {
        self.used + len <= self.capacity
    }

    /// Reserves room for the prefetch of `key` that storage `ticket`,
    /// issued at `issued_at`, will fill. Returns `false` (and counts a
    /// rejection when due to capacity) if the buffer is full or the range
    /// is already buffered.
    pub fn reserve(&mut self, key: RangeKey, ticket: u64, issued_at: SimTime) -> bool {
        let len = key.2;
        if self.entries.contains_key(&key) {
            // Already buffered or in flight; no second fetch needed.
            return false;
        }
        if !self.has_room(len) {
            self.stats.rejected_full += 1;
            return false;
        }
        self.used += len;
        self.stats.peak_used = self.stats.peak_used.max(self.used);
        self.entries
            .insert(key, EntryState::InFlight { ticket, issued_at });
        self.stats.admitted += 1;
        true
    }

    /// Marks an in-flight range as ready. Returns `false` if the range is
    /// not tracked.
    pub fn fill(&mut self, key: &RangeKey) -> bool {
        match self.entries.get_mut(key) {
            Some(state) => {
                *state = EntryState::Ready;
                true
            }
            None => false,
        }
    }

    /// The state of `key` (`None` when it is not buffered), without
    /// counting it as an application read.
    pub fn state(&self, key: &RangeKey) -> Option<EntryState> {
        self.entries.get(key).copied()
    }

    /// Looks up `key` for an application read *without* consuming it,
    /// counting hit/miss statistics.
    pub fn lookup(&mut self, key: &RangeKey) -> Option<EntryState> {
        let state = self.state(key);
        match state {
            Some(EntryState::Ready) => self.stats.hits += 1,
            Some(EntryState::InFlight { .. }) => self.stats.hits_in_flight += 1,
            None => self.stats.misses += 1,
        }
        state
    }

    /// Drops the entry for `key`, ready or in flight, and frees its
    /// bytes; does nothing if the range is not buffered.
    pub(crate) fn release(&mut self, key: &RangeKey) {
        if self.entries.remove(key).is_some() {
            self.used -= key.2;
        }
    }

    /// Consumes (and invalidates) a ready entry, freeing its bytes.
    /// Returns `false` if the entry was absent or still in flight.
    pub fn consume(&mut self, key: &RangeKey) -> bool {
        match self.entries.get(key) {
            Some(EntryState::Ready) => {
                self.entries.remove(key);
                self.used -= key.2;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64, len: u64) -> RangeKey {
        (FileId(0), i * len, len)
    }

    #[test]
    fn reserve_fill_consume_cycle() {
        let mut b = GlobalBuffer::new(1000);
        let k = key(0, 400);
        let issued_at = SimTime::from_micros(5);
        assert!(b.reserve(k, 7, issued_at));
        assert_eq!(b.used(), 400);
        let in_flight = EntryState::InFlight {
            ticket: 7,
            issued_at,
        };
        assert_eq!(b.state(&k), Some(in_flight));
        assert_eq!(b.lookup(&k), Some(in_flight));
        assert!(b.fill(&k));
        assert_eq!(b.lookup(&k), Some(EntryState::Ready));
        assert!(b.consume(&k));
        assert_eq!(b.used(), 0);
        assert_eq!(b.lookup(&k), None);
        let s = b.stats();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.hits_in_flight, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn full_buffer_rejects() {
        let mut b = GlobalBuffer::new(1000);
        assert!(b.reserve(key(0, 600), 0, SimTime::ZERO));
        assert!(!b.reserve(key(1, 600), 0, SimTime::ZERO));
        assert_eq!(b.stats().rejected_full, 1);
        // Consuming frees room again.
        b.fill(&key(0, 600));
        assert!(b.consume(&key(0, 600)));
        assert!(b.reserve(key(1, 600), 0, SimTime::ZERO));
    }

    #[test]
    fn duplicate_reservation_refused_without_counting_full() {
        let mut b = GlobalBuffer::new(1000);
        assert!(b.reserve(key(0, 100), 0, SimTime::ZERO));
        assert!(!b.reserve(key(0, 100), 0, SimTime::ZERO));
        assert_eq!(b.stats().rejected_full, 0);
        assert_eq!(b.used(), 100);
    }

    #[test]
    fn release_frees_an_in_flight_entry() {
        let mut b = GlobalBuffer::new(1000);
        let k = key(0, 600);
        assert!(b.reserve(k, 3, SimTime::ZERO));
        b.release(&k);
        assert_eq!((b.used(), b.state(&k)), (0, None));
        // Releasing twice is harmless, and the range can be fetched again.
        b.release(&k);
        assert_eq!(b.used(), 0);
        assert!(b.reserve(k, 4, SimTime::ZERO));
    }

    #[test]
    fn consume_requires_ready() {
        let mut b = GlobalBuffer::new(1000);
        let k = key(0, 100);
        b.reserve(k, 0, SimTime::ZERO);
        assert!(!b.consume(&k)); // still in flight
        b.fill(&k);
        assert!(b.consume(&k));
        assert!(!b.consume(&k)); // already gone
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut b = GlobalBuffer::new(1000);
        b.reserve(key(0, 300), 0, SimTime::ZERO);
        b.reserve(key(1, 500), 0, SimTime::ZERO);
        b.fill(&key(0, 300));
        b.consume(&key(0, 300));
        assert_eq!(b.stats().peak_used, 800);
        assert_eq!(b.used(), 500);
    }

    #[test]
    fn fill_unknown_key_is_false() {
        let mut b = GlobalBuffer::new(100);
        assert!(!b.fill(&key(0, 50)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = GlobalBuffer::new(0);
    }
}
