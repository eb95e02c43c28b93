//! Deterministic random number generation.
//!
//! The generator is a self-contained xoshiro256** (Blackman & Vigna)
//! seeded through SplitMix64, so the crate has no external dependencies
//! and the byte streams are identical on every platform and toolchain —
//! a prerequisite for the bitwise-reproducible experiment runs the
//! [`pool`](crate::pool) executor guarantees.
//!
//! # Stream splitting
//!
//! Subsystems that draw randomness must never share a generator (or a raw
//! seed): if the fault model and the workload generator both did
//! `DetRng::new(seed)`, they would consume *the same stream*, and adding a
//! draw in one would silently reshuffle the other. The workspace therefore
//! splits one user-facing seed into disjoint top-level streams, one per
//! [`StreamId`] domain, via [`DetRng::for_stream`]:
//!
//! ```
//! use simkit::{DetRng, StreamId};
//!
//! let seed = 42;
//! let mut workload = DetRng::for_stream(seed, StreamId::Workload);
//! let mut faults = DetRng::for_stream(seed, StreamId::Fault);
//! // The two streams never collide, no matter how many draws either takes.
//! assert_ne!(workload.next_u64(), faults.next_u64());
//! ```
//!
//! Within a domain, derive per-component children with
//! [`DetRng::substream`], one label each; a child's stream depends only
//! on the parent state and its label, not on later parent draws.

/// A top-level randomness domain, used to split one user-facing seed into
/// mutually independent streams.
///
/// Each variant carries a distinct 64-bit domain-separation tag that is
/// mixed into the seed by [`DetRng::for_stream`], so two domains started
/// from the same seed produce unrelated streams. The enum is closed on
/// purpose: adding a stream means adding a variant here, which keeps every
/// consumer honest about which domain it draws from and makes collisions a
/// type-level impossibility rather than a convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// Workload generation (application access patterns, arrival jitter).
    Workload,
    /// Fault-plan generation and online fault draws in
    /// [`fault`](crate::fault).
    Fault,
    /// Online energy-policy randomness (predictor jitter, tie-breaks).
    Policy,
}

impl StreamId {
    /// Every stream domain, in declaration order.
    pub const ALL: [StreamId; 3] = [StreamId::Workload, StreamId::Fault, StreamId::Policy];

    /// The domain-separation tag mixed into the user seed. Tags are
    /// arbitrary odd constants; what matters is that they are pairwise
    /// distinct (checked by a debug assertion in [`DetRng::for_stream`]).
    fn tag(self) -> u64 {
        match self {
            StreamId::Workload => 0x574f_524b_4c4f_4144, // "WORKLOAD"
            StreamId::Fault => 0x4641_554c_545f_494e,    // "FAULT_IN"
            StreamId::Policy => 0x504f_4c49_4359_5f45,   // "POLICY_E"
        }
    }
}

/// Hashes a textual label into a 64-bit domain-separation tag (FNV-1a,
/// forced odd so it composes with the [`StreamId`] tag convention).
fn label_tag(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// Derives the sub-seed for `tag` from the user-facing `seed` by running
/// SplitMix64 over their combination. SplitMix64 is a bijection of the
/// 64-bit state for a fixed increment, so distinct tags map a given seed
/// to distinct sub-seeds.
fn derive_stream_seed(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.rotate_left(17);
    let first = splitmix64(&mut s);
    // A second round decorrelates seeds that differ only in low bits.
    let mut s2 = first ^ tag;
    splitmix64(&mut s2)
}

/// A seeded random number generator with a small convenience API.
///
/// Every stochastic choice in the simulator draws from a `DetRng` created
/// from an explicit seed, so a given configuration always reproduces exactly
/// the same run. Components that need independent streams should derive
/// child generators with [`DetRng::substream`] rather than sharing one
/// generator, so that adding draws in one component does not perturb
/// another.
///
/// # Example
///
/// ```
/// use simkit::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.index(10), b.index(10));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used only to expand the 64-bit seed into the
/// 256-bit xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = splitmix64(&mut sm);
        }
        // xoshiro's all-zero state is a fixed point; SplitMix64 cannot
        // produce it from any seed, but guard anyway.
        if state == [0; 4] {
            state[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { state }
    }

    /// Creates the generator for one top-level randomness domain.
    ///
    /// All subsystem streams for a run must be derived from the same
    /// user-facing `seed` through this constructor (never by calling
    /// [`DetRng::new`] on the raw seed from two places), so that the
    /// domains listed in [`StreamId`] are mutually independent: drawing
    /// more or fewer values in one domain cannot perturb another.
    pub fn for_stream(seed: u64, stream: StreamId) -> DetRng {
        #[cfg(debug_assertions)]
        {
            // Every domain must derive a distinct sub-seed from this seed;
            // a collision would silently alias two streams.
            let derived: [u64; StreamId::ALL.len()] =
                StreamId::ALL.map(|s| derive_stream_seed(seed, s.tag()));
            for i in 0..derived.len() {
                for j in (i + 1)..derived.len() {
                    debug_assert_ne!(
                        derived[i], derived[j],
                        "RNG stream collision: {:?} and {:?} derive the same sub-seed from seed {seed}",
                        StreamId::ALL[i], StreamId::ALL[j],
                    );
                }
            }
        }
        DetRng::new(derive_stream_seed(seed, stream.tag()))
    }

    /// Derives an independent child generator named by `label`, without
    /// advancing the parent.
    ///
    /// `substream` is a pure function of the parent's *current state* and
    /// the label: any set of distinctly-labelled substreams taken from the
    /// same parent state is mutually independent regardless of the order
    /// they are created in, and re-deriving the same label yields the same
    /// stream. This is the workspace-standard way to hand one seeded
    /// domain out to many named components (per-disk fault profiles,
    /// per-node online policies).
    pub fn substream(&self, label: &str) -> DetRng {
        let tag = label_tag(label);
        // Mix the four state words with the label tag through SplitMix64
        // so substreams inherit the full 256-bit parent state, not just
        // one word of it.
        let mut acc = tag;
        for (i, word) in self.state.iter().enumerate() {
            let mut s = word ^ acc.rotate_left(11 + i as u32);
            acc = splitmix64(&mut s) ^ acc.rotate_left(29);
        }
        DetRng::new(derive_stream_seed(acc, tag))
    }

    /// Returns the next 64 random bits (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly random value in `0..bound` via Lemire's
    /// widening-multiply reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty bound");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Returns a uniformly random index in `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty range");
        self.bounded(len as u64) as usize
    }

    /// Returns a uniformly random integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range {lo}..={hi}");
        match hi.checked_sub(lo).and_then(|span| span.checked_add(1)) {
            Some(span) => lo + self.bounded(span),
            // lo..=hi covers the whole u64 domain.
            None => self.next_u64(),
        }
    }

    /// Returns a uniform float in `[0, 1)` (53 random mantissa bits).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Chooses a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.index(items.len());
            Some(&items[i])
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn index_within_bounds() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            assert!(rng.index(5) < 5);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut rng = DetRng::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.range_u64(2, 4);
            assert!((2..=4).contains(&v));
            saw_lo |= v == 2;
            saw_hi |= v == 4;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn range_covers_full_domain() {
        let mut rng = DetRng::new(17);
        for _ in 0..16 {
            // Must not overflow or panic.
            let _ = rng.range_u64(0, u64::MAX);
        }
    }

    #[test]
    fn unit_f64_is_in_unit_interval() {
        let mut rng = DetRng::new(23);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = DetRng::new(5);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert!(rng.choose(&[1, 2, 3]).is_some());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_zero_panics() {
        DetRng::new(1).index(0);
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = DetRng::for_stream(99, StreamId::Fault);
        let mut b = DetRng::for_stream(99, StreamId::Fault);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn streams_do_not_collide_for_any_domain_pair() {
        // For a spread of seeds, every pair of domains must yield streams
        // that differ — both in their derived sub-seed and in their first
        // few output words (a collision would alias e.g. fault draws with
        // workload draws and break cross-domain independence).
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let prefixes: Vec<Vec<u64>> = StreamId::ALL
                .iter()
                .map(|&s| {
                    let mut rng = DetRng::for_stream(seed, s);
                    (0..8).map(|_| rng.next_u64()).collect()
                })
                .collect();
            for i in 0..prefixes.len() {
                for j in (i + 1)..prefixes.len() {
                    assert_ne!(
                        prefixes[i],
                        prefixes[j],
                        "streams {:?} and {:?} collide for seed {seed}",
                        StreamId::ALL[i],
                        StreamId::ALL[j]
                    );
                }
            }
        }
    }

    #[test]
    fn stream_draws_do_not_perturb_sibling_streams() {
        // Exhausting one domain's generator leaves a sibling domain's
        // stream bit-for-bit unchanged (they are separate generators
        // derived from disjoint sub-seeds, not offsets into one stream).
        let mut fault1 = DetRng::for_stream(7, StreamId::Fault);
        let expected: Vec<u64> = (0..8).map(|_| fault1.next_u64()).collect();

        let mut workload = DetRng::for_stream(7, StreamId::Workload);
        for _ in 0..10_000 {
            let _ = workload.next_u64();
        }
        let mut fault2 = DetRng::for_stream(7, StreamId::Fault);
        let got: Vec<u64> = (0..8).map(|_| fault2.next_u64()).collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn substreams_do_not_advance_parent() {
        let mut parent = DetRng::new(4);
        let mut untouched = DetRng::new(4);
        let _ = parent.substream("a");
        let _ = parent.substream("b");
        assert_eq!(parent.next_u64(), untouched.next_u64());
    }

    #[test]
    fn substreams_are_order_independent_and_reproducible() {
        let parent = DetRng::new(21);
        let mut a1 = parent.substream("alpha");
        let _ = parent.substream("beta");
        let mut a2 = parent.substream("alpha");
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn substream_labels_separate_streams() {
        let parent = DetRng::new(33);
        let labels = ["disk-0-0", "disk-0-1", "disk-1-0", "node-0", "node-1"];
        let prefixes: Vec<Vec<u64>> = labels
            .iter()
            .map(|l| {
                let mut rng = parent.substream(l);
                (0..8).map(|_| rng.next_u64()).collect()
            })
            .collect();
        for i in 0..prefixes.len() {
            for j in (i + 1)..prefixes.len() {
                assert_ne!(
                    prefixes[i], prefixes[j],
                    "substreams {:?} and {:?} collide",
                    labels[i], labels[j]
                );
            }
        }
    }

    #[test]
    fn substream_depends_on_parent_state() {
        let mut p1 = DetRng::new(8);
        let p2 = DetRng::new(8);
        let _ = p1.next_u64();
        let mut from_advanced = p1.substream("x");
        let mut from_fresh = p2.substream("x");
        assert_ne!(from_advanced.next_u64(), from_fresh.next_u64());
    }

    #[test]
    fn stream_differs_from_raw_seed_stream() {
        // `for_stream` must not degenerate to `new(seed)` for any domain;
        // otherwise that domain would collide with legacy raw-seed users.
        for &s in &StreamId::ALL {
            let mut stream = DetRng::for_stream(5, s);
            let mut raw = DetRng::new(5);
            let a: Vec<u64> = (0..4).map(|_| stream.next_u64()).collect();
            let b: Vec<u64> = (0..4).map(|_| raw.next_u64()).collect();
            assert_ne!(a, b, "{s:?} stream aliases the raw seed stream");
        }
    }
}
