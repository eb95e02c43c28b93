//! Reuse-factor computation (Eqs. 2 and 3 of the paper) and the shared
//! scheduling state.
//!
//! The reuse factor of a candidate slot `t` for an access with signature
//! `g` and length `l` sums, over every iteration `u` in the vertical reuse
//! range `[t − δ, t + l − 1 + δ]`, the weighted inverse distance between
//! `g` and the *group active signature* `G_u` (the OR of the signatures of
//! all already-scheduled unit accesses covering `u`):
//!
//! ```text
//! R_t = Σ_u σ(u) / distance(g, G_u)        σ(k) = 1 − k / (δ + 1)
//! ```
//!
//! with `1/d := 2` when the distance is zero, and weight index `k` the
//! distance of `u` from the occupied span `[t, t + l − 1]`.

use sdds_storage::NodeSet;

use crate::signature::Signature;

/// The weight function σ of Eq. 3.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightFn {
    /// The paper's linear decay `σ(k) = 1 − k/(δ+1)`.
    Linear,
    /// An explicit table `σ(k) = table[k]` for `k = 0..=δ` (used to
    /// reproduce the paper's rounded worked examples and for ablations).
    Table(Vec<f64>),
}

// σ tables are fixed finite constants (never NaN), so bitwise equality
// and hashing are consistent with the derived `PartialEq`; this makes
// `WeightFn` (and through it `SchedulerConfig`) usable as a
// compilation-cache key.
impl Eq for WeightFn {}

impl std::hash::Hash for WeightFn {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            WeightFn::Linear => state.write_u8(0),
            WeightFn::Table(t) => {
                state.write_u8(1);
                for w in t {
                    state.write_u64(w.to_bits());
                }
            }
        }
    }
}

impl WeightFn {
    /// The weight of offset `k` from the occupied span, given range `δ`.
    ///
    /// # Panics
    ///
    /// Panics for a `Table` shorter than `k + 1`.
    pub fn weight(&self, k: u32, delta: u32) -> f64 {
        match self {
            WeightFn::Linear => 1.0 - k as f64 / (delta as f64 + 1.0),
            WeightFn::Table(t) => t[k as usize],
        }
    }

    /// Precomputes `σ(k)` for `k = 0..=δ`. Each entry is produced by the
    /// same expression as [`WeightFn::weight`], so sums built from the
    /// table are bit-for-bit identical to evaluating σ term by term — the
    /// table only hoists the per-term division out of hot loops.
    ///
    /// # Panics
    ///
    /// Panics for a `Table` shorter than `δ + 1`.
    pub fn table_for(&self, delta: u32) -> Vec<f64> {
        (0..=delta).map(|k| self.weight(k, delta)).collect()
    }
}

/// Per-slot scheduling state shared by the algorithms: group signatures,
/// per-node access counts (for θ) and per-process occupancy.
#[derive(Debug, Clone)]
pub struct GroupState {
    width: usize,
    total_slots: u32,
    nprocs: usize,
    /// Group active signature per slot.
    group: Vec<Signature>,
    /// Unit-access count per slot × node (for the θ constraint).
    counts: Vec<u16>,
    /// Occupancy per process × slot (one access per slot per process).
    occupied: Vec<bool>,
}

impl GroupState {
    /// Creates empty state for `total_slots` slots, `nprocs` processes and
    /// signatures over `width` I/O nodes.
    pub fn new(width: usize, total_slots: u32, nprocs: usize) -> Self {
        assert!(width > 0 && total_slots > 0 && nprocs > 0);
        GroupState {
            width,
            total_slots,
            nprocs,
            group: vec![Signature::empty(width); total_slots as usize],
            counts: vec![0; total_slots as usize * width],
            occupied: vec![false; total_slots as usize * nprocs],
        }
    }

    /// Total number of scheduling slots.
    pub fn total_slots(&self) -> u32 {
        self.total_slots
    }

    /// The group active signature at `slot`.
    pub fn group_at(&self, slot: u32) -> &Signature {
        &self.group[slot as usize]
    }

    /// The number of already-scheduled unit accesses using `node` at
    /// `slot`.
    pub fn count_at(&self, slot: u32, node: usize) -> u16 {
        self.counts[slot as usize * self.width + node]
    }

    /// Returns `true` if `proc` already has an access scheduled anywhere in
    /// `[start, start + length)`.
    pub fn occupied(&self, proc: usize, start: u32, length: u32) -> bool {
        let end = (start + length).min(self.total_slots);
        (start..end).any(|s| self.occupied[s as usize * self.nprocs + proc])
    }

    /// Records an access with signature `sig` from `proc` occupying
    /// `[start, start + length)`: its unit sub-accesses join every covered
    /// slot's group signature and node counts (§IV-B2).
    pub fn place(&mut self, proc: usize, start: u32, length: u32, sig: &Signature) {
        let end = (start + length).min(self.total_slots);
        for s in start..end {
            let idx = s as usize;
            self.group[idx] = self.group[idx].union(sig);
            for node in sig.nodes().iter() {
                self.counts[idx * self.width + node] += 1;
            }
            self.occupied[idx * self.nprocs + proc] = true;
        }
    }

    /// The reuse factor `R_t` of Eq. 2 for placing `sig` (length `length`)
    /// at slot `t`, with vertical reuse range `delta` and weights
    /// `weights`.
    ///
    /// This is the plain term-by-term sum, kept as the reference that
    /// [`ReuseScorer`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `sig` ranges over a different node count than the state,
    /// or for a `Table` of weights shorter than `delta + 1`.
    pub fn reuse_factor(
        &self,
        sig: &Signature,
        t: u32,
        length: u32,
        delta: u32,
        weights: &WeightFn,
    ) -> f64 {
        let span_start = i64::from(t);
        let span_end = span_start + i64::from(length) - 1;
        let lo = (span_start - i64::from(delta)).max(0);
        let hi = (span_end + i64::from(delta)).min(i64::from(self.total_slots) - 1);
        let mut r = 0.0;
        for u in lo..=hi {
            let k = if u < span_start {
                span_start - u
            } else if u > span_end {
                u - span_end
            } else {
                0
            };
            let d = sig.distance(&self.group[u as usize]);
            let inv = if d == 0 { 2.0 } else { 1.0 / d as f64 };
            r += weights.weight(k as u32, delta) * inv;
        }
        r
    }

    /// Returns `true` if placing `sig` over `[t, t + length)` keeps every
    /// touched node's access count within `theta` at every covered slot
    /// (§IV-B3).
    pub fn theta_ok(&self, sig: &Signature, t: u32, length: u32, theta: u16) -> bool {
        let end = (t + length).min(self.total_slots);
        (t..end).all(|s| {
            sig.nodes()
                .iter()
                .all(|node| self.count_at(s, node) < theta)
        })
    }

    /// The average number of additional (over-θ) accesses `E_t` that
    /// placing `sig` over `[t, t + length)` would create, averaged over
    /// the (slot, node) pairs that exceed θ. Zero when the placement is
    /// eligible.
    pub fn overflow_cost(&self, sig: &Signature, t: u32, length: u32, theta: u16) -> f64 {
        let end = (t + length).min(self.total_slots);
        let mut excess = 0u64;
        let mut offenders = 0u64;
        for s in t..end {
            for node in sig.nodes().iter() {
                let m = self.count_at(s, node) + 1;
                if m > theta {
                    excess += (m - theta) as u64;
                    offenders += 1;
                }
            }
        }
        if offenders == 0 {
            0.0
        } else {
            excess as f64 / offenders as f64
        }
    }
}

/// Candidates scored per batch by [`ReuseScorer::score`].
const BATCH: usize = 4;

/// Largest possible signature distance: `n + |g ⊕ G| ≤ 2n` for `n` nodes.
const MAX_DISTANCE: usize = 2 * NodeSet::MAX_NODES;

/// Scores many candidate slots of one access at once, each bit-for-bit
/// equal to [`GroupState::reuse_factor`].
///
/// One scorer serves a whole scheduling pass: it holds σ and `1/d` for
/// every possible signature distance `d`. For each access,
/// [`ReuseScorer::score`] builds the access's inverse-distance row once,
/// padded with `+0.0` past both ends of the slot range so that clipped
/// windows need no branch, then scores the candidates four at a time with
/// one accumulator per candidate. The candidates' sums interleave, which
/// breaks the single dependent chain of additions, but each sum still
/// starts at `0.0` and adds its terms in ascending-slot order with the
/// same roundings as the reference, so every `R_t` keeps its bits. The
/// padding cannot change a sum: a padded term is `σ(k) · +0.0`, which is
/// `±0.0` for finite weights (as [`SchedulerConfig::validate`] requires);
/// a sum that starts at `+0.0` is never `-0.0`, and adding either zero to
/// any other value leaves it unchanged. Prefix sums, fused multiply-adds
/// or tree reductions would round differently, so they are not used.
///
/// [`SchedulerConfig::validate`]: crate::SchedulerConfig::validate
#[derive(Debug, Clone)]
pub struct ReuseScorer {
    delta: u32,
    /// `σ(k)` for `k = 0..=δ`.
    sigma: Vec<f64>,
    /// `1/d` for `d = 0..=MAX_DISTANCE`, with `1/0 := 2`.
    inv: Vec<f64>,
    /// σ at each position of one candidate's window `[t − δ, t + l − 1 + δ]`.
    window: Vec<f64>,
    /// Inverse distances from the first candidate's window start to the
    /// last candidate's window end, `+0.0` outside the slot range.
    row: Vec<f64>,
}

impl ReuseScorer {
    /// A scorer for vertical reuse range `delta` and weights `weights`.
    ///
    /// # Panics
    ///
    /// Panics for a `Table` of weights shorter than `delta + 1`.
    pub fn new(delta: u32, weights: &WeightFn) -> Self {
        ReuseScorer {
            delta,
            sigma: weights.table_for(delta),
            inv: (0..=MAX_DISTANCE)
                .map(|d| if d == 0 { 2.0 } else { 1.0 / d as f64 })
                .collect(),
            window: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Replaces `out` with `R_t` for each slot `t` of `candidates`, in
    /// order, for an access with signature `sig` and length `length`.
    ///
    /// # Panics
    ///
    /// Panics if `sig` ranges over a different node count than `state`.
    pub fn score(
        &mut self,
        state: &GroupState,
        sig: &Signature,
        length: u32,
        candidates: &[u32],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let (Some(&first), Some(&last)) = (candidates.iter().min(), candidates.iter().max()) else {
            return;
        };
        let delta = self.delta as usize;
        let sigma = &self.sigma;
        self.window.clear();
        self.window.extend((1..=delta).rev().map(|k| sigma[k]));
        self.window
            .extend(std::iter::repeat_n(sigma[0], length as usize));
        self.window.extend((1..=delta).map(|k| sigma[k]));

        let row_start = i64::from(first) - i64::from(self.delta);
        let row_len = (last - first) as usize + self.window.len();
        let total = i64::from(state.total_slots);
        let lo = row_start.clamp(0, total) as usize;
        let hi = (row_start + row_len as i64).clamp(0, total) as usize;
        let inv = &self.inv;
        self.row.clear();
        self.row
            .resize((-row_start).clamp(0, row_len as i64) as usize, 0.0);
        self.row.extend(
            state.group[lo..hi]
                .iter()
                .map(|group| inv[sig.distance(group)]),
        );
        self.row.resize(row_len, 0.0);

        for batch in candidates.chunks(BATCH) {
            let mut offsets = [0; BATCH];
            for (k, offset) in offsets.iter_mut().enumerate() {
                // Lanes past a short final batch repeat its last candidate.
                *offset = (batch[k.min(batch.len() - 1)] - first) as usize;
            }
            let sums = score_batch(&self.window, &self.row, offsets);
            out.extend_from_slice(&sums[..batch.len()]);
        }
    }
}

/// Lane `c` sums `window[j] · row[offsets[c] + j]` over ascending `j`,
/// starting from `0.0`; the lanes advance together.
fn score_batch(window: &[f64], row: &[f64], offsets: [usize; BATCH]) -> [f64; BATCH] {
    let n = window.len();
    let lanes = offsets.map(|o| &row[o..o + n]);
    let mut sums = [0.0; BATCH];
    for (j, &w) in window.iter().enumerate() {
        for (sum, lane) in sums.iter_mut().zip(&lanes) {
            *sum += w * lane[j];
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig16(nodes: &[usize]) -> Signature {
        Signature::new(NodeSet::from_nodes(nodes.iter().copied()), 16)
    }

    #[test]
    fn linear_weights_match_paper_delta4() {
        // §IV-B1: "if δ = 4, we have σ0 = 1, σ1 = 0.8, σ2 = 0.6".
        let w = WeightFn::Linear;
        assert!((w.weight(0, 4) - 1.0).abs() < 1e-12);
        assert!((w.weight(1, 4) - 0.8).abs() < 1e-12);
        assert!((w.weight(2, 4) - 0.6).abs() < 1e-12);
        assert!((w.weight(3, 4) - 0.4).abs() < 1e-12);
        assert!((w.weight(4, 4) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn place_updates_group_counts_occupancy() {
        let mut st = GroupState::new(16, 10, 3);
        let g = sig16(&[1, 9]);
        st.place(0, 4, 2, &g);
        assert_eq!(st.group_at(4).nodes(), g.nodes());
        assert_eq!(st.group_at(5).nodes(), g.nodes());
        assert!(st.group_at(6).is_empty());
        assert_eq!(st.count_at(4, 1), 1);
        assert_eq!(st.count_at(4, 9), 1);
        assert_eq!(st.count_at(4, 2), 0);
        assert!(st.occupied(0, 4, 1));
        assert!(st.occupied(0, 5, 1));
        assert!(!st.occupied(0, 6, 1));
        assert!(!st.occupied(1, 4, 1));
        // Span queries.
        assert!(st.occupied(0, 3, 2));
        assert!(!st.occupied(0, 0, 4));
    }

    #[test]
    fn paper_worked_example_r6() {
        // §IV-B1's R6 for A4 (g4 = {1,9}) at slot t6 with δ = 2 and the
        // paper's rounded weights (1, 0.7, 0.4). Partial schedule consistent
        // with the published distances: G4 = {2,10}, G5 = {2,10},
        // G6 = {1,2,9,10}, G7 = {1,2,9,10}, G8 = {1,9}.
        // (Slots here are 1-based in the paper; we use the same numbers.)
        let mut st = GroupState::new(16, 14, 3);
        let g_2_10 = sig16(&[2, 10]);
        let g_1_9 = sig16(&[1, 9]);
        let g_all4 = sig16(&[1, 2, 9, 10]);
        st.place(1, 4, 1, &g_2_10); // A5 at t4
        st.place(2, 5, 1, &g_2_10); // A3 at t5
        st.place(2, 6, 1, &g_all4); // A8+A2 merged at t6
        st.place(1, 7, 1, &g_all4); // A6 at t7
        st.place(2, 8, 1, &g_1_9); // A9 at t8

        let g4 = sig16(&[1, 9]);
        assert_eq!(g4.distance(st.group_at(6)), 16);
        assert_eq!(g4.distance(st.group_at(5)), 20);
        assert_eq!(g4.distance(st.group_at(7)), 16);
        assert_eq!(g4.distance(st.group_at(4)), 20);
        assert_eq!(g4.distance(st.group_at(8)), 14);

        let weights = WeightFn::Table(vec![1.0, 0.7, 0.4]);
        let r6 = st.reuse_factor(&g4, 6, 1, 2, &weights);
        let expected = 1.0 / 16.0 + 0.7 / 20.0 + 0.7 / 16.0 + 0.4 / 20.0 + 0.4 / 14.0;
        assert!((r6 - expected).abs() < 1e-12);
        assert!((r6 - 0.19).abs() < 0.005, "paper reports ≈ 0.19, got {r6}");
    }

    #[test]
    fn paper_extended_example_groups() {
        // §IV-B2 / Fig. 10: A1 (len 12) at t1, A3 (len 4) at t2, A4 (len 6)
        // at t3, A5 (len 6) at t7 over 4 I/O nodes with Table I signatures.
        // Then G5 = g1|g3|g4 and G6 = g1|g4.
        let g1 = Signature::new(NodeSet::from_nodes([1, 2]), 4);
        let g3 = Signature::new(NodeSet::from_nodes([2]), 4);
        let g4 = Signature::new(NodeSet::from_nodes([3]), 4);
        let g5 = Signature::new(NodeSet::from_nodes([0, 3]), 4);
        let mut st = GroupState::new(4, 14, 5);
        st.place(0, 1, 12, &g1);
        st.place(2, 2, 4, &g3);
        st.place(3, 3, 6, &g4);
        st.place(4, 7, 6, &g5);
        assert_eq!(st.group_at(5).nodes(), NodeSet::from_nodes([1, 2, 3]));
        assert_eq!(st.group_at(6).nodes(), NodeSet::from_nodes([1, 2, 3]));
        // t6 has A1 and A4 only (A3 ends after t5): g1|g4 = {1,2,3}. Same
        // set here because g3 ⊂ g1; the node counts tell them apart:
        assert_eq!(st.count_at(5, 2), 2); // A1 + A3
        assert_eq!(st.count_at(6, 2), 1); // A1 only
    }

    #[test]
    fn paper_theta_example_t5_eligible() {
        // §IV-B3: with θ = 2, slot t5 is eligible for A2 (len 3, g2 = {1}):
        // every iteration t5..t7 keeps all node counts within 2.
        let g1 = Signature::new(NodeSet::from_nodes([1, 2]), 4);
        let g2 = Signature::new(NodeSet::from_nodes([1]), 4);
        let g3 = Signature::new(NodeSet::from_nodes([2]), 4);
        let g4 = Signature::new(NodeSet::from_nodes([3]), 4);
        let g5 = Signature::new(NodeSet::from_nodes([0, 3]), 4);
        let mut st = GroupState::new(4, 14, 5);
        st.place(0, 1, 12, &g1);
        st.place(2, 2, 4, &g3);
        st.place(3, 3, 6, &g4);
        st.place(4, 7, 6, &g5);
        assert!(st.theta_ok(&g2, 5, 3, 2));
        // With θ = 1 it is not (node 1 already used by A1 everywhere).
        assert!(!st.theta_ok(&g2, 5, 3, 1));
        assert_eq!(st.overflow_cost(&g2, 5, 3, 2), 0.0);
        // θ = 1: node 1 exceeds by one at each of the three slots.
        assert!((st.overflow_cost(&g2, 5, 3, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_range_clipped_at_boundaries() {
        let st = GroupState::new(8, 5, 1);
        let g = Signature::new(NodeSet::single(0), 8);
        // Empty state: every slot contributes weight / (8 + 1).
        let d = g.distance(&Signature::empty(8)) as f64;
        let w = WeightFn::Linear;
        // t = 0, len 1, δ = 2: slots 0,1,2 with weights 1, 2/3, 1/3.
        let r = st.reuse_factor(&g, 0, 1, 2, &w);
        let expected = (1.0 + 2.0 / 3.0 + 1.0 / 3.0) / d;
        assert!((r - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_counts_double() {
        let mut st = GroupState::new(2, 3, 1);
        let g_all = Signature::new(NodeSet::from_nodes([0, 1]), 2);
        st.place(0, 1, 1, &g_all);
        // distance(g_all, G1) = 2 − 2 + 0 = 0 → 1/d := 2.
        let r = st.reuse_factor(&g_all, 1, 1, 0, &WeightFn::Linear);
        assert!((r - 2.0).abs() < 1e-12);
    }
}
