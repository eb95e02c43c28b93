//! Minimal, workspace-local stand-in for the `proptest` crate.
//!
//! The build environment is fully offline, so the real crates.io
//! `proptest` cannot be fetched. This shim implements exactly the API
//! subset the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(...)]` header),
//! * [`Strategy`] with `prop_map`, implemented for integer/float ranges
//!   and tuples,
//! * [`collection::vec`] and [`collection::btree_set`],
//! * [`any`], [`prop_oneof!`], [`prop_assert!`], [`prop_assert_eq!`].
//!
//! Semantics differ from real proptest in two deliberate ways: cases are
//! generated from fixed per-case seeds (fully deterministic across runs
//! and platforms, which the CI pipeline relies on), and there is no
//! shrinking — a failing case panics with the ordinary assertion message.

use std::marker::PhantomData;
use std::ops::Range;

/// Per-test configuration. Only the case count is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the simulator-heavy properties in
        // this workspace are expensive, so the shim defaults lower. Tests
        // that need more cases say so explicitly via `with_cases`.
        ProptestConfig { cases: 64 }
    }
}

/// The shim's case-generation RNG (SplitMix64; deterministic per case).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for the `case`-th case of a property.
    pub fn for_case(case: u32) -> Self {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. Unlike real proptest there is no shrinking, so a
/// strategy is just a deterministic function of the case RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy for any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

/// One erased branch of a [`Union`]: a closure producing a value.
pub type UnionBranch<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// A uniform choice among boxed branches (built by [`prop_oneof!`]).
pub struct Union<V> {
    branches: Vec<UnionBranch<V>>,
}

impl<V> std::fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Union({} branches)", self.branches.len())
    }
}

impl<V> Union<V> {
    /// Builds a union from its branches.
    pub fn new(branches: Vec<UnionBranch<V>>) -> Self {
        assert!(!branches.is_empty(), "prop_oneof! needs a branch");
        Union { branches }
    }

    /// Erases one strategy into a branch closure.
    pub fn branch<S>(s: S) -> UnionBranch<V>
    where
        S: Strategy<Value = V> + 'static,
    {
        Box::new(move |rng| s.generate(rng))
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.branches.len() as u64) as usize;
        (self.branches[i])(rng)
    }
}

/// Collection strategies (`prop::collection` in real proptest).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// A `Vec` of `size.start..size.end` elements of `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` built from up to `size.end - 1` generated elements
    /// (duplicates collapse, as in real proptest).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// The strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the tests `use proptest::prelude::*` for.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestRng,
    };

    /// Mirrors real proptest's `prelude::prop` module alias
    /// (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a property (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Union::branch($strat)),+])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::TestRng::for_case(case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case(0);
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let strat = crate::collection::vec(0u32..100, 1..20);
        let a: Vec<Vec<u32>> = (0..10)
            .map(|c| strat.generate(&mut TestRng::for_case(c)))
            .collect();
        let b: Vec<Vec<u32>> = (0..10)
            .map(|c| strat.generate(&mut TestRng::for_case(c)))
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself works end to end.
        #[test]
        fn macro_generates_cases(x in 0u8..10, ys in prop::collection::vec(0u64..5, 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(ys.len() < 4);
            prop_assert_eq!(ys.iter().filter(|&&y| y >= 5).count(), 0);
        }
    }

    proptest! {
        /// prop_oneof mixes branches of different concrete strategy types.
        #[test]
        fn oneof_mixes_branches(v in prop_oneof![
            (0u64..10).prop_map(|x| x as i64),
            (0u64..10).prop_map(|x| -(x as i64) - 1),
        ]) {
            prop_assert!((-10..10).contains(&v));
        }
    }
}
