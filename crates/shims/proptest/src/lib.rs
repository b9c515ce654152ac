//! In-tree shim for the subset of the `proptest` API the workspace's
//! property tests use: range / `any` / tuple / mapped / vec strategies, the
//! `proptest!` test-block macro, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Sampling is plain seeded-random (no shrinking, no persistence): each
//! `#[test]` inside `proptest!` runs `PROPTEST_CASES` (default 48) cases
//! from a fixed per-test seed, so failures are reproducible run-to-run.
//! `PROPTEST_SEED` (a `u64`), when set, is mixed into every test's seed
//! to draw a different stream; unset, the stream is the fixed one. A
//! failing case prints its test name, case index and `PROPTEST_SEED`;
//! re-running with the same environment reproduces the same inputs.

use rand::rngs::SmallRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::Range;

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// Number of cases per property (env `PROPTEST_CASES`, default 48).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// The optional stream selector (env `PROPTEST_SEED`).
pub fn seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse().ok())
}

/// Deterministic per-test RNG.
pub fn rng_for(test_name: &str) -> TestRng {
    // FNV-1a over the test name (then the seed's bytes, if one is set)
    // so distinct properties get distinct (but stable) streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let seed_bytes = seed().map(u64::to_le_bytes);
    for b in test_name.bytes().chain(seed_bytes.into_iter().flatten()) {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    SmallRng::seed_from_u64(h)
}

/// Names the running case if it panics: held across one case's body.
pub struct CaseGuard {
    /// The property's name.
    pub test: &'static str,
    /// The case index.
    pub case: usize,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let seed = seed().map_or_else(|| "unset".to_string(), |s| s.to_string());
            eprintln!(
                "proptest: {} failed at case {} (PROPTEST_SEED={seed})",
                self.test, self.case
            );
        }
    }
}

/// A value generator.
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Mapped strategy (see [`Strategy::prop_map`]).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T: SampleUniform + rand::One> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.random_range(self.clone())
    }
}

/// A constant strategy (`proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Full-domain values for `any::<T>()`.
pub trait Arbitrary: Sized {
    /// Draws one value from the type's whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.random::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// `any::<T>()` — samples the full domain of `T`.
pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<A>(std::marker::PhantomData<A>);

impl<A: Arbitrary> Strategy for AnyStrategy<A> {
    type Value = A;
    fn sample(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// `vec(element, len_range)` — vectors of sampled length.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// One-stop imports, as in real proptest.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Arbitrary, Just, Strategy};
}

/// `assert!` that reports the failing case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// `assert_eq!` that reports the failing case index.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// `assert_ne!` counterpart.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Declares property tests: each inner `fn` runs [`cases`] sampled cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$attr:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let mut __rng = $crate::rng_for(stringify!($name));
            for __case in 0..$crate::cases() {
                let __guard = $crate::CaseGuard { test: stringify!($name), case: __case };
                $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
                drop(__guard);
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(a in 1u32..10, (b, c) in (0u8..4, any::<bool>())) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(b < 4, "b = {b}, c = {c}");
        }

        #[test]
        fn mapped_vecs(v in crate::collection::vec(0u64..100, 1..8).prop_map(|mut v| { v.sort_unstable(); v })) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
