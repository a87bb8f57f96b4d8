//! Offline stand-in for `proptest`.
//!
//! Implements the slice of the proptest API this workspace's property
//! tests use, on top of the local `rand` shim:
//!
//! * [`Strategy`] with [`Strategy::prop_map`] / [`Strategy::prop_flat_map`]
//! * range strategies (`1usize..40`, `0.5f64..2.0`, `1..=n`, …),
//!   tuples of strategies up to arity 6, [`Just`], and
//!   [`collection::vec`]
//! * [`any`] for types implementing [`Arbitrary`]
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`)
//!   plus [`prop_assert!`] / [`prop_assert_eq!`]
//!
//! Unlike real proptest there is no shrinking and no failure
//! persistence: each test runs `cases` deterministic pseudo-random
//! cases (seeded per test from a fixed constant), and the first
//! failing case panics with its case index so it can be replayed by
//! re-running the test.

use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use rand::{Rng as __Rng, RngCore};

/// RNG handed to strategies; deterministic per (test, case index).
pub type TestRng = SmallRng;

/// Runner configuration; only `cases` is consumed.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Failure raised by `prop_assert!`-style macros inside a case body.
#[derive(Debug)]
pub struct TestCaseError {
    pub message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

/// A generator of values; the shim generates without shrinking.
pub trait Strategy {
    type Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn new_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn new_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// Output of [`Strategy::prop_filter`]; retries until the predicate
/// passes (panics after 1000 rejections like real proptest gives up).
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates: {}", self.whence);
    }
}

/// Strategy producing one fixed (cloneable) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range");
                if hi < <$t>::MAX {
                    rand::Rng::gen_range(rng, lo..hi + 1)
                } else {
                    rand::Rng::gen::<u64>(rng) as $t
                }
            }
        }
    )*};
}
int_range_strategy!(usize, u64, u32, i64, i32);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

/// Types with a canonical "anything" strategy, reachable via [`any`].
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

/// Strategy behind `any::<T>()` for primitive `T`.
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

macro_rules! arbitrary_prim {
    ($($t:ty => $gen:expr),* $(,)?) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $gen;
                f(rng)
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyStrategy { _marker: std::marker::PhantomData }
            }
        }
    )*};
}
arbitrary_prim! {
    bool => |rng| rand::Rng::gen::<bool>(rng),
    u32 => |rng| rand::Rng::gen::<u32>(rng),
    u64 => |rng| rand::Rng::gen::<u64>(rng),
    usize => |rng| rand::Rng::gen::<u64>(rng) as usize,
    f32 => |rng| rand::Rng::gen::<f32>(rng),
    f64 => |rng| rand::Rng::gen::<f64>(rng),
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Element-count specification for [`vec`](fn@vec): a fixed length or a
    /// half-open range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.hi - self.size.lo == 1 {
                self.size.lo
            } else {
                rand::Rng::gen_range(rng, self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Everything the `use proptest::prelude::*;` sites need in scope.
pub mod prelude {
    /// Re-export so `prop::collection::vec(..)` also resolves.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[doc(hidden)]
pub fn __seed_for_case(test_name: &str, case: u32) -> u64 {
    // FNV-1a over the test name, mixed with the case index, so every
    // test walks a distinct but reproducible stream.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ ((case as u64) << 1 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[doc(hidden)]
pub fn __run_case(
    test_name: &str,
    case: u32,
    body: impl FnOnce(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::seed_from_u64(__seed_for_case(test_name, case));
    if let Err(e) = body(&mut rng) {
        panic!(
            "proptest case {case} of `{test_name}` failed: {}",
            e.message
        );
    }
}

/// Asserts inside a proptest body, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// Inequality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` (both: `{:?}`)",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// The proptest entry macro: wraps `#[test]` functions whose arguments
/// are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    $crate::__run_case(stringify!($name), case, |__rng| {
                        $(let $arg = $crate::Strategy::new_value(&($strat), __rng);)*
                        $body
                        Ok(())
                    });
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 0.5f64..2.0, b in any::<bool>()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.5..2.0).contains(&y));
            prop_assert!(usize::from(b) <= 1);
        }

        #[test]
        fn vec_and_flat_map_compose(
            v in (1usize..=4).prop_flat_map(|n| prop::collection::vec(0i64..10, n * 2))
        ) {
            prop_assert!(v.len() >= 2 && v.len() <= 8);
            prop_assert!(v.len() % 2 == 0);
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn map_applies(d in (0usize..5).prop_map(|n| n * 3)) {
            prop_assert_eq!(d % 3, 0);
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(
            crate::__seed_for_case("t", 3),
            crate::__seed_for_case("t", 3)
        );
        assert_ne!(
            crate::__seed_for_case("t", 3),
            crate::__seed_for_case("t", 4)
        );
        assert_ne!(
            crate::__seed_for_case("a", 0),
            crate::__seed_for_case("b", 0)
        );
    }
}
