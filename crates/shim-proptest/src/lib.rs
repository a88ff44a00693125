//! Hermetic in-tree subset of the `proptest` 1.x API.
//!
//! The workspace builds with no registry access, so this crate stands in
//! for crates-io `proptest`, implementing the surface the workspace's
//! property tests use:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header and
//!   multiple `fn name(pat in strategy, …) { … }` properties per block),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`], and [`test_runner::TestCaseError`] for helper
//!   functions that return `Result<(), TestCaseError>`,
//! * strategies: integer and float ranges, tuples, [`strategy::Just`],
//!   [`arbitrary::any`], [`collection::vec`], and
//!   [`Strategy::prop_map`](strategy::Strategy::prop_map).
//!
//! Inputs are drawn from a SplitMix64 stream seeded from the property's
//! full module path and the case index, so every run of every property is
//! **deterministic** — a failure message's case number is enough to
//! reproduce it exactly. The trade-off against the original crate is no
//! shrinking: failures report the raw case, not a minimized input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Test-case errors and run configuration.
pub mod test_runner {
    use std::fmt;

    /// Why a generated test case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property is false for this input: fail the test.
        Fail(String),
        /// The input does not satisfy a precondition: skip the case.
        Reject(String),
    }

    impl TestCaseError {
        /// A failing case with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejected (skipped) case with the given message.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(msg) => write!(f, "{msg}"),
                TestCaseError::Reject(msg) => write!(f, "rejected: {msg}"),
            }
        }
    }

    /// Run configuration: how many random cases each property executes.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The original crate's default case count.
            ProptestConfig { cases: 256 }
        }
    }
}

/// Value generation: the deterministic random source and the
/// [`Strategy`](strategy::Strategy) trait with its combinators.
pub mod strategy {
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// Deterministic random source for one test case: a SplitMix64 stream
    /// seeded from the property name and case index.
    #[derive(Debug, Clone)]
    pub struct Gen {
        state: u64,
    }

    impl Gen {
        /// The generator for case `case` of the property named `name`.
        pub fn for_case(name: &str, case: u64) -> Self {
            // FNV-1a over the name, mixed with the case index, so every
            // property and every case draws an independent stream.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Gen {
                state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform value in `[0, bound)`; 0 when `bound` is 0.
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                0
            } else {
                self.next_u64() % bound
            }
        }

        /// A uniform float in `[0, 1]`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64
        }
    }

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, gen: &mut Gen) -> Self::Value;

        /// A strategy applying `f` to every generated value.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, gen: &mut Gen) -> O {
            (self.f)(self.inner.generate(gen))
        }
    }

    /// A strategy producing one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _gen: &mut Gen) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),+) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn generate(&self, gen: &mut Gen) -> $ty {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(gen.below(span) as $ty)
                }
            }
            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, gen: &mut Gen) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = hi.wrapping_sub(lo) as u64;
                    if span == u64::MAX {
                        return gen.next_u64() as $ty;
                    }
                    lo.wrapping_add(gen.below(span + 1) as $ty)
                }
            }
        )+};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, gen: &mut Gen) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + gen.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, gen: &mut Gen) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty strategy range");
            lo + gen.unit_f64() * (hi - lo)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+);)+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, gen: &mut Gen) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.generate(gen),)+)
                }
            }
        )+};
    }

    tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F2);
    }

    /// The full-domain strategy behind [`any`](crate::arbitrary::any).
    pub struct Any<T> {
        pub(crate) _marker: PhantomData<T>,
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, gen: &mut Gen) -> T {
            T::arbitrary(gen)
        }
    }
}

/// `any::<T>()` — the whole-domain strategy for primitive types.
pub mod arbitrary {
    use crate::strategy::{Any, Gen};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(gen: &mut Gen) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($ty:ty),+) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(gen: &mut Gen) -> $ty {
                    gen.next_u64() as $ty
                }
            }
        )+};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(gen: &mut Gen) -> bool {
            gen.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(gen: &mut Gen) -> f64 {
            gen.unit_f64()
        }
    }

    /// A strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::{Gen, Strategy};
    use std::ops::{Range, RangeInclusive};

    /// A length range for [`vec`], converted from the same argument types
    /// the original crate accepts at our call sites.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start),
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end().saturating_add(1).max(*r.start()),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                lo: exact,
                hi: exact + 1,
            }
        }
    }

    /// The strategy [`vec`] returns.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, gen: &mut Gen) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + gen.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(gen)).collect()
        }
    }

    /// A `Vec` strategy drawing each element from `element` and the length
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Alias of this crate, so strategy paths read `prop::collection::vec`
    /// exactly as with the original dependency.
    pub use crate as prop;
}

/// Declares deterministic property tests. As with the original crate, each
/// property carries its own `#[test]` attribute; the macro passes
/// attributes through and adds none, so a property is registered once.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: expands each property fn, with
/// its own attributes (`#[test]` among them), into a fn running the
/// configured number of deterministic cases.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __gen = $crate::strategy::Gen::for_case(__name, __case as u64);
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __gen);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        // xtask-allow: no-panic (a failing property fails its test by panicking)
                        ::std::panic!(
                            "property {} failed at deterministic case {}/{}: {}",
                            __name,
                            __case,
                            __config.cases,
                            __msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl!(($cfg); $($rest)*);
    };
}

/// Fails the current test case (returns `Err(TestCaseError::Fail)`) if the
/// condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current test case if the two expressions are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "{}\n  left: {:?}\n right: {:?}",
            ::std::format!($($fmt)+),
            __l,
            __r
        );
    }};
}

/// Fails the current test case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(__l != __r, "{}\n  both: {:?}", ::std::format!($($fmt)+), __l);
    }};
}

/// Skips the current test case (returns `Err(TestCaseError::Reject)`) if
/// the precondition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("precondition: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges, tuples, vec, prop_map, and any all generate in-domain
        /// values, and the macros thread through.
        #[test]
        fn shim_surface_works(
            a in 0usize..10,
            b in -5i64..5,
            pair in (0u32..4, 0.0f64..=1.0),
            mut xs in prop::collection::vec(any::<u8>(), 0..20),
            wrapped in (1u16..7).prop_map(|x| x * 2),
        ) {
            prop_assert!(a < 10);
            prop_assert!((-5..5).contains(&b));
            prop_assert!(pair.0 < 4, "pair.0 = {}", pair.0);
            prop_assert!((0.0..=1.0).contains(&pair.1));
            prop_assert!(xs.len() < 20);
            xs.sort_unstable();
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(wrapped % 2, 0);
            prop_assert_ne!(wrapped, 1);
            prop_assume!(a != usize::MAX);
        }

        /// The same name and case index always draw the same values.
        #[test]
        fn generation_is_deterministic(seed in any::<u64>()) {
            let mut g1 = crate::strategy::Gen::for_case("x", seed);
            let mut g2 = crate::strategy::Gen::for_case("x", seed);
            prop_assert_eq!(g1.next_u64(), g2.next_u64());
        }
    }
}
