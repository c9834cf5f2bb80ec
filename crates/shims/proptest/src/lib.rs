//! Offline stand-in for `proptest`: deterministic random testing with
//! proptest's call shape.
//!
//! Supports the subset this workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_recursive` / `boxed`, range and tuple and [`Just`](strategy::Just)
//! strategies, regex-literal string strategies (char classes, escapes,
//! `{m,n}` repetition, `\PC`), [`collection::vec`], the
//! [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] macros and [`ProptestConfig::with_cases`](test_runner::ProptestConfig::with_cases).
//!
//! Differences from real proptest: no shrinking (failing cases report
//! their seed instead) and case generation is seeded from the test name,
//! so runs are fully deterministic.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything a property test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::SmallRng;
    pub use rand::SeedableRng;

    /// FNV-1a over the test name: a stable per-test base seed.
    pub fn seed_for(name: &str, case: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Run each contained test over many generated cases. Mirrors
/// `proptest::proptest!`: an optional `#![proptest_config(..)]` header
/// followed by `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config = $cfg;
            for case in 0..u64::from(config.cases) {
                let seed = $crate::__rt::seed_for(stringify!($name), case);
                let mut __rng =
                    <$crate::__rt::SmallRng as $crate::__rt::SeedableRng>::seed_from_u64(seed);
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    let _: () = $body;
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!(
                        "proptest {} failed at case {case} (seed {seed:#x}): {message}",
                        stringify!($name)
                    );
                }
            }
        }
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Assert inside a `proptest!` body; failure reports the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {} — {}", stringify!($cond), format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left), stringify!($right), l, r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {:?} vs {:?} — {}",
                l, r, format!($($fmt)+),
            ));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l,
            ));
        }
    }};
}
