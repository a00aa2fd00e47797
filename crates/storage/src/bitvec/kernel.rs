//! The three word kernels under [`BitVec`](super::BitVec) — intersect and
//! count, intersect into a buffer, count — and the choice of which machine
//! instructions they run.
//!
//! Each kernel has **one** body ([`Kernel::run`]), a plain loop over the
//! words around `u64::count_ones`.  What that compiles to depends on the
//! instruction set the *enclosing function* may use, so the body is
//! `#[inline(always)]` and instantiated three times:
//!
//! | tier | compiled with | `count_ones` becomes |
//! |---|---|---|
//! | `portable` | the target's baseline | x86-64: SSE2 bit-slicing (baseline x86-64 has no `POPCNT`); aarch64: NEON `cnt`, already baseline |
//! | `popcnt` | `popcnt` | one scalar `popcnt` per word |
//! | `avx512-vpopcntdq` | `avx512f,avx512vpopcntdq,popcnt` | `vpandq` + `vpopcntq` + `vpaddq` per eight words (four such vectors a trip on long rows), scalar `popcnt` for the last few words |
//!
//! The loops are deliberately the simplest form: that is what LLVM's loop
//! vectoriser turns into the table above on every tier.  A hand-unrolled
//! body (four or eight accumulators over `chunks_exact`) leaves the work to
//! the SLP vectoriser, which — with scalar `popcnt` available and cheap —
//! kept the AVX-512 instantiation scalar.
//!
//! [`Tier::supported`] asks the CPU (`is_x86_feature_detected!`) and
//! [`Tier::selected`] keeps the first answer for the life of the process;
//! there is nothing to configure, and a host with neither extension — or any
//! other architecture, or Miri — runs the portable instantiation, which is
//! also what the tier test in `bitvec.rs` holds the others to.  Asking on
//! every call instead (four cached loads and bit tests in front of a
//! 12–20 ns kernel, 14 019 times a `dense_full` mine) measured 5–8 % of
//! `tx_per_s` slower, and a table of function pointers no faster than this
//! (ARCHITECTURE § "Execution engine", *Kernel tiers*).
//!
//! # Why this module contains `unsafe`
//!
//! Calling a `#[target_feature]` function from one compiled without the
//! feature is `unsafe`: executing an instruction the CPU lacks is undefined
//! behaviour.  That is the only obligation here — the bodies are safe Rust —
//! and it is discharged by construction: a [`Tier`] can only be obtained
//! from [`Tier::supported`], which makes one after the feature tests for it
//! passed, so the two `unsafe` calls in [`Tier::run`] are reached only on a
//! CPU that has the features they enable.  The crate is
//! `#![deny(unsafe_code)]` with the one `#[allow]` on that function; the
//! numbers that pay for it (`dense_full` `tx_per_s`, ns per screen) and how to
//! regenerate them are in ARCHITECTURE § "Execution engine", *Kernel tiers*.

use std::sync::OnceLock;

/// One of the three word kernels, as a value the dispatch can hand to
/// whichever instantiation it picks.
pub(super) trait Kernel {
    /// What the kernel returns.
    type Out;

    /// The kernel's one body.  Implementations are `#[inline(always)]` so
    /// the body is compiled with the instruction set of the function it is
    /// inlined into.
    fn run(self) -> Self::Out;
}

/// Popcount of `a[i] & b[i]` over two equal-length word slices.
pub(super) struct AndCount<'a>(pub &'a [u64], pub &'a [u64]);

impl Kernel for AndCount<'_> {
    type Out = u64;

    #[inline(always)]
    fn run(self) -> u64 {
        let Self(a, b) = self;
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| popcount(x & y)).sum()
    }
}

/// Fused intersection `dst[i] = a[i] & b[i]` over three equal-length word
/// slices, returning the popcount of the result.
pub(super) struct AndInto<'a>(pub &'a mut [u64], pub &'a [u64], pub &'a [u64]);

impl Kernel for AndInto<'_> {
    type Out = u64;

    #[inline(always)]
    fn run(self) -> u64 {
        let Self(dst, a, b) = self;
        debug_assert_eq!(dst.len(), a.len());
        debug_assert_eq!(dst.len(), b.len());
        let mut count = 0;
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x & y;
            count += popcount(*d);
        }
        count
    }
}

/// Popcount of a word slice.
pub(super) struct CountOnes<'a>(pub &'a [u64]);

impl Kernel for CountOnes<'_> {
    type Out = u64;

    #[inline(always)]
    fn run(self) -> u64 {
        self.0.iter().map(|&w| popcount(w)).sum()
    }
}

#[inline(always)]
fn popcount(word: u64) -> u64 {
    u64::from(word.count_ones())
}

/// The portable instantiation: the only one off x86-64, the fallback on it.
/// Out of line on x86-64 so that [`run`] stays a load, a compare and a call —
/// inlined, its SSE2 body makes every caller spill registers for a path the
/// CPU never takes.
#[cfg_attr(target_arch = "x86_64", inline(never))]
#[cfg_attr(not(target_arch = "x86_64"), inline)]
fn run_portable<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn run_popcnt<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Instantiation {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    Portable,
}

/// An instantiation of the kernel bodies **that the running CPU can
/// execute**: the field is private and [`Tier::supported`] — the feature
/// tests — is the only place a `Tier` is made, which is what lets
/// [`Tier::run`] call into `#[target_feature]` code without asking again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Tier(Instantiation);

impl Tier {
    /// Every tier the running CPU supports, fastest first.
    pub(super) fn supported() -> impl Iterator<Item = Tier> {
        use Instantiation::*;
        [
            #[cfg(target_arch = "x86_64")]
            (
                Avx512,
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                    && std::arch::is_x86_feature_detected!("popcnt"),
            ),
            #[cfg(target_arch = "x86_64")]
            (Popcnt, std::arch::is_x86_feature_detected!("popcnt")),
            (Portable, true),
        ]
        .into_iter()
        .filter_map(|(instantiation, detected)| detected.then_some(Tier(instantiation)))
    }

    /// The tier [`run`] dispatches to: the first of [`Tier::supported`],
    /// resolved on first use.
    #[inline]
    pub(super) fn selected() -> Tier {
        static SELECTED: OnceLock<Tier> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            Tier::supported()
                .next()
                .expect("the portable tier is always supported")
        })
    }

    /// The name [`kernel_tier`](super::kernel_tier) reports.
    pub(super) fn name(self) -> &'static str {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Instantiation::Avx512 => "avx512-vpopcntdq",
            #[cfg(target_arch = "x86_64")]
            Instantiation::Popcnt => "popcnt",
            Instantiation::Portable => "portable",
        }
    }

    /// Runs `kernel` on exactly this tier.
    #[allow(unsafe_code)]
    #[inline]
    pub(super) fn run<K: Kernel>(self, kernel: K) -> K::Out {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Tier` holding `Avx512` is only made by
            // `Tier::supported`, after `is_x86_feature_detected!` returned
            // true for `avx512f`, `avx512vpopcntdq` and `popcnt` — every
            // feature `run_avx512` enables — on this CPU.
            Instantiation::Avx512 => unsafe { run_avx512(kernel) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Tier` holding `Popcnt` is only made by
            // `Tier::supported`, after `is_x86_feature_detected!("popcnt")`
            // — the one feature `run_popcnt` enables — returned true on
            // this CPU.
            Instantiation::Popcnt => unsafe { run_popcnt(kernel) },
            Instantiation::Portable => run_portable(kernel),
        }
    }
}

/// Runs `kernel` on the fastest tier the CPU supports.
#[inline]
pub(super) fn run<K: Kernel>(kernel: K) -> K::Out {
    Tier::selected().run(kernel)
}
