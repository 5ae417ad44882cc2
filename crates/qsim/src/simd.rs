//! Runtime SIMD dispatch for the gate kernels.
//!
//! The gate kernels — the [`crate::rows::Slab`] methods, which the
//! wire-index functions of [`crate::apply`] call with one lane — come in
//! two implementations: a portable scalar body and an AVX2 wide body
//! (`x86_64` only, compiled behind `#[target_feature]` and selected at
//! runtime with `is_x86_feature_detected!`). Both walk the same runs; only
//! the per-element arithmetic is written twice. This module owns the
//! selection.
//!
//! ## Bit-exactness contract
//!
//! The wide kernels are **bit-identical** to the scalar ones, not merely
//! close. They use separate multiply and add instructions (no FMA
//! contraction), evaluate exactly the same expression per element in the
//! same association order, and rely only on IEEE-754 identities the scalar
//! code already depends on (`x·(−s) ≡ −(x·s)`, `a + (−t) ≡ a − t`,
//! commutativity of `+`/`·`). Every golden fingerprint and `assert_eq`
//! equivalence test in the workspace therefore passes identically under
//! either path; `qsim/tests/simd_parity.rs` asserts the equivalence
//! kernel by kernel, and a naive per-lane reference in the `rows` tests
//! pins both paths index by index.
//!
//! ## Selection
//!
//! The level is decided once, on first use, from the `QSIM_SIMD`
//! environment variable:
//!
//! * `scalar` — force the scalar path (useful to A/B results and perf);
//! * `avx2` / `wide` — request the AVX2 path (silently falls back to
//!   scalar when the CPU lacks AVX2);
//! * `auto` / unset / anything else — detect (AVX2 when available).
//!
//! Tests and benches may override the decision with [`force`], which is
//! safe precisely because both paths produce identical bits.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the dispatcher selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference implementation.
    Scalar,
    /// AVX2 256-bit kernels (4 × f64 per op), `x86_64` only.
    Avx2,
}

/// 0 = undecided, 1 = scalar, 2 = AVX2.
static LEVEL: AtomicU8 = AtomicU8::new(0);

#[inline]
fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
    }
}

/// Parses a `QSIM_SIMD` value; `None` means "auto".
fn parse_env(value: &str) -> Option<SimdLevel> {
    match value.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(SimdLevel::Scalar),
        "avx2" | "wide" => Some(SimdLevel::Avx2),
        _ => None,
    }
}

#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> SimdLevel {
    let requested = std::env::var("QSIM_SIMD").ok().and_then(|v| parse_env(&v));
    match requested {
        Some(SimdLevel::Scalar) => SimdLevel::Scalar,
        Some(SimdLevel::Avx2) | None => {
            if avx2_available() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
    }
}

/// The active kernel implementation. Decided once (env override + CPU
/// detection) and cached; one relaxed atomic load afterwards.
#[inline]
pub fn level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        _ => {
            let detected = detect();
            // Racing initialisers compute the same value; last store wins.
            LEVEL.store(encode(detected), Ordering::Relaxed);
            detected
        }
    }
}

/// Forces the dispatch level, overriding env/detection. Intended for
/// tests and benches that exercise both paths in one process; requesting
/// [`SimdLevel::Avx2`] on a CPU without AVX2 is ignored (stays scalar).
pub fn force(level: SimdLevel) {
    let effective = match level {
        SimdLevel::Avx2 if !avx2_available() => SimdLevel::Scalar,
        other => other,
    };
    LEVEL.store(encode(effective), Ordering::Relaxed);
}

/// Re-runs env-variable + CPU detection, discarding any [`force`].
/// Lets tests exercise the `QSIM_SIMD` parsing path explicitly.
pub fn reinit_from_env() -> SimdLevel {
    let detected = detect();
    LEVEL.store(encode(detected), Ordering::Relaxed);
    detected
}

/// `true` when the wide path can run on this machine (used by the parity
/// tests to decide whether scalar-vs-wide comparison is meaningful).
pub fn wide_supported() -> bool {
    avx2_available()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_env_values() {
        assert_eq!(parse_env("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(parse_env("SCALAR"), Some(SimdLevel::Scalar));
        assert_eq!(parse_env(" avx2 "), Some(SimdLevel::Avx2));
        assert_eq!(parse_env("wide"), Some(SimdLevel::Avx2));
        assert_eq!(parse_env("auto"), None);
        assert_eq!(parse_env(""), None);
        assert_eq!(parse_env("bogus"), None);
    }

    #[test]
    fn force_round_trips() {
        let before = level();
        force(SimdLevel::Scalar);
        assert_eq!(level(), SimdLevel::Scalar);
        if wide_supported() {
            force(SimdLevel::Avx2);
            assert_eq!(level(), SimdLevel::Avx2);
        }
        force(before);
    }

    #[test]
    fn env_override_is_honoured() {
        // Exercise the forced-scalar env override end to end: set the
        // variable, re-run detection, and confirm the dispatcher obeys.
        let before = level();
        let saved = std::env::var("QSIM_SIMD").ok();
        std::env::set_var("QSIM_SIMD", "scalar");
        assert_eq!(reinit_from_env(), SimdLevel::Scalar);
        assert_eq!(level(), SimdLevel::Scalar);
        match saved {
            Some(v) => std::env::set_var("QSIM_SIMD", v),
            None => std::env::remove_var("QSIM_SIMD"),
        }
        force(before);
    }
}
