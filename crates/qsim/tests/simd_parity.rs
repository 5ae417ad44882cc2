//! Scalar ↔ wide kernel parity suite.
//!
//! The AVX2 kernels are designed to be **bit-identical** to the scalar
//! ones (see `qmarl_qsim::simd` for the argument), so these tests assert
//! exact equality — strictly stronger than the ≤ 1e-12 agreement the
//! acceptance bar asks for. Every gate kind is exercised on every qubit
//! position (and every ordered wire pair) for registers of 1–10 qubits.
//!
//! The tests force the dispatch level through `simd::force`; because both
//! paths produce identical bits, concurrently running tests observe no
//! difference whichever level happens to be active.

use qmarl_qsim::apply::*;
use qmarl_qsim::complex::Complex64;
use qmarl_qsim::gate::{Gate1, Gate2};
use qmarl_qsim::simd::{self, SimdLevel};

/// Deterministic, fully entangled, phase-rich test state.
fn busy_state(n: usize) -> Vec<Complex64> {
    let mut amps = vec![Complex64::ZERO; 1 << n];
    amps[0] = Complex64::ONE;
    simd::force(SimdLevel::Scalar);
    for w in 0..n {
        apply_gate1(
            &mut amps,
            w,
            &Gate1::u3(0.41 + 0.29 * w as f64, 0.23 - 0.11 * w as f64, -0.67),
        );
    }
    for w in 1..n {
        apply_cnot(&mut amps, w - 1, w);
        apply_rz(&mut amps, w, 0.17 * w as f64 + 0.05);
    }
    amps
}

fn norm_sqr(amps: &[Complex64]) -> f64 {
    amps.iter().map(|a| a.norm_sqr()).sum()
}

/// Runs `op` once under forced scalar and once under forced AVX2 and
/// asserts the results are bit-identical. No-op on machines without AVX2.
fn assert_parity(n: usize, label: &str, op: impl Fn(&mut Vec<Complex64>)) {
    if !simd::wide_supported() {
        return;
    }
    let base = busy_state(n);
    let mut scalar = base.clone();
    simd::force(SimdLevel::Scalar);
    op(&mut scalar);

    let mut wide = base.clone();
    simd::force(SimdLevel::Avx2);
    op(&mut wide);
    simd::force(SimdLevel::Scalar);

    assert_eq!(scalar, wide, "scalar/wide divergence: {label} (n={n})");
    // Determinism of the wide path: a second run must reproduce itself.
    let mut wide2 = base.clone();
    simd::force(SimdLevel::Avx2);
    op(&mut wide2);
    simd::force(SimdLevel::Scalar);
    assert_eq!(wide, wide2, "wide path non-deterministic: {label} (n={n})");
}

#[test]
fn single_qubit_kernels_bit_identical() {
    let theta = 0.83_f64;
    let (s, c) = (theta / 2.0).sin_cos();
    for n in 1..=10usize {
        for q in 0..n {
            assert_parity(n, "gate1/u3", |a| {
                apply_gate1(a, q, &Gate1::u3(0.9, -0.3, 1.7));
            });
            assert_parity(n, "gate1/hadamard", |a| {
                apply_gate1(a, q, &Gate1::hadamard());
            });
            assert_parity(n, "rx_sc", |a| apply_rx_sc(a, q, s, c));
            assert_parity(n, "ry_sc", |a| apply_ry_sc(a, q, s, c));
            assert_parity(n, "rz_sc", |a| apply_rz_sc(a, q, s, c));
            // Independent, non-conjugate phases on the two bit classes.
            assert_parity(n, "phases", |a| {
                apply_phases(a, None, q, (0.6, -0.8), (-0.28, 0.96))
            });
            assert_parity(n, "rx", |a| apply_rx(a, q, theta));
            assert_parity(n, "ry", |a| apply_ry(a, q, theta));
            assert_parity(n, "rz", |a| apply_rz(a, q, theta));
        }
    }
}

#[test]
fn two_qubit_kernels_bit_identical() {
    let theta = -1.21_f64;
    let (s, c) = (theta / 2.0).sin_cos();
    for n in 2..=10usize {
        for qa in 0..n {
            for qb in 0..n {
                if qa == qb {
                    continue;
                }
                assert_parity(n, "gate2/crx", |a| {
                    apply_gate2(a, qa, qb, &Gate2::crx(0.77));
                });
                assert_parity(n, "gate2/cnot", |a| {
                    apply_gate2(a, qa, qb, &Gate2::cnot());
                });
                assert_parity(n, "controlled_gate1", |a| {
                    apply_controlled_gate1(a, qa, qb, &Gate1::u3(0.4, 0.8, -0.6));
                });
                assert_parity(n, "crx_sc", |a| apply_crx_sc(a, qa, qb, s, c));
                assert_parity(n, "cry_sc", |a| apply_cry_sc(a, qa, qb, s, c));
                assert_parity(n, "crz_sc", |a| apply_crz_sc(a, qa, qb, s, c));
                assert_parity(n, "controlled phases", |a| {
                    apply_phases(a, Some(qa), qb, (0.6, -0.8), (-0.28, 0.96))
                });
                assert_parity(n, "cnot", |a| apply_cnot(a, qa, qb));
                assert_parity(n, "cz", |a| apply_cz(a, qa, qb));
            }
        }
    }
}

#[test]
fn toffoli_bit_identical() {
    for n in 3..=8usize {
        for c1 in 0..n {
            for c2 in 0..n {
                for t in 0..n {
                    if c1 == c2 || c1 == t || c2 == t {
                        continue;
                    }
                    assert_parity(n, "toffoli", |a| apply_toffoli(a, c1, c2, t));
                }
            }
        }
    }
}

#[test]
fn wide_path_preserves_norm() {
    if !simd::wide_supported() {
        return;
    }
    simd::force(SimdLevel::Avx2);
    for n in 1..=10usize {
        let mut amps = busy_state(n);
        simd::force(SimdLevel::Avx2);
        for q in 0..n {
            apply_gate1(&mut amps, q, &Gate1::u3(1.1 * q as f64 + 0.2, 0.4, -0.9));
            apply_rx(&mut amps, q, 0.3 + q as f64);
            apply_ry(&mut amps, q, -0.7);
            apply_rz(&mut amps, q, 1.9);
        }
        for q in 1..n {
            apply_cnot(&mut amps, q - 1, q);
            apply_crx(&mut amps, q - 1, q, 0.5);
            apply_cry(&mut amps, 0, q, -1.3);
            apply_crz(&mut amps, q, 0, 2.2);
            apply_cz(&mut amps, q - 1, q);
        }
        assert!(
            (norm_sqr(&amps) - 1.0).abs() < 1e-12,
            "norm drift at n={n}: {}",
            norm_sqr(&amps)
        );
    }
    simd::force(SimdLevel::Scalar);
}

#[test]
fn forced_scalar_env_override_is_exercised() {
    // The env override is what CI's forced-scalar job relies on: set it,
    // re-run detection, and verify both the reported level and an actual
    // kernel result computed under it.
    let saved = std::env::var("QSIM_SIMD").ok();
    std::env::set_var("QSIM_SIMD", "scalar");
    assert_eq!(simd::reinit_from_env(), SimdLevel::Scalar);
    let mut amps = busy_state(4);
    // busy_state leaves the level forced to scalar; re-run env detection
    // to prove the env path (not force) selects the scalar kernels.
    assert_eq!(simd::reinit_from_env(), SimdLevel::Scalar);
    apply_rx(&mut amps, 2, 0.9);
    assert!((norm_sqr(&amps) - 1.0).abs() < 1e-12);
    match saved {
        Some(v) => std::env::set_var("QSIM_SIMD", v),
        None => std::env::remove_var("QSIM_SIMD"),
    }
    simd::reinit_from_env();
}
