//! Single-wire superoperators over vectorized density matrices.
//!
//! A row-major `2^n × 2^n` density matrix is, viewed as one flat vector,
//! a `4^n`-amplitude register: flat index `r·2^n + c` has the **column**
//! bits `c` at positions `0‥n` and the **row** bits `r` at `n‥2n`. A
//! unitary `ρ → U ρ U†` on wire `q` then acts as `U` on bit `q + n` and
//! `conj(U)` on bit `q`, and a single-qubit channel `ρ → Σᵢ Kᵢ ρ Kᵢ†`
//! becomes one dense 4×4 matrix on the bit *pair* `(q, q + n)` — exactly
//! the shape [`crate::rows::Slab::dense4`] applies over lane slabs.
//!
//! This module builds those 4×4 matrices. The convention matches
//! [`Gate2`] and `Slab::dense4`: bit 0 of the 4×4 index is the **first**
//! mask (the column bit `q`), bit 1 the second (the row bit `q + n`), so
//! entry `[c + 2r][c' + 2r']` is the coefficient of `ρ[r', c']` in
//! `ρ'[r, c]` restricted to wire `q`.
//!
//! The compiled Noisy backend premultiplies each concrete gate with its
//! noise channel here — `Σᵢ (KᵢU) ⊗ conj(KᵢU)` is a single slab pass per
//! gate — instead of interpreting gate and Kraus operators separately
//! over full matrix clones.

use crate::complex::Complex64;
use crate::gate::{Gate1, Gate2};

/// Adds `A ⊗ conj(A)` (in the column-bit-0 / row-bit-1 convention) to
/// an accumulating 4×4.
fn accumulate(m: &mut [[Complex64; 4]; 4], a: &Gate1) {
    let g = a.matrix();
    for r in 0..2 {
        for c in 0..2 {
            for rp in 0..2 {
                for cp in 0..2 {
                    m[c + 2 * r][cp + 2 * rp] += g[r][rp] * g[c][cp].conj();
                }
            }
        }
    }
}

/// The superoperator of a unitary on one wire: `U ⊗ conj(U)`.
pub fn unitary_superop(u: &Gate1) -> Gate2 {
    let mut m = [[Complex64::ZERO; 4]; 4];
    accumulate(&mut m, u);
    Gate2::from_matrix(m)
}

/// The superoperator of a single-qubit channel: `Σᵢ Kᵢ ⊗ conj(Kᵢ)`.
pub fn kraus_superop(kraus: &[Gate1]) -> Gate2 {
    let mut m = [[Complex64::ZERO; 4]; 4];
    for k in kraus {
        accumulate(&mut m, k);
    }
    Gate2::from_matrix(m)
}

/// Gate followed by channel, fused: `Σᵢ (Kᵢ·U) ⊗ conj(Kᵢ·U)` — one
/// dense 4×4 per (gate, channel) pair, the prebind product of the
/// compiled Noisy backend.
pub fn gate_kraus_superop(u: &Gate1, kraus: &[Gate1]) -> Gate2 {
    let mut m = [[Complex64::ZERO; 4]; 4];
    for k in kraus {
        accumulate(&mut m, &k.matmul(u));
    }
    Gate2::from_matrix(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;
    use crate::noise::NoiseChannel;
    use crate::rows::Slab;

    /// A busy mixed test state: a few gates on `|0…0⟩⟨0…0|` plus one
    /// channel so off-diagonals and mixedness are both exercised.
    fn busy_rho(n: usize) -> DensityMatrix {
        let mut rho = DensityMatrix::zero(n);
        rho.apply_gate1(0, &Gate1::hadamard()).unwrap();
        rho.apply_gate1(1, &Gate1::rx(0.7)).unwrap();
        rho.apply_gate2(0, 1, &Gate2::cnot()).unwrap();
        rho.apply_gate1(n - 1, &Gate1::ry(-1.1)).unwrap();
        rho.apply_kraus1(0, &NoiseChannel::Depolarizing { p: 0.05 }.kraus_operators())
            .unwrap();
        rho
    }

    fn vectorize(rho: &DensityMatrix) -> Vec<Complex64> {
        let dim = rho.dim();
        (0..dim * dim)
            .map(|f| rho.element(f / dim, f % dim))
            .collect()
    }

    fn assert_close(flat: &[Complex64], rho: &DensityMatrix, label: &str) {
        let dim = rho.dim();
        for (f, got) in flat.iter().enumerate() {
            let want = rho.element(f / dim, f % dim);
            assert!(
                (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                "{label}: flat index {f}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn unitary_superop_matches_apply_gate1() {
        let n = 3;
        for q in 0..n {
            let rho = busy_rho(n);
            let mut flat = vectorize(&rho);
            let u = Gate1::u3(0.9, -0.3, 1.4);
            let sup = unitary_superop(&u);
            Slab::new(&mut flat, 1).dense4(1 << q, 1 << (q + n), sup.matrix());
            let mut want = rho;
            want.apply_gate1(q, &u).unwrap();
            assert_close(&flat, &want, "unitary");
        }
    }

    #[test]
    fn kraus_superop_matches_apply_kraus1() {
        let n = 3;
        for channel in [
            NoiseChannel::Depolarizing { p: 0.1 },
            NoiseChannel::BitFlip { p: 0.2 },
            NoiseChannel::AmplitudeDamping { gamma: 0.15 },
        ] {
            let kraus = channel.kraus_operators();
            for q in 0..n {
                let rho = busy_rho(n);
                let mut flat = vectorize(&rho);
                let sup = kraus_superop(&kraus);
                Slab::new(&mut flat, 1).dense4(1 << q, 1 << (q + n), sup.matrix());
                let mut want = rho;
                want.apply_kraus1(q, &kraus).unwrap();
                assert_close(&flat, &want, "kraus");
            }
        }
    }

    #[test]
    fn fused_gate_kraus_superop_matches_sequential_application() {
        let n = 2;
        let u = Gate1::rz(0.6);
        let kraus = NoiseChannel::Depolarizing { p: 0.08 }.kraus_operators();
        for q in 0..n {
            let rho = busy_rho(n);
            let mut flat = vectorize(&rho);
            let sup = gate_kraus_superop(&u, &kraus);
            Slab::new(&mut flat, 1).dense4(1 << q, 1 << (q + n), sup.matrix());
            let mut want = rho;
            want.apply_gate1(q, &u).unwrap();
            want.apply_kraus1(q, &kraus).unwrap();
            assert_close(&flat, &want, "fused");
        }
        // And the fused product equals the composition of the parts.
        let fused = gate_kraus_superop(&u, &kraus);
        let composed = kraus_superop(&kraus).matmul(&unitary_superop(&u));
        assert!(fused.approx_eq(&composed, 1e-14));
    }

    #[test]
    fn identity_channel_superop_is_identity() {
        let sup = kraus_superop(&[Gate1::identity()]);
        assert!(sup.approx_eq(&Gate2::identity(), 0.0));
    }
}
