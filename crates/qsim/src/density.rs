//! The density-matrix backend: mixed states for NISQ noise modelling.
//!
//! The paper motivates its state-encoding design by the growth of quantum
//! errors with register size in the NISQ era, and names noisy execution on
//! real quantum clouds as future work. This backend makes that mechanism
//! simulable: a [`DensityMatrix`] evolves under the same gate set as
//! [`crate::state::StateVector`] but additionally supports
//! completely-positive trace-preserving channels via Kraus operators
//! (see [`crate::noise`]).

use crate::complex::Complex64;
use crate::error::QsimError;
use crate::gate::{Gate1, Gate2};
use crate::state::StateVector;

/// A mixed `n`-qubit state: a `2^n × 2^n` Hermitian, unit-trace matrix,
/// stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or too large to simulate (≥ 14, since
    /// the density matrix is quadratically bigger than a statevector).
    pub fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "register must have at least one qubit");
        assert!(
            n_qubits < 14,
            "density matrix of {n_qubits} qubits is too large"
        );
        let dim = 1usize << n_qubits;
        let mut data = vec![Complex64::ZERO; dim * dim];
        data[0] = Complex64::ONE;
        DensityMatrix {
            n_qubits,
            dim,
            data,
        }
    }

    /// The rank-one density matrix `|ψ⟩⟨ψ|` of a pure state.
    pub fn from_state_vector(psi: &StateVector) -> Self {
        let dim = psi.len();
        let mut data = vec![Complex64::ZERO; dim * dim];
        for (r, ar) in psi.amplitudes().iter().enumerate() {
            for (c, ac) in psi.amplitudes().iter().enumerate() {
                data[r * dim + c] = *ar * ac.conj();
            }
        }
        DensityMatrix {
            n_qubits: psi.n_qubits(),
            dim,
            data,
        }
    }

    /// Builds a density matrix from its row-major flat data — the
    /// vectorized form the superoperator backend evolves (index bits
    /// `0‥n` are the column, bits `n‥2n` the row; see
    /// [`crate::superop`]). No Hermiticity or trace check is performed:
    /// the caller owns the physicality of the state.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 4^n_qubits` or the register size is
    /// outside the bounds of [`DensityMatrix::zero`].
    pub fn from_flat(n_qubits: usize, data: Vec<Complex64>) -> Self {
        assert!(n_qubits > 0, "register must have at least one qubit");
        assert!(
            n_qubits < 14,
            "density matrix of {n_qubits} qubits is too large"
        );
        let dim = 1usize << n_qubits;
        assert_eq!(
            data.len(),
            dim * dim,
            "flat density data must hold dim² elements"
        );
        DensityMatrix {
            n_qubits,
            dim,
            data,
        }
    }

    /// The maximally mixed state `I / 2^n`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let mut dm = DensityMatrix::zero(n_qubits);
        let dim = dm.dim;
        dm.data.fill(Complex64::ZERO);
        let w = 1.0 / dim as f64;
        for i in 0..dim {
            dm.data[i * dim + i] = Complex64::from_real(w);
        }
        dm
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Matrix dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Mutable view of the row-major flat data (the layout of
    /// [`DensityMatrix::from_flat`]), which the superoperator backend
    /// evolves in place. Callers own the physicality of the result.
    #[inline]
    pub fn flat_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// The matrix element `ρ[r][c]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn element(&self, r: usize, c: usize) -> Complex64 {
        assert!(r < self.dim && c < self.dim);
        self.data[r * self.dim + c]
    }

    /// The trace (1 for a valid state).
    pub fn trace(&self) -> Complex64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i]).sum()
    }

    /// The purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for the maximally
    /// mixed state. This is the quantity the noise ablation tracks.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_{r,c} ρ_{rc} ρ_{cr}; ρ is Hermitian so ρ_{cr} = ρ_{rc}*.
        self.data.iter().map(|e| e.norm_sqr()).sum()
    }

    fn check_qubit(&self, q: usize) -> Result<(), QsimError> {
        if q >= self.n_qubits {
            Err(QsimError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies a single-qubit unitary: `ρ → U ρ U†`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn apply_gate1(&mut self, q: usize, gate: &Gate1) -> Result<(), QsimError> {
        self.check_qubit(q)?;
        let dim = self.dim;
        // Left-multiply by U: treat each column as a statevector over rows.
        for c in 0..dim {
            let mut col: Vec<Complex64> = (0..dim).map(|r| self.data[r * dim + c]).collect();
            crate::apply::apply_gate1(&mut col, q, gate);
            for (r, v) in col.into_iter().enumerate() {
                self.data[r * dim + c] = v;
            }
        }
        // Right-multiply by U†: rows transform with the conjugate matrix,
        // since (ρU†)_{rc} = Σ_k ρ_{rk} (U†)_{kc} = Σ_k ρ_{rk} conj(U_{ck}).
        let conj = conj_gate1(gate);
        for r in 0..dim {
            let row = &mut self.data[r * dim..(r + 1) * dim];
            crate::apply::apply_gate1(row, q, &conj);
        }
        Ok(())
    }

    /// Applies a two-qubit unitary: `ρ → U ρ U†`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] or [`QsimError::DuplicateQubit`].
    pub fn apply_gate2(&mut self, qa: usize, qb: usize, gate: &Gate2) -> Result<(), QsimError> {
        self.check_qubit(qa)?;
        self.check_qubit(qb)?;
        if qa == qb {
            return Err(QsimError::DuplicateQubit { qubit: qa });
        }
        let dim = self.dim;
        for c in 0..dim {
            let mut col: Vec<Complex64> = (0..dim).map(|r| self.data[r * dim + c]).collect();
            crate::apply::apply_gate2(&mut col, qa, qb, gate);
            for (r, v) in col.into_iter().enumerate() {
                self.data[r * dim + c] = v;
            }
        }
        let conj = conj_gate2(gate);
        for r in 0..dim {
            let row = &mut self.data[r * dim..(r + 1) * dim];
            crate::apply::apply_gate2(row, qa, qb, &conj);
        }
        Ok(())
    }

    /// Applies a quantum channel given by single-qubit Kraus operators
    /// `{K_i}` on wire `q`: `ρ → Σ_i K_i ρ K_i†`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn apply_kraus1(&mut self, q: usize, kraus: &[Gate1]) -> Result<(), QsimError> {
        self.check_qubit(q)?;
        let dim = self.dim;
        let mut acc = vec![Complex64::ZERO; dim * dim];
        for k in kraus {
            let mut term = self.data.clone();
            // K ρ
            for c in 0..dim {
                let mut col: Vec<Complex64> = (0..dim).map(|r| term[r * dim + c]).collect();
                crate::apply::apply_gate1(&mut col, q, k);
                for (r, v) in col.into_iter().enumerate() {
                    term[r * dim + c] = v;
                }
            }
            // (K ρ) K†
            let conj = conj_gate1(k);
            for r in 0..dim {
                let row = &mut term[r * dim..(r + 1) * dim];
                crate::apply::apply_gate1(row, q, &conj);
            }
            for (a, t) in acc.iter_mut().zip(&term) {
                *a += *t;
            }
        }
        self.data = acc;
        Ok(())
    }

    /// The expectation `Tr(ρ Z_q)`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn expectation_z(&self, q: usize) -> Result<f64, QsimError> {
        self.check_qubit(q)?;
        let mask = 1usize << q;
        let mut acc = 0.0;
        for i in 0..self.dim {
            let sign = if i & mask == 0 { 1.0 } else { -1.0 };
            acc += sign * self.data[i * self.dim + i].re;
        }
        Ok(acc)
    }

    /// All per-wire `⟨Z⟩` readouts.
    pub fn expectation_z_all(&self) -> Vec<f64> {
        (0..self.n_qubits)
            .map(|q| {
                self.expectation_z(q)
                    .expect("wire in range by construction")
            })
            .collect()
    }

    /// The fidelity `⟨ψ|ρ|ψ⟩` against a pure reference state.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitCountMismatch`] for differing widths.
    pub fn fidelity_pure(&self, psi: &StateVector) -> Result<f64, QsimError> {
        if psi.n_qubits() != self.n_qubits {
            return Err(QsimError::QubitCountMismatch {
                expected: self.n_qubits,
                actual: psi.n_qubits(),
            });
        }
        let mut acc = Complex64::ZERO;
        for (r, ar) in psi.amplitudes().iter().enumerate() {
            for (c, ac) in psi.amplitudes().iter().enumerate() {
                acc += ar.conj() * self.data[r * self.dim + c] * *ac;
            }
        }
        Ok(acc.re)
    }

    /// Diagonal of ρ: the Born-rule probability of each basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re)
            .collect()
    }
}

/// Element-wise conjugate of a 2×2 gate (not the adjoint).
fn conj_gate1(g: &Gate1) -> Gate1 {
    let m = g.matrix();
    Gate1::from_matrix([
        [m[0][0].conj(), m[0][1].conj()],
        [m[1][0].conj(), m[1][1].conj()],
    ])
}

/// Element-wise conjugate of a 4×4 gate (not the adjoint).
fn conj_gate2(g: &Gate2) -> Gate2 {
    let m = g.matrix();
    let mut out = [[Complex64::ZERO; 4]; 4];
    for (r, row) in m.iter().enumerate() {
        for (c, e) in row.iter().enumerate() {
            out[r][c] = e.conj();
        }
    }
    Gate2::from_matrix(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Gate1, Gate2};
    use crate::measure;

    #[test]
    fn zero_state_has_unit_trace_and_purity() {
        let dm = DensityMatrix::zero(3);
        assert!((dm.trace().re - 1.0).abs() < 1e-15);
        assert!((dm.purity() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn maximally_mixed_purity() {
        let dm = DensityMatrix::maximally_mixed(2);
        assert!((dm.trace().re - 1.0).abs() < 1e-15);
        assert!((dm.purity() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        // Evolve the same circuit on both backends and compare ⟨Z⟩.
        let mut psi = StateVector::zero(3);
        let mut rho = DensityMatrix::zero(3);
        let ops: [(usize, Gate1); 4] = [
            (0, Gate1::hadamard()),
            (1, Gate1::rx(0.7)),
            (2, Gate1::ry(1.3)),
            (0, Gate1::rz(-0.4)),
        ];
        for (q, g) in &ops {
            psi.apply_gate1(*q, g).unwrap();
            rho.apply_gate1(*q, g).unwrap();
        }
        psi.apply_gate2(0, 2, &Gate2::cnot()).unwrap();
        rho.apply_gate2(0, 2, &Gate2::cnot()).unwrap();
        for q in 0..3 {
            let a = measure::expectation_z(&psi, q).unwrap();
            let b = rho.expectation_z(q).unwrap();
            assert!((a - b).abs() < 1e-10, "wire {q}: {a} vs {b}");
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_state_vector_is_projector() {
        let mut psi = StateVector::zero(2);
        psi.apply_gate1(0, &Gate1::hadamard()).unwrap();
        psi.apply_cnot(0, 1).unwrap();
        let rho = DensityMatrix::from_state_vector(&psi);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity_pure(&psi).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_preserves_trace_and_purity() {
        let mut rho = DensityMatrix::zero(2);
        rho.apply_gate1(0, &Gate1::ry(0.9)).unwrap();
        rho.apply_gate2(0, 1, &Gate2::crx(1.1)).unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kraus_identity_channel_is_noop() {
        let mut rho = DensityMatrix::zero(2);
        rho.apply_gate1(0, &Gate1::hadamard()).unwrap();
        let before = rho.clone();
        rho.apply_kraus1(0, &[Gate1::identity()]).unwrap();
        for (a, b) in rho.data.iter().zip(&before.data) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rho = DensityMatrix::zero(3);
        rho.apply_gate1(1, &Gate1::u3(0.4, 0.8, -0.3)).unwrap();
        let sum: f64 = rho.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_wires_rejected() {
        let mut rho = DensityMatrix::zero(2);
        assert!(rho.apply_gate1(2, &Gate1::pauli_x()).is_err());
        assert!(rho.apply_gate2(0, 0, &Gate2::cnot()).is_err());
        assert!(rho.expectation_z(3).is_err());
        let psi = StateVector::zero(3);
        assert!(rho.fidelity_pure(&psi).is_err());
    }
}
