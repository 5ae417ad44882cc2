//! NISQ noise channels and per-gate noise models.
//!
//! The paper's central design argument is that under NISQ constraints,
//! "quantum errors brought on by quantum gate operations can be properly
//! controlled" while qubit-count growth cannot — hence the state-encoding
//! that keeps the critic at 4 qubits. This module supplies the error model
//! used to reproduce that argument quantitatively (ablation B in DESIGN.md):
//! standard single-qubit channels expressed as Kraus operators, plus a
//! [`NoiseModel`] that injects a channel after every gate.

use rand::Rng;

use crate::complex::Complex64;
use crate::error::QsimError;
use crate::gate::Gate1;

/// A single-qubit quantum channel.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NoiseChannel {
    /// Depolarizing channel: with probability `p` the qubit is replaced by
    /// the maximally mixed state.
    Depolarizing {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Bit-flip channel: applies X with probability `p`.
    BitFlip {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Phase-flip channel: applies Z with probability `p`.
    PhaseFlip {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Amplitude damping: relaxation `|1⟩ → |0⟩` with probability `gamma`.
    AmplitudeDamping {
        /// Damping rate in `[0, 1]`.
        gamma: f64,
    },
    /// Phase damping: loss of off-diagonal coherence with rate `lambda`.
    PhaseDamping {
        /// Damping rate in `[0, 1]`.
        lambda: f64,
    },
}

impl NoiseChannel {
    /// The probability-like strength parameter of the channel.
    pub fn strength(&self) -> f64 {
        match *self {
            NoiseChannel::Depolarizing { p }
            | NoiseChannel::BitFlip { p }
            | NoiseChannel::PhaseFlip { p } => p,
            NoiseChannel::AmplitudeDamping { gamma } => gamma,
            NoiseChannel::PhaseDamping { lambda } => lambda,
        }
    }

    /// Validates that the strength is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidProbability`] when outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), QsimError> {
        let v = self.strength();
        if !(0.0..=1.0).contains(&v) || !v.is_finite() {
            return Err(QsimError::InvalidProbability { value: v });
        }
        Ok(())
    }

    /// The Kraus operators `{K_i}` of the channel, satisfying
    /// `Σ K_i† K_i = I`.
    pub fn kraus_operators(&self) -> Vec<Gate1> {
        match *self {
            NoiseChannel::Depolarizing { p } => {
                let k0 = (1.0 - p).sqrt();
                let k = (p / 3.0).sqrt();
                vec![
                    scale_gate(&Gate1::identity(), k0),
                    scale_gate(&Gate1::pauli_x(), k),
                    scale_gate(&Gate1::pauli_y(), k),
                    scale_gate(&Gate1::pauli_z(), k),
                ]
            }
            NoiseChannel::BitFlip { p } => vec![
                scale_gate(&Gate1::identity(), (1.0 - p).sqrt()),
                scale_gate(&Gate1::pauli_x(), p.sqrt()),
            ],
            NoiseChannel::PhaseFlip { p } => vec![
                scale_gate(&Gate1::identity(), (1.0 - p).sqrt()),
                scale_gate(&Gate1::pauli_z(), p.sqrt()),
            ],
            NoiseChannel::AmplitudeDamping { gamma } => {
                let k0 = Gate1::from_matrix([
                    [Complex64::ONE, Complex64::ZERO],
                    [Complex64::ZERO, Complex64::from_real((1.0 - gamma).sqrt())],
                ]);
                let k1 = Gate1::from_matrix([
                    [Complex64::ZERO, Complex64::from_real(gamma.sqrt())],
                    [Complex64::ZERO, Complex64::ZERO],
                ]);
                vec![k0, k1]
            }
            NoiseChannel::PhaseDamping { lambda } => {
                let k0 = Gate1::from_matrix([
                    [Complex64::ONE, Complex64::ZERO],
                    [Complex64::ZERO, Complex64::from_real((1.0 - lambda).sqrt())],
                ]);
                let k1 = Gate1::from_matrix([
                    [Complex64::ZERO, Complex64::ZERO],
                    [Complex64::ZERO, Complex64::from_real(lambda.sqrt())],
                ]);
                vec![k0, k1]
            }
        }
    }

    /// Samples a Pauli error for trajectory (statevector) simulation.
    /// Returns `None` when no error occurs or for non-Pauli channels at the
    /// no-error branch.
    pub fn sample_pauli_error<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Gate1> {
        match *self {
            NoiseChannel::Depolarizing { p } => {
                if rng.gen::<f64>() < p {
                    Some(match rng.gen_range(0..3) {
                        0 => Gate1::pauli_x(),
                        1 => Gate1::pauli_y(),
                        _ => Gate1::pauli_z(),
                    })
                } else {
                    None
                }
            }
            NoiseChannel::BitFlip { p } => (rng.gen::<f64>() < p).then(Gate1::pauli_x),
            NoiseChannel::PhaseFlip { p } => (rng.gen::<f64>() < p).then(Gate1::pauli_z),
            // Damping channels are not Pauli mixtures; trajectory support
            // would need generalized measurements, so treat them as phase
            // flips of matching strength for the statevector backend.
            NoiseChannel::AmplitudeDamping { gamma } => {
                (rng.gen::<f64>() < gamma).then(Gate1::pauli_z)
            }
            NoiseChannel::PhaseDamping { lambda } => {
                (rng.gen::<f64>() < lambda).then(Gate1::pauli_z)
            }
        }
    }
}

/// A circuit-level noise model: the same channel after every gate, applied
/// to each wire the gate touched. This is the "errors grow with gate count"
/// mechanism the paper cites (\[9\] in the paper).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NoiseModel {
    /// Channel applied after every single-qubit gate.
    pub after_gate1: Option<NoiseChannel>,
    /// Channel applied to both wires after every two-qubit gate (two-qubit
    /// gates are noisier on hardware, so a stronger channel is typical).
    pub after_gate2: Option<NoiseChannel>,
}

impl NoiseModel {
    /// A noiseless model.
    pub const fn noiseless() -> Self {
        NoiseModel {
            after_gate1: None,
            after_gate2: None,
        }
    }

    /// Uniform depolarizing noise: probability `p1` after one-qubit gates
    /// and `p2` after two-qubit gates.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidProbability`] when either rate is
    /// outside `[0, 1]`.
    pub fn depolarizing(p1: f64, p2: f64) -> Result<Self, QsimError> {
        let m = NoiseModel {
            after_gate1: Some(NoiseChannel::Depolarizing { p: p1 }),
            after_gate2: Some(NoiseChannel::Depolarizing { p: p2 }),
        };
        m.validate()?;
        Ok(m)
    }

    /// Validates all contained channels.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidProbability`] for a bad strength.
    pub fn validate(&self) -> Result<(), QsimError> {
        if let Some(c) = self.after_gate1 {
            c.validate()?;
        }
        if let Some(c) = self.after_gate2 {
            c.validate()?;
        }
        Ok(())
    }

    /// `true` when no channel is configured.
    pub fn is_noiseless(&self) -> bool {
        self.after_gate1.is_none() && self.after_gate2.is_none()
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::noiseless()
    }
}

fn scale_gate(g: &Gate1, s: f64) -> Gate1 {
    let m = g.matrix();
    Gate1::from_matrix([
        [m[0][0].scale(s), m[0][1].scale(s)],
        [m[1][0].scale(s), m[1][1].scale(s)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;
    use crate::gate::Gate1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Σ K†K must equal the identity for a valid CPTP channel.
    fn assert_completeness(channel: NoiseChannel) {
        let kraus = channel.kraus_operators();
        let mut acc = [[Complex64::ZERO; 2]; 2];
        for k in &kraus {
            let kk = k.dagger().matmul(k);
            for (r, row) in acc.iter_mut().enumerate() {
                for (c, cell) in row.iter_mut().enumerate() {
                    *cell += kk.matrix()[r][c];
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, _) in row.iter().enumerate() {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(
                    (acc[r][c] - Complex64::from_real(want)).abs() < 1e-12,
                    "{channel:?} completeness failed at ({r},{c}): {:?}",
                    acc[r][c]
                );
            }
        }
    }

    #[test]
    fn all_channels_are_trace_preserving() {
        for c in [
            NoiseChannel::Depolarizing { p: 0.13 },
            NoiseChannel::BitFlip { p: 0.2 },
            NoiseChannel::PhaseFlip { p: 0.35 },
            NoiseChannel::AmplitudeDamping { gamma: 0.4 },
            NoiseChannel::PhaseDamping { lambda: 0.25 },
        ] {
            assert_completeness(c);
        }
    }

    #[test]
    fn depolarizing_drives_toward_maximally_mixed() {
        let mut rho = DensityMatrix::zero(1);
        let kraus = NoiseChannel::Depolarizing { p: 0.5 }.kraus_operators();
        for _ in 0..60 {
            rho.apply_kraus1(0, &kraus).unwrap();
        }
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        assert!((rho.purity() - 0.5).abs() < 1e-6, "purity {}", rho.purity());
        assert!(rho.expectation_z(0).unwrap().abs() < 1e-6);
    }

    #[test]
    fn full_depolarizing_reaches_mixed_in_one_step() {
        let mut rho = DensityMatrix::zero(1);
        // p = 3/4 gives the completely depolarizing map (fixed point I/2).
        let kraus = NoiseChannel::Depolarizing { p: 0.75 }.kraus_operators();
        rho.apply_kraus1(0, &kraus).unwrap();
        assert!(rho.expectation_z(0).unwrap().abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_relaxes_excited_state() {
        let mut psi = crate::state::StateVector::zero(1);
        psi.apply_gate1(0, &Gate1::pauli_x()).unwrap(); // |1⟩
        let mut rho = DensityMatrix::from_state_vector(&psi);
        let kraus = NoiseChannel::AmplitudeDamping { gamma: 0.3 }.kraus_operators();
        let mut z = Vec::new();
        for _ in 0..10 {
            rho.apply_kraus1(0, &kraus).unwrap();
            z.push(rho.expectation_z(0).unwrap());
        }
        // ⟨Z⟩ should monotonically rise from −1 toward +1 (ground state).
        for w in z.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!(z.last().unwrap() > &0.9);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bit_flip_flips_z_expectation() {
        let mut rho = DensityMatrix::zero(1);
        let kraus = NoiseChannel::BitFlip { p: 1.0 }.kraus_operators();
        rho.apply_kraus1(0, &kraus).unwrap();
        assert!((rho.expectation_z(0).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_flip_preserves_populations() {
        let mut rho = DensityMatrix::zero(1);
        rho.apply_gate1(0, &Gate1::hadamard()).unwrap();
        let before = rho.probabilities();
        let kraus = NoiseChannel::PhaseFlip { p: 0.5 }.kraus_operators();
        rho.apply_kraus1(0, &kraus).unwrap();
        let after = rho.probabilities();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12);
        }
        // But full dephasing kills coherence: purity drops to 1/2.
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        assert!(NoiseChannel::Depolarizing { p: 1.5 }.validate().is_err());
        assert!(NoiseChannel::BitFlip { p: -0.1 }.validate().is_err());
        assert!(NoiseChannel::PhaseFlip { p: 0.3 }.validate().is_ok());
        assert!(NoiseModel::depolarizing(0.01, 2.0).is_err());
        assert!(NoiseModel::depolarizing(0.01, 0.02).is_ok());
    }

    #[test]
    fn noiseless_model() {
        let m = NoiseModel::noiseless();
        assert!(m.is_noiseless());
        assert!(m.validate().is_ok());
        assert_eq!(NoiseModel::default(), m);
    }

    #[test]
    fn trajectory_sampling_rates() {
        let c = NoiseChannel::BitFlip { p: 0.3 };
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let mut hits = 0;
        for _ in 0..n {
            if c.sample_pauli_error(&mut rng).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
