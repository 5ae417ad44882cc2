//! Binding validation and the noisy reference interpreter.
//!
//! Statevector execution lives in [`crate::prebound`]: every forward pass
//! runs a parameter-prebound schedule. This module keeps the per-batch
//! binding check the executor runs before any work is queued, and
//! [`run_raw_density`], the naive density-matrix walk the prebound
//! superoperator executor is tested against.

use qmarl_qsim::density::DensityMatrix;
use qmarl_qsim::gate::Gate2;
use qmarl_qsim::noise::NoiseModel;

use crate::compile::{CGate, CompiledCircuit};
use crate::error::RuntimeError;

/// Validates binding lengths against the compiled arity.
pub(crate) fn check_bindings(
    compiled: &CompiledCircuit,
    inputs: &[f64],
    params: &[f64],
) -> Result<(), RuntimeError> {
    if inputs.len() != compiled.n_inputs() {
        return Err(RuntimeError::InputLenMismatch {
            expected: compiled.n_inputs(),
            actual: inputs.len(),
        });
    }
    if params.len() != compiled.n_params() {
        return Err(RuntimeError::ParamLenMismatch {
            expected: compiled.n_params(),
            actual: params.len(),
        });
    }
    Ok(())
}

/// Runs the **raw** schedule on the density-matrix backend, injecting the
/// noise model's channel after every gate (on every wire the gate
/// touched) — the compiled twin of [`qmarl_vqc::exec::run_noisy`]. The
/// raw schedule is used deliberately: per-gate noise must scale with the
/// *source* circuit's gate count, which fusion would shrink.
///
/// This is the **reference interpreter** for noisy execution: the hot
/// path is the prebound superoperator executor
/// ([`crate::superop::run_density`]), which is property-tested against
/// this walk at 1e-12 and replaces it in every batched queue. Keep this
/// one naive and obviously correct.
///
/// `override_angle` optionally forces gate `raw_idx`'s angle to `theta`:
/// the oracle of the Noisy shift walk's fork, which rebinds that one op.
///
/// # Errors
///
/// Returns a simulator error for an invalid noise strength.
pub fn run_raw_density(
    compiled: &CompiledCircuit,
    inputs: &[f64],
    params: &[f64],
    noise: &NoiseModel,
    override_angle: Option<(usize, f64)>,
) -> Result<DensityMatrix, RuntimeError> {
    noise.validate()?;
    let kraus1 = noise.after_gate1.map(|c| c.kraus_operators());
    let kraus2 = noise.after_gate2.map(|c| c.kraus_operators());
    let mut rho = DensityMatrix::zero(compiled.n_qubits());
    for (k, gate) in compiled.raw_schedule().iter().enumerate() {
        let theta_of = |angle: &crate::compile::FusedAngle| match override_angle {
            Some((idx, theta)) if idx == k => theta,
            _ => angle.value(inputs, params),
        };
        // Apply the gate, then the matching channel on each touched wire
        // (in the same wire order as the interpreter).
        match gate {
            CGate::Rot { qubit, axis, angle } => {
                rho.apply_gate1(*qubit, &axis.gate(theta_of(angle)))?;
                if let Some(kraus) = &kraus1 {
                    rho.apply_kraus1(*qubit, kraus)?;
                }
            }
            CGate::Fixed { qubit, gate } => {
                rho.apply_gate1(*qubit, gate)?;
                if let Some(kraus) = &kraus1 {
                    rho.apply_kraus1(*qubit, kraus)?;
                }
            }
            CGate::CRot {
                control,
                target,
                axis,
                angle,
            } => {
                rho.apply_gate2(
                    *control,
                    *target,
                    &Gate2::controlled(&axis.gate(theta_of(angle))),
                )?;
                if let Some(kraus) = &kraus2 {
                    rho.apply_kraus1(*control, kraus)?;
                    rho.apply_kraus1(*target, kraus)?;
                }
            }
            CGate::Cnot { control, target } => {
                rho.apply_gate2(*control, *target, &Gate2::cnot())?;
                if let Some(kraus) = &kraus2 {
                    rho.apply_kraus1(*control, kraus)?;
                    rho.apply_kraus1(*target, kraus)?;
                }
            }
            CGate::Cz { control, target } => {
                rho.apply_gate2(*control, *target, &Gate2::cz())?;
                if let Some(kraus) = &kraus2 {
                    rho.apply_kraus1(*control, kraus)?;
                    rho.apply_kraus1(*target, kraus)?;
                }
            }
            // Fixed2 never appears in the raw schedule (fusion products
            // live in the fused schedule only); the arm keeps the match
            // total should that invariant ever change.
            CGate::Fixed2 { qa, qb, gate } => {
                rho.apply_gate2(*qa, *qb, gate)?;
                if let Some(kraus) = &kraus2 {
                    rho.apply_kraus1(*qa, kraus)?;
                    rho.apply_kraus1(*qb, kraus)?;
                }
            }
        }
    }
    Ok(rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::prebound::{prebind, prebind_raw, run_prebound, run_raw_with_override};
    use qmarl_qsim::gate::RotationAxis as Ax;
    use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};

    fn mixed_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.fixed(0, FixedGate::H).unwrap();
        c.rot(0, Ax::Y, Angle::Input(InputId(0))).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.controlled_rot(0, 1, Ax::X, Angle::Param(ParamId(1)))
            .unwrap();
        c.cnot(1, 2).unwrap();
        c.cz(0, 2).unwrap();
        c.rot(2, Ax::Z, Angle::Const(0.7)).unwrap();
        c
    }

    #[test]
    fn compiled_matches_interpreter() {
        let c = mixed_circuit();
        let compiled = compile(&c);
        let inputs = [0.4];
        let params = [0.9, -1.3];
        let fast = run_prebound(&prebind(&compiled, &params).unwrap(), &inputs).unwrap();
        let reference = qmarl_vqc::exec::run(&c, &inputs, &params).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn raw_schedule_matches_interpreter_too() {
        let c = mixed_circuit();
        let compiled = compile(&c);
        let inputs = [1.1];
        let params = [0.2, 0.3];
        let raw = run_prebound(&prebind_raw(&compiled, &params).unwrap(), &inputs).unwrap();
        let reference = qmarl_vqc::exec::run(&c, &inputs, &params).unwrap();
        for (a, b) in raw.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn binding_validation() {
        let compiled = compile(&mixed_circuit());
        assert!(matches!(
            check_bindings(&compiled, &[], &[0.0; 2]),
            Err(RuntimeError::InputLenMismatch {
                expected: 1,
                actual: 0
            })
        ));
        assert!(matches!(
            check_bindings(&compiled, &[0.0], &[0.0; 3]),
            Err(RuntimeError::ParamLenMismatch {
                expected: 2,
                actual: 3
            })
        ));
        assert!(check_bindings(&compiled, &[0.0], &[0.0; 2]).is_ok());
    }

    #[test]
    fn override_changes_only_the_targeted_gate() {
        let c = mixed_circuit();
        let compiled = compile(&c);
        let inputs = [0.4];
        let params = [0.9, -1.3];
        // Overriding occurrence of param 0 (raw idx 2) with its bound value
        // reproduces the plain run.
        let same = run_raw_with_override(&compiled, &inputs, &params, 2, params[0]);
        let plain = run_prebound(&prebind(&compiled, &params).unwrap(), &inputs).unwrap();
        assert!((same.fidelity(&plain).unwrap() - 1.0).abs() < 1e-12);
        let different = run_raw_with_override(&compiled, &inputs, &params, 2, params[0] + 1.0);
        assert!(different.fidelity(&plain).unwrap() < 1.0 - 1e-6);
    }

    #[test]
    fn raw_density_matches_vqc_run_noisy() {
        let c = mixed_circuit();
        let compiled = compile(&c);
        let inputs = [0.4];
        let params = [0.9, -1.3];
        for noise in [
            NoiseModel::noiseless(),
            NoiseModel::depolarizing(0.01, 0.02).unwrap(),
        ] {
            let rho = run_raw_density(&compiled, &inputs, &params, &noise, None).unwrap();
            let reference = qmarl_vqc::exec::run_noisy(&c, &inputs, &params, &noise).unwrap();
            for q in 0..3 {
                assert!(
                    (rho.expectation_z(q).unwrap() - reference.expectation_z(q).unwrap()).abs()
                        < 1e-12,
                    "wire {q}"
                );
            }
            assert!((rho.trace().re - 1.0).abs() < 1e-9);
        }
        // An override with the bound value reproduces the plain run; a
        // shifted value changes the state.
        let noise = NoiseModel::depolarizing(0.01, 0.02).unwrap();
        let plain = run_raw_density(&compiled, &inputs, &params, &noise, None).unwrap();
        let same =
            run_raw_density(&compiled, &inputs, &params, &noise, Some((2, params[0]))).unwrap();
        let shifted = run_raw_density(
            &compiled,
            &inputs,
            &params,
            &noise,
            Some((2, params[0] + 1.0)),
        )
        .unwrap();
        for q in 0..3 {
            let a = plain.expectation_z(q).unwrap();
            assert!((a - same.expectation_z(q).unwrap()).abs() < 1e-12);
        }
        assert!((0..3).any(|q| {
            (plain.expectation_z(q).unwrap() - shifted.expectation_z(q).unwrap()).abs() > 1e-6
        }));
    }

    #[test]
    fn cz_fast_path_is_its_own_inverse() {
        let mut c = Circuit::new(2);
        c.fixed(0, FixedGate::H).unwrap();
        c.fixed(1, FixedGate::H).unwrap();
        c.cz(0, 1).unwrap();
        c.cz(0, 1).unwrap();
        let compiled = compile(&c);
        let s = run_prebound(&prebind(&compiled, &[]).unwrap(), &[]).unwrap();
        // H⊗H with CZ² = I leaves the uniform superposition.
        for a in s.amplitudes() {
            assert!((a.re - 0.5).abs() < 1e-12 && a.im.abs() < 1e-15);
        }
    }
}
