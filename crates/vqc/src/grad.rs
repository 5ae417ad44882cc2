//! Quantum gradients: parameter-shift, adjoint differentiation, finite
//! differences — the serial reference the batched runtime is tested
//! against (its prebound adjoint bit for bit, its shift walk to 1e-12).
//!
//! The paper differentiates its VQCs with PyTorch autograd through
//! torchquantum. We substitute two [`GradMethod`]s (DESIGN.md §1) and
//! check both against finite differences:
//!
//! * **Parameter-shift** ([`jacobian_parameter_shift`]) — the canonical,
//!   hardware-compatible rule. Exact (not an approximation) for rotation
//!   generators: `∂f/∂θ = [f(θ+π/2) − f(θ−π/2)] / 2`. Controlled rotations
//!   have generator spectrum `{0, ±1}` and need the four-term rule.
//! * **Adjoint differentiation** ([`jacobian_adjoint`]) — reverse-mode
//!   through the statevector (one forward pass + one backward sweep),
//!   mathematically identical to what simulator autograd computes and
//!   asymptotically cheapest. Only valid for noiseless (unitary) execution.
//! * **Finite differences** ([`jacobian_finite_diff`]) — a test oracle
//!   only, not a [`GradMethod`].
//!
//! `gradients_agree`-style tests assert all three match, which is the
//! correctness guard for the autodiff substitution.

use qmarl_qsim::complex::Complex64;
use qmarl_qsim::state::StateVector;

use crate::error::VqcError;
use crate::exec::{self, run};
use crate::ir::{Angle, Circuit, Op, ParamId};
use crate::observable::Readout;

/// A dense Jacobian: `rows = outputs`, `cols = trainable parameters`.
#[derive(Debug, Clone, PartialEq)]
pub struct Jacobian {
    n_outputs: usize,
    n_params: usize,
    data: Vec<f64>,
}

impl Jacobian {
    /// An all-zeros Jacobian.
    pub fn zeros(n_outputs: usize, n_params: usize) -> Self {
        Jacobian {
            n_outputs,
            n_params,
            data: vec![0.0; n_outputs * n_params],
        }
    }

    /// Number of output rows.
    #[inline]
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of parameter columns.
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The entry `∂ output_j / ∂ θ_p`.
    #[inline]
    pub fn get(&self, output: usize, param: usize) -> f64 {
        self.data[output * self.n_params + param]
    }

    /// Mutable entry access.
    #[inline]
    pub fn get_mut(&mut self, output: usize, param: usize) -> &mut f64 {
        &mut self.data[output * self.n_params + param]
    }

    /// One output's gradient row.
    pub fn row(&self, output: usize) -> &[f64] {
        &self.data[output * self.n_params..(output + 1) * self.n_params]
    }

    /// A single-row Jacobian taking ownership of an existing gradient
    /// vector — how scalar-output models hand the trainer a uniform
    /// `(value, Jacobian)` surface without copying.
    pub fn from_row(row: Vec<f64>) -> Self {
        Jacobian {
            n_outputs: 1,
            n_params: row.len(),
            data: row,
        }
    }

    /// Chain rule: given `∂L/∂outputs`, returns `∂L/∂θ` (vector-Jacobian
    /// product — what an optimizer consumes).
    ///
    /// # Panics
    ///
    /// Panics if `upstream.len() != n_outputs`.
    pub fn vjp(&self, upstream: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_params];
        self.vjp_into(upstream, &mut out);
        out
    }

    /// [`Jacobian::vjp`] into a caller-owned buffer (overwritten) — the
    /// update-sweep hot path reuses one scratch vector across a whole
    /// batch instead of allocating per transition. Arithmetic is
    /// identical to [`Jacobian::vjp`].
    ///
    /// # Panics
    ///
    /// Panics if `upstream.len() != n_outputs` or `out.len() != n_params`.
    pub fn vjp_into(&self, upstream: &[f64], out: &mut [f64]) {
        assert_eq!(
            upstream.len(),
            self.n_outputs,
            "upstream gradient length mismatch"
        );
        assert_eq!(
            out.len(),
            self.n_params,
            "vjp output buffer length mismatch"
        );
        out.fill(0.0);
        for (j, &u) in upstream.iter().enumerate() {
            for (p, o) in out.iter_mut().enumerate() {
                *o += u * self.get(j, p);
            }
        }
    }

    /// Maximum absolute difference against another Jacobian.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Jacobian) -> f64 {
        assert_eq!(self.n_outputs, other.n_outputs);
        assert_eq!(self.n_params, other.n_params);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Which differentiation method to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum GradMethod {
    /// Two-/four-term parameter-shift rule.
    ParameterShift,
    /// Reverse-mode adjoint differentiation (noiseless only).
    Adjoint,
}

/// Computes the Jacobian with the chosen method. This crate is the
/// serial reference: the batched runtime (`qmarl-runtime`) runs the
/// parallel parameter-shift path and is tested against
/// [`jacobian_parameter_shift`].
///
/// # Errors
///
/// Propagates binding and readout validation errors.
pub fn jacobian(
    method: GradMethod,
    circuit: &Circuit,
    readout: &Readout,
    inputs: &[f64],
    params: &[f64],
) -> Result<Jacobian, VqcError> {
    match method {
        GradMethod::ParameterShift => jacobian_parameter_shift(circuit, readout, inputs, params),
        GradMethod::Adjoint => jacobian_adjoint(circuit, readout, inputs, params),
    }
}

/// Runs the circuit with op `override_idx`'s angle replaced by `theta`.
fn run_with_override(
    circuit: &Circuit,
    inputs: &[f64],
    params: &[f64],
    override_idx: usize,
    theta: f64,
) -> Result<StateVector, VqcError> {
    let mut state = StateVector::zero(circuit.n_qubits());
    for (k, op) in circuit.ops().iter().enumerate() {
        if k == override_idx {
            let replaced = match *op {
                Op::Rot { qubit, axis, .. } => Op::Rot {
                    qubit,
                    axis,
                    angle: Angle::Const(theta),
                },
                Op::ControlledRot {
                    control,
                    target,
                    axis,
                    ..
                } => Op::ControlledRot {
                    control,
                    target,
                    axis,
                    angle: Angle::Const(theta),
                },
                other => other,
            };
            exec::apply_op(&mut state, &replaced, inputs, params)?;
        } else {
            exec::apply_op(&mut state, op, inputs, params)?;
        }
    }
    Ok(state)
}

/// The parameter occurrences of a circuit: `(op index, param id, base angle)`.
fn param_occurrences(circuit: &Circuit, params: &[f64]) -> Vec<(usize, usize, f64, bool)> {
    circuit
        .ops()
        .iter()
        .enumerate()
        .filter_map(|(k, op)| match op.angle() {
            Some(Angle::Param(ParamId(p))) => {
                let controlled = matches!(op, Op::ControlledRot { .. });
                Some((k, p, params[p], controlled))
            }
            _ => None,
        })
        .collect()
}

/// Parameter-shift Jacobian. Cost: 2 circuit evaluations per plain-rotation
/// occurrence, 4 per controlled-rotation occurrence.
///
/// # Errors
///
/// Propagates binding and readout validation errors.
pub fn jacobian_parameter_shift(
    circuit: &Circuit,
    readout: &Readout,
    inputs: &[f64],
    params: &[f64],
) -> Result<Jacobian, VqcError> {
    // Validate once up front via a plain forward run.
    let base_state = run(circuit, inputs, params)?;
    readout.validate(circuit.n_qubits())?;
    drop(base_state);

    let mut jac = Jacobian::zeros(readout.output_len(), circuit.param_count());
    for (k, p, theta, controlled) in param_occurrences(circuit, params) {
        let contributions = shift_rule(theta, controlled, |t| {
            readout.evaluate(&run_with_override(circuit, inputs, params, k, t)?)
        })?;
        for (j, g) in contributions.into_iter().enumerate() {
            *jac.get_mut(j, p) += g;
        }
    }
    Ok(jac)
}

/// The parameter-shift combination rule, abstracted over the circuit
/// evaluator: `eval(θ')` must return the readout vector with the targeted
/// occurrence's angle forced to `θ'`. This is the **single** home of the
/// two-/four-term coefficients — the batched runtime's gradient path
/// calls it with its compiled-schedule evaluator, so both engines cannot
/// drift apart.
///
/// # Errors
///
/// Propagates the evaluator's error.
pub fn shift_rule<Err, F>(theta: f64, controlled: bool, mut eval: F) -> Result<Vec<f64>, Err>
where
    F: FnMut(f64) -> Result<Vec<f64>, Err>,
{
    use std::f64::consts::FRAC_PI_2;
    if !controlled {
        // Two-term rule, exact for generator spectrum {±1/2}.
        let plus = eval(theta + FRAC_PI_2)?;
        let minus = eval(theta - FRAC_PI_2)?;
        Ok(plus
            .iter()
            .zip(&minus)
            .map(|(a, b)| (a - b) / 2.0)
            .collect())
    } else {
        // Four-term rule for controlled rotations (generator spectrum
        // {0, ±1/2} in the θ/2 convention → frequencies {1/2, 1}):
        //   f'(θ) = c₁[f(θ+π/2) − f(θ−π/2)] − c₂[f(θ+3π/2) − f(θ−3π/2)],
        //   c₁ = (√2+1)/(4√2),  c₂ = (√2−1)/(4√2).
        let sqrt2 = std::f64::consts::SQRT_2;
        let c1 = (sqrt2 + 1.0) / (4.0 * sqrt2);
        let c2 = (sqrt2 - 1.0) / (4.0 * sqrt2);
        let p1 = eval(theta + FRAC_PI_2)?;
        let m1 = eval(theta - FRAC_PI_2)?;
        let p3 = eval(theta + 3.0 * FRAC_PI_2)?;
        let m3 = eval(theta - 3.0 * FRAC_PI_2)?;
        Ok((0..p1.len())
            .map(|j| c1 * (p1[j] - m1[j]) - c2 * (p3[j] - m3[j]))
            .collect())
    }
}

/// Central finite-difference Jacobian (the numerical test oracle).
///
/// # Errors
///
/// Propagates binding and readout validation errors.
pub fn jacobian_finite_diff(
    circuit: &Circuit,
    readout: &Readout,
    inputs: &[f64],
    params: &[f64],
    eps: f64,
) -> Result<Jacobian, VqcError> {
    readout.validate(circuit.n_qubits())?;
    let mut jac = Jacobian::zeros(readout.output_len(), circuit.param_count());
    let mut work = params.to_vec();
    for p in 0..circuit.param_count() {
        work[p] = params[p] + eps;
        let plus = readout.evaluate(&run(circuit, inputs, &work)?)?;
        work[p] = params[p] - eps;
        let minus = readout.evaluate(&run(circuit, inputs, &work)?)?;
        work[p] = params[p];
        for j in 0..plus.len() {
            *jac.get_mut(j, p) = (plus[j] - minus[j]) / (2.0 * eps);
        }
    }
    Ok(jac)
}

/// Adjoint-differentiation Jacobian: one forward pass plus one backward
/// sweep per output observable.
///
/// # Errors
///
/// Propagates binding and readout validation errors.
pub fn jacobian_adjoint(
    circuit: &Circuit,
    readout: &Readout,
    inputs: &[f64],
    params: &[f64],
) -> Result<Jacobian, VqcError> {
    let psi = run(circuit, inputs, params)?;
    readout.validate(circuit.n_qubits())?;

    // Build λ_j = O_j |ψ⟩ for every output observable.
    let observables: Vec<ObservableSpec> = match readout {
        Readout::ZPerQubit { qubits } => {
            qubits.iter().map(|&q| ObservableSpec::SingleZ(q)).collect()
        }
        Readout::WeightedZSum { weights } => vec![ObservableSpec::WeightedZ(weights.clone())],
    };
    let mut lambdas: Vec<StateVector> = observables.iter().map(|o| o.apply(&psi)).collect();
    let mut phi = psi;

    let mut jac = Jacobian::zeros(readout.output_len(), circuit.param_count());
    for op in circuit.ops().iter().rev() {
        // Gradient contribution uses φ = ψ_k (state *after* gate k) and
        // λ = λ_k: ∂E/∂θ = Im⟨λ_k| G |ψ_k⟩ for U = exp(−iθG/2)·(…).
        if let Some(Angle::Param(ParamId(p))) = op.angle() {
            let t = apply_generator(&phi, op);
            for (j, lam) in lambdas.iter().enumerate() {
                let ip = inner_raw(lam, &t);
                *jac.get_mut(j, p) += ip.im;
            }
        }
        // Un-apply the gate from both φ and every λ.
        unapply(&mut phi, op, inputs, params)?;
        for lam in &mut lambdas {
            unapply(lam, op, inputs, params)?;
        }
    }
    Ok(jac)
}

/// The observable kinds the adjoint sweep supports.
enum ObservableSpec {
    SingleZ(usize),
    WeightedZ(Vec<f64>),
}

impl ObservableSpec {
    /// Applies the (Hermitian) observable to a state: `O|ψ⟩`.
    fn apply(&self, psi: &StateVector) -> StateVector {
        let mut out = psi.clone();
        match self {
            ObservableSpec::SingleZ(q) => {
                let mask = 1usize << q;
                for (i, a) in out.amplitudes_mut().iter_mut().enumerate() {
                    if i & mask != 0 {
                        *a = -*a;
                    }
                }
            }
            ObservableSpec::WeightedZ(weights) => {
                let src = psi.amplitudes();
                for (i, a) in out.amplitudes_mut().iter_mut().enumerate() {
                    let mut coeff = 0.0;
                    for (q, w) in weights.iter().enumerate() {
                        let sign = if i & (1usize << q) == 0 { 1.0 } else { -1.0 };
                        coeff += w * sign;
                    }
                    *a = src[i].scale(coeff);
                }
            }
        }
        out
    }
}

/// `⟨a|b⟩` without width checks (internal; widths match by construction).
fn inner_raw(a: &StateVector, b: &StateVector) -> Complex64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| x.conj() * *y)
        .sum()
}

/// Applies `U†` of an op in place.
fn unapply(
    state: &mut StateVector,
    op: &Op,
    inputs: &[f64],
    params: &[f64],
) -> Result<(), VqcError> {
    let inverse = match *op {
        Op::Rot { qubit, axis, angle } => Op::Rot {
            qubit,
            axis,
            angle: Angle::Const(-resolve_angle(angle, inputs, params)),
        },
        Op::ControlledRot {
            control,
            target,
            axis,
            angle,
        } => Op::ControlledRot {
            control,
            target,
            axis,
            angle: Angle::Const(-resolve_angle(angle, inputs, params)),
        },
        // CNOT, CZ are involutions; fixed gates need explicit daggers.
        Op::Cnot { .. } | Op::Cz { .. } => *op,
        Op::Fixed { qubit, gate } => {
            let g = gate.gate().dagger();
            state.apply_gate1(qubit, &g)?;
            return Ok(());
        }
    };
    exec::apply_op(state, &inverse, inputs, params)
}

fn resolve_angle(angle: Angle, inputs: &[f64], params: &[f64]) -> f64 {
    match angle {
        Angle::Input(id) => inputs[id.0],
        Angle::Param(id) => params[id.0],
        Angle::Const(c) => c,
    }
}

/// Applies the generator `G` of a parameterised op (`U = exp(−iθG/2)` up
/// to control projection) to a copy of `state`, returning `G|state⟩`.
fn apply_generator(state: &StateVector, op: &Op) -> StateVector {
    let mut out = state.clone();
    match *op {
        Op::Rot { qubit, axis, .. } => {
            apply_pauli(&mut out, qubit, axis);
        }
        Op::ControlledRot {
            control,
            target,
            axis,
            ..
        } => {
            // G = |1⟩⟨1|_c ⊗ σ_t: project onto control=1 then apply σ.
            let mask = 1usize << control;
            for (i, a) in out.amplitudes_mut().iter_mut().enumerate() {
                if i & mask == 0 {
                    *a = Complex64::ZERO;
                }
            }
            apply_pauli(&mut out, target, axis);
        }
        _ => unreachable!("apply_generator called on non-parameterised op"),
    }
    out
}

fn apply_pauli(state: &mut StateVector, q: usize, axis: qmarl_qsim::gate::RotationAxis) {
    use qmarl_qsim::gate::RotationAxis as Ax;
    let mask = 1usize << q;
    let amps = state.amplitudes_mut();
    match axis {
        Ax::X => {
            for i in 0..amps.len() {
                if i & mask == 0 {
                    amps.swap(i, i | mask);
                }
            }
        }
        Ax::Y => {
            for i in 0..amps.len() {
                if i & mask == 0 {
                    let a0 = amps[i];
                    let a1 = amps[i | mask];
                    amps[i] = Complex64::new(a1.im, -a1.re);
                    amps[i | mask] = Complex64::new(-a0.im, a0.re);
                }
            }
        }
        Ax::Z => {
            for (i, a) in amps.iter_mut().enumerate() {
                if i & mask != 0 {
                    *a = -*a;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{init_params, layered_ansatz, random_layer_ansatz, RandomLayerConfig};
    use crate::encoder::layered_angle_encoder;
    use qmarl_qsim::gate::RotationAxis as Ax;

    fn paper_like_circuit() -> Circuit {
        let mut c = layered_angle_encoder(4, 16).unwrap();
        c.append_shifted(&layered_ansatz(4, 12).unwrap()).unwrap();
        c
    }

    fn test_inputs() -> Vec<f64> {
        (0..16).map(|i| 0.1 * i as f64 - 0.5).collect()
    }

    #[test]
    fn single_rotation_gradient_analytic() {
        // f(θ) = ⟨Z⟩ after Ry(θ)|0⟩ = cos θ, so f'(θ) = −sin θ.
        let mut c = Circuit::new(1);
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        let readout = Readout::z_all(1);
        for theta in [0.0, 0.4, 1.2, -2.2] {
            let jacs = [
                jacobian(GradMethod::ParameterShift, &c, &readout, &[], &[theta]).unwrap(),
                jacobian(GradMethod::Adjoint, &c, &readout, &[], &[theta]).unwrap(),
                jacobian_finite_diff(&c, &readout, &[], &[theta], 1e-6).unwrap(),
            ];
            for (name, jac) in ["shift", "adjoint", "finite-diff"].iter().zip(&jacs) {
                assert!(
                    (jac.get(0, 0) + theta.sin()).abs() < 1e-6,
                    "{name} at θ={theta}: {} vs {}",
                    jac.get(0, 0),
                    -theta.sin()
                );
            }
        }
    }

    #[test]
    fn all_methods_agree_on_layered_circuit() {
        let c = paper_like_circuit();
        let params = init_params(c.param_count(), 5);
        let inputs = test_inputs();
        let readout = Readout::z_all(4);
        let ps = jacobian_parameter_shift(&c, &readout, &inputs, &params).unwrap();
        let adj = jacobian_adjoint(&c, &readout, &inputs, &params).unwrap();
        let fd = jacobian_finite_diff(&c, &readout, &inputs, &params, 1e-6).unwrap();
        assert!(
            ps.max_abs_diff(&adj) < 1e-9,
            "ps vs adjoint: {}",
            ps.max_abs_diff(&adj)
        );
        assert!(
            ps.max_abs_diff(&fd) < 1e-5,
            "ps vs fd: {}",
            ps.max_abs_diff(&fd)
        );
    }

    #[test]
    fn all_methods_agree_on_random_circuit() {
        let c = {
            let mut c = layered_angle_encoder(4, 4).unwrap();
            c.append_shifted(
                &random_layer_ansatz(
                    4,
                    RandomLayerConfig {
                        gate_budget: 30,
                        rotation_prob: 0.7,
                        seed: 99,
                    },
                )
                .unwrap(),
            )
            .unwrap();
            c
        };
        let params = init_params(c.param_count(), 17);
        let inputs = vec![0.3, -0.7, 1.1, 0.2];
        let readout = Readout::mean_z(4);
        let ps = jacobian_parameter_shift(&c, &readout, &inputs, &params).unwrap();
        let adj = jacobian_adjoint(&c, &readout, &inputs, &params).unwrap();
        let fd = jacobian_finite_diff(&c, &readout, &inputs, &params, 1e-6).unwrap();
        assert!(ps.max_abs_diff(&adj) < 1e-9);
        assert!(ps.max_abs_diff(&fd) < 1e-5);
    }

    #[test]
    fn controlled_rotation_four_term_rule() {
        let mut c = Circuit::new(2);
        c.fixed(0, crate::ir::FixedGate::H).unwrap();
        c.rot(1, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.controlled_rot(0, 1, Ax::Y, Angle::Param(ParamId(1)))
            .unwrap();
        c.controlled_rot(1, 0, Ax::X, Angle::Param(ParamId(2)))
            .unwrap();
        let readout = Readout::z_all(2);
        let params = [0.9, -0.4, 1.7];
        let ps = jacobian_parameter_shift(&c, &readout, &[], &params).unwrap();
        let fd = jacobian_finite_diff(&c, &readout, &[], &params, 1e-6).unwrap();
        let adj = jacobian_adjoint(&c, &readout, &[], &params).unwrap();
        assert!(
            ps.max_abs_diff(&fd) < 1e-5,
            "ps vs fd: {}",
            ps.max_abs_diff(&fd)
        );
        assert!(
            adj.max_abs_diff(&fd) < 1e-5,
            "adj vs fd: {}",
            adj.max_abs_diff(&fd)
        );
    }

    #[test]
    fn shared_parameter_accumulates() {
        // Same param drives two rotations: d/dθ ⟨Z⟩ after Ry(θ)Ry(θ)|0⟩
        // = d/dθ cos(2θ) = −2 sin(2θ).
        let mut c = Circuit::new(1);
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        let readout = Readout::z_all(1);
        let theta = 0.37;
        let jacs = [
            jacobian(GradMethod::ParameterShift, &c, &readout, &[], &[theta]).unwrap(),
            jacobian(GradMethod::Adjoint, &c, &readout, &[], &[theta]).unwrap(),
            jacobian_finite_diff(&c, &readout, &[], &[theta], 1e-6).unwrap(),
        ];
        for (name, jac) in ["shift", "adjoint", "finite-diff"].iter().zip(&jacs) {
            assert!(
                (jac.get(0, 0) + 2.0 * (2.0 * theta).sin()).abs() < 1e-6,
                "{name}: {}",
                jac.get(0, 0)
            );
        }
    }

    #[test]
    fn vjp_chain_rule() {
        let mut jac = Jacobian::zeros(2, 3);
        *jac.get_mut(0, 0) = 1.0;
        *jac.get_mut(0, 2) = 2.0;
        *jac.get_mut(1, 1) = -1.0;
        let g = jac.vjp(&[0.5, 2.0]);
        assert_eq!(g, vec![0.5, -2.0, 1.0]);
        assert_eq!(jac.row(0), &[1.0, 0.0, 2.0]);
    }

    #[test]
    fn vjp_into_reuses_buffer_bit_exactly() {
        let mut jac = Jacobian::zeros(2, 3);
        *jac.get_mut(0, 0) = 0.3;
        *jac.get_mut(0, 2) = -1.7;
        *jac.get_mut(1, 1) = 2.2;
        let upstream = [0.9, -0.4];
        let fresh = jac.vjp(&upstream);
        // A dirty buffer must be overwritten, not accumulated into.
        let mut buf = vec![99.0; 3];
        jac.vjp_into(&upstream, &mut buf);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn from_row_wraps_without_reshaping() {
        let jac = Jacobian::from_row(vec![1.5, -0.5, 0.25]);
        assert_eq!(jac.n_outputs(), 1);
        assert_eq!(jac.n_params(), 3);
        assert_eq!(jac.row(0), &[1.5, -0.5, 0.25]);
        // vjp with a scalar upstream scales the row.
        assert_eq!(jac.vjp(&[-2.0]), vec![-3.0, 1.0, -0.5]);
    }

    #[test]
    fn gradient_of_input_only_circuit_is_empty() {
        let c = layered_angle_encoder(2, 2).unwrap();
        let jac = jacobian_parameter_shift(&c, &Readout::z_all(2), &[0.5, 0.1], &[]).unwrap();
        assert_eq!(jac.n_params(), 0);
    }

    #[test]
    fn errors_propagate() {
        let c = paper_like_circuit();
        let params = init_params(c.param_count(), 1);
        // Wrong input length.
        assert!(jacobian_parameter_shift(&c, &Readout::z_all(4), &[0.0; 3], &params).is_err());
        // Readout off the register.
        let bad = Readout::ZPerQubit { qubits: vec![9] };
        assert!(jacobian_adjoint(&c, &bad, &test_inputs(), &params).is_err());
    }
}
