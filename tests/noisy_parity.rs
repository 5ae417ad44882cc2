//! Integration: the compiled superoperator executor is **exactly** the
//! noisy reference interpreter.
//!
//! The Noisy backend's hot path (`runtime::superop`) prebinds every raw
//! gate and its channel into one dense 4×4 superoperator and walks the
//! vectorized density register with the qsim slab kernels. This suite
//! pins it to the naive per-gate interpreter
//! (`runtime::exec::run_raw_density`) at 1e-12, elementwise over the full
//! density matrix:
//!
//! * on proptest-generated random circuits (every gate kind, every angle
//!   binding form) × {noiseless, depolarizing, mixed custom channels}
//!   (the parameter-shift fork, which rebinds one op of this walk, is
//!   checked against the interpreter's override by the runtime's own
//!   `superop` unit tests, since the fork is crate-private);
//! * on every registered scenario's actor circuit shape;
//! * and, noiseless, against the ideal **statevector** simulator:
//!   `ρ = |ψ⟩⟨ψ|` exactly.

use proptest::prelude::*;
use qmarl::core::prelude::*;
use qmarl::env::prelude::*;
use qmarl::qsim::gate::RotationAxis as Ax;
use qmarl::qsim::noise::{NoiseChannel, NoiseModel};
use qmarl::runtime::exec::run_raw_density;
use qmarl::runtime::prelude::*;
use qmarl::vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};

/// One generated gate: `(kind, wire_a, wire_b, axis, angle_kind, value)`.
type GateSpec = (usize, usize, usize, usize, usize, f64);

fn build_circuit(n_qubits: usize, ops: &[GateSpec]) -> Circuit {
    let mut c = Circuit::new(n_qubits);
    for &(kind, a, b, axis, angle_kind, val) in ops {
        let q = a % n_qubits;
        let mut q2 = b % n_qubits;
        if q2 == q {
            q2 = (q + 1) % n_qubits;
        }
        let axis = [Ax::X, Ax::Y, Ax::Z][axis % 3];
        let angle = match angle_kind % 3 {
            0 => Angle::Const(val),
            1 => Angle::Input(InputId(a % 3)),
            _ => Angle::Param(ParamId(b % 4)),
        };
        match kind % 5 {
            0 => c.rot(q, axis, angle).unwrap(),
            1 => c.controlled_rot(q, q2, axis, angle).unwrap(),
            2 => c.cnot(q, q2).unwrap(),
            3 => c.cz(q, q2).unwrap(),
            _ => c
                .fixed(
                    q,
                    [FixedGate::H, FixedGate::X, FixedGate::S, FixedGate::T][a % 4],
                )
                .unwrap(),
        };
    }
    c
}

fn bindings_for(compiled: &CompiledCircuit) -> (Vec<f64>, Vec<f64>) {
    let inputs = (0..compiled.n_inputs())
        .map(|i| 0.2 + 0.13 * i as f64)
        .collect();
    let params = (0..compiled.n_params())
        .map(|p| -0.9 + 0.17 * p as f64)
        .collect();
    (inputs, params)
}

/// Elementwise 1e-12 parity of the prebound superoperator walk against
/// the interpreter, under one noise model.
fn assert_superop_parity(
    compiled: &CompiledCircuit,
    inputs: &[f64],
    params: &[f64],
    noise: &NoiseModel,
    label: &str,
) {
    let reference =
        run_raw_density(compiled, inputs, params, noise, None).expect("interpreter runs");
    let pb = prebind_density(compiled, params, noise).expect("prebinds");
    let fast = run_density(&pb, inputs).expect("superop runs");
    let dim = reference.dim();
    for r in 0..dim {
        for c in 0..dim {
            let a = fast.element(r, c);
            let b = reference.element(r, c);
            assert!(
                (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                "{label}: ρ[{r}][{c}] = {a:?} vs interpreter {b:?}"
            );
        }
    }
}

fn noise_models() -> Vec<(&'static str, NoiseModel)> {
    vec![
        ("noiseless", NoiseModel::noiseless()),
        (
            "depolarizing",
            NoiseModel::depolarizing(0.01, 0.02).unwrap(),
        ),
        (
            "mixed-custom",
            NoiseModel {
                after_gate1: Some(NoiseChannel::AmplitudeDamping { gamma: 0.1 }),
                after_gate2: Some(NoiseChannel::BitFlip { p: 0.05 }),
            },
        ),
    ]
}

proptest! {
    /// Random circuits: the compiled superoperator path equals the
    /// interpreter on every noise model.
    #[test]
    fn superop_matches_interpreter_on_random_circuits(
        n_qubits in 2usize..5,
        ops in prop::collection::vec(
            (0usize..5, 0usize..8, 0usize..8, 0usize..3, 0usize..3, -3.0f64..3.0),
            1..24,
        ),
    ) {
        let circuit = build_circuit(n_qubits, &ops);
        let compiled = compile(&circuit);
        let (inputs, params) = bindings_for(&compiled);
        for (label, noise) in noise_models() {
            assert_superop_parity(&compiled, &inputs, &params, &noise, label);
        }
    }
}

#[test]
fn superop_matches_interpreter_on_every_registered_scenario_shape() {
    for spec in scenarios() {
        let env = spec.build(3).expect("scenario builds");
        let actor = QuantumActor::new(
            env.n_actions().max(4),
            env.obs_dim(),
            env.n_actions(),
            50.max(2 * env.n_actions() + 8),
            3,
        )
        .expect("actor builds");
        let compiled = actor.compiled().compiled().clone();
        let (inputs, params) = bindings_for(&compiled);
        for (label, noise) in noise_models() {
            assert_superop_parity(
                &compiled,
                &inputs,
                &params,
                &noise,
                &format!("{} / {label}", spec.name()),
            );
        }
    }
}

#[test]
fn noiseless_density_equals_the_ideal_statevector_outer_product() {
    for spec in scenarios() {
        let env = spec.build(5).expect("scenario builds");
        let actor = QuantumActor::new(
            env.n_actions().max(4),
            env.obs_dim(),
            env.n_actions(),
            50.max(2 * env.n_actions() + 8),
            5,
        )
        .expect("actor builds");
        let compiled = actor.compiled().compiled().clone();
        let (inputs, params) = bindings_for(&compiled);
        let pb = prebind_density(&compiled, &params, &NoiseModel::noiseless()).unwrap();
        let rho = run_density(&pb, &inputs).unwrap();
        let psi = run_prebound(&prebind(&compiled, &params).unwrap(), &inputs).unwrap();
        let amps = psi.amplitudes();
        for r in 0..rho.dim() {
            for c in 0..rho.dim() {
                let want = amps[r] * amps[c].conj();
                let got = rho.element(r, c);
                assert!(
                    (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                    "{}: ρ[{r}][{c}] = {got:?} vs |ψ⟩⟨ψ| {want:?}",
                    spec.name()
                );
            }
        }
    }
}
