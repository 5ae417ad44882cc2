//! Property-based tests for the batched runtime: the equivalence
//! guarantees the acceptance criteria pin at 1e-12.

use proptest::prelude::*;

use qmarl_qsim::gate::RotationAxis;
use qmarl_runtime::prelude::*;
use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};
use qmarl_vqc::observable::Readout;

/// Strategy: one random circuit op as plain data.
#[derive(Debug, Clone)]
enum ArbOp {
    Rot(usize, RotationAxis, ArbAngle),
    CRot(usize, usize, RotationAxis, ArbAngle),
    Cnot(usize, usize),
    Cz(usize, usize),
    Fixed(usize, FixedGate),
}

#[derive(Debug, Clone, Copy)]
enum ArbAngle {
    Input(usize),
    Param(usize),
    Const(f64),
}

fn arb_axis() -> impl Strategy<Value = RotationAxis> {
    prop_oneof![
        Just(RotationAxis::X),
        Just(RotationAxis::Y),
        Just(RotationAxis::Z)
    ]
}

fn arb_angle(n_inputs: usize, n_params: usize) -> impl Strategy<Value = ArbAngle> {
    prop_oneof![
        (0..n_inputs).prop_map(ArbAngle::Input),
        (0..n_params).prop_map(ArbAngle::Param),
        (-3.0f64..3.0).prop_map(ArbAngle::Const),
    ]
}

fn arb_fixed() -> impl Strategy<Value = FixedGate> {
    prop_oneof![
        Just(FixedGate::H),
        Just(FixedGate::X),
        Just(FixedGate::Y),
        Just(FixedGate::Z),
        Just(FixedGate::S),
        Just(FixedGate::T)
    ]
}

fn arb_ops(
    n_qubits: usize,
    n_inputs: usize,
    n_params: usize,
    max_len: usize,
) -> impl Strategy<Value = Vec<ArbOp>> {
    let rot = (0..n_qubits, arb_axis(), arb_angle(n_inputs, n_params))
        .prop_map(|(q, ax, a)| ArbOp::Rot(q, ax, a));
    let crot = (
        0..n_qubits,
        0..n_qubits.saturating_sub(1),
        arb_axis(),
        arb_angle(n_inputs, n_params),
    )
        .prop_map(move |(c, t0, ax, a)| {
            let t = if t0 >= c { t0 + 1 } else { t0 };
            ArbOp::CRot(c, t, ax, a)
        });
    let cnot = (0..n_qubits, 0..n_qubits.saturating_sub(1)).prop_map(move |(c, t0)| {
        let t = if t0 >= c { t0 + 1 } else { t0 };
        ArbOp::Cnot(c, t)
    });
    let cz = (0..n_qubits, 0..n_qubits.saturating_sub(1)).prop_map(move |(c, t0)| {
        let t = if t0 >= c { t0 + 1 } else { t0 };
        ArbOp::Cz(c, t)
    });
    let fixed = (0..n_qubits, arb_fixed()).prop_map(|(q, g)| ArbOp::Fixed(q, g));
    // Rotation-heavy mix so the fusion pass has real work to do.
    prop::collection::vec(
        prop_oneof![5 => rot, 2 => crot, 1 => cnot, 1 => cz, 2 => fixed],
        1..max_len,
    )
}

fn build(n_qubits: usize, n_inputs: usize, n_params: usize, ops: &[ArbOp]) -> Circuit {
    let mut c = Circuit::new(n_qubits);
    // Anchor arity so random circuits always accept full binding vectors.
    c.rot(0, RotationAxis::X, Angle::Input(InputId(n_inputs - 1)))
        .unwrap();
    c.rot(0, RotationAxis::X, Angle::Param(ParamId(n_params - 1)))
        .unwrap();
    for op in ops {
        match *op {
            ArbOp::Rot(q, ax, a) => {
                c.rot(q, ax, lower_angle(a)).unwrap();
            }
            ArbOp::CRot(ctl, t, ax, a) => {
                c.controlled_rot(ctl, t, ax, lower_angle(a)).unwrap();
            }
            ArbOp::Cnot(ctl, t) => {
                c.cnot(ctl, t).unwrap();
            }
            ArbOp::Cz(ctl, t) => {
                c.cz(ctl, t).unwrap();
            }
            ArbOp::Fixed(q, g) => {
                c.fixed(q, g).unwrap();
            }
        }
    }
    c
}

fn lower_angle(a: ArbAngle) -> Angle {
    match a {
        ArbAngle::Input(i) => Angle::Input(InputId(i)),
        ArbAngle::Param(p) => Angle::Param(ParamId(p)),
        ArbAngle::Const(c) => Angle::Const(c),
    }
}

const TOL: f64 = 1e-12;

const IDEAL: ExecutionBackend = ExecutionBackend::Ideal;

proptest! {
    /// Batched execution ≡ serial `vqc::exec::run`, amplitude by
    /// amplitude, across randomized circuits and batch sizes.
    #[test]
    fn batched_equals_serial_amplitudes(
        ops in arb_ops(4, 3, 5, 30),
        inputs in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 3), 1..9),
        params in prop::collection::vec(-2.0f64..2.0, 5),
        workers in 1usize..9,
    ) {
        let circuit = build(4, 3, 5, &ops);
        let compiled = compile(&circuit);
        let pb = prebind(&compiled, &params).unwrap();
        let readout = Readout::z_all(4);
        let batched = BatchExecutor::new(workers)
            .expectation_batch_backend(&compiled, &readout, &inputs, &params, &IDEAL)
            .unwrap();
        for (item, out) in inputs.iter().zip(&batched) {
            let state = run_prebound(&pb, item).unwrap();
            let reference = qmarl_vqc::exec::run(&circuit, item, &params).unwrap();
            for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
                prop_assert!((*a - *b).abs() < TOL, "amplitude drift {:e}", (*a - *b).abs());
            }
            // Lane slabs read out exactly what the single-state walk does.
            prop_assert_eq!(out, &readout.evaluate(&state).unwrap());
        }
    }

    /// Fused and unfused schedules are the same unitary.
    #[test]
    fn fused_equals_unfused(
        ops in arb_ops(3, 2, 4, 40),
        inputs in prop::collection::vec(-2.0f64..2.0, 2),
        params in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        let circuit = build(3, 2, 4, &ops);
        let compiled = compile(&circuit);
        let fused = run_prebound(&prebind(&compiled, &params).unwrap(), &inputs).unwrap();
        // The raw schedule re-runs through the serial interpreter.
        let reference = qmarl_vqc::exec::run(&circuit, &inputs, &params).unwrap();
        for (a, b) in fused.amplitudes().iter().zip(reference.amplitudes()) {
            prop_assert!((*a - *b).abs() < TOL);
        }
        // And fusion actually fires on rotation-heavy circuits sometimes;
        // at minimum it never grows the schedule.
        prop_assert!(compiled.fused_schedule().len() <= compiled.raw_schedule().len());
    }

    /// Batched expectations ≡ serial readout evaluation.
    #[test]
    fn batched_expectations_equal_serial(
        ops in arb_ops(3, 2, 4, 25),
        inputs in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 2), 1..6),
        params in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        let circuit = build(3, 2, 4, &ops);
        let compiled = compile(&circuit);
        for readout in [Readout::z_all(3), Readout::mean_z(3)] {
            let outs = BatchExecutor::new(4)
                .expectation_batch_backend(&compiled, &readout, &inputs, &params, &IDEAL)
                .unwrap();
            for (item, out) in inputs.iter().zip(&outs) {
                let state = qmarl_vqc::exec::run(&circuit, item, &params).unwrap();
                let reference = readout.evaluate(&state).unwrap();
                for (a, b) in out.iter().zip(&reference) {
                    prop_assert!((a - b).abs() < TOL);
                }
            }
        }
    }

    /// Batched parameter-shift ≡ `vqc::grad::jacobian_parameter_shift`
    /// per sample, including controlled (four-term) occurrences.
    #[test]
    fn batched_jacobian_equals_serial(
        ops in arb_ops(3, 2, 4, 18),
        inputs in prop::collection::vec(prop::collection::vec(-1.5f64..1.5, 2), 1..4),
        params in prop::collection::vec(-1.5f64..1.5, 4),
    ) {
        let circuit = build(3, 2, 4, &ops);
        let compiled = compile(&circuit);
        let readout = Readout::z_all(3);
        let (_, jacs) = BatchExecutor::new(4)
            .forward_and_jacobian_batch_backend(&compiled, &readout, &inputs, &params, &IDEAL)
            .unwrap();
        for (item, jac) in inputs.iter().zip(&jacs) {
            let reference =
                qmarl_vqc::grad::jacobian_parameter_shift(&circuit, &readout, item, &params)
                    .unwrap();
            prop_assert!(jac.max_abs_diff(&reference) < TOL,
                "jacobian drift {:e}", jac.max_abs_diff(&reference));
        }
    }

    /// The compiled-circuit cache returns one shared compilation per
    /// structure and never changes results.
    #[test]
    fn cache_roundtrip_preserves_semantics(
        ops in arb_ops(3, 2, 4, 20),
        inputs in prop::collection::vec(-2.0f64..2.0, 2),
        params in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        let circuit = build(3, 2, 4, &ops);
        let cache = CircuitCache::new();
        let c1 = cache.get_or_compile(&circuit);
        let c2 = cache.get_or_compile(&circuit);
        prop_assert!(std::sync::Arc::ptr_eq(&c1, &c2));
        let a = run_prebound(&prebind(&c1, &params).unwrap(), &inputs).unwrap();
        let b = qmarl_vqc::exec::run(&circuit, &inputs, &params).unwrap();
        prop_assert!((a.fidelity(&b).unwrap() - 1.0).abs() < TOL);
    }
}

mod common;

/// The lockstep collector's lanes are its parallel episode streams.
mod rollout_equivalence {
    use super::common::{random_policy, serial_reference};
    use qmarl_env::single_hop::{EnvConfig, SingleHopEnv};
    use qmarl_env::vector::ReplicatedVecEnv;
    use qmarl_runtime::rollout::{collect_episodes_vec, EpisodeTrace};

    fn env(limit: usize) -> SingleHopEnv {
        let mut cfg = EnvConfig::paper_default();
        cfg.episode_limit = limit;
        SingleHopEnv::new(cfg, 0).unwrap()
    }

    fn collect(template: &SingleHopEnv, lanes: usize, n: usize, seed: u64) -> Vec<EpisodeTrace> {
        let mut venv = ReplicatedVecEnv::new(template, lanes).unwrap();
        collect_episodes_vec(&mut venv, &mut random_policy(4, 4), n, seed).unwrap()
    }

    #[test]
    fn parallel_rollouts_equal_serial_reference_for_one_worker() {
        let template = env(10);
        assert_eq!(
            collect(&template, 1, 5, 99),
            serial_reference(&template, 5, 99)
        );
    }

    #[test]
    fn parallel_rollouts_independent_of_worker_count() {
        let template = env(15);
        let one = collect(&template, 1, 6, 5);
        for lanes in [2, 3, 8] {
            assert_eq!(collect(&template, lanes, 6, 5), one, "lanes={lanes}");
        }
    }
}
