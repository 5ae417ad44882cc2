//! Quantum-trajectory execution: statevector sampling of a noise model.
//!
//! The [`crate::superop`] path evolves the exact `4^n` density register;
//! this module trades exactness for statevector-sized work. One
//! **trajectory** runs the raw schedule on a pure state and, after every
//! gate, samples the channel on every touched wire
//! ([`qmarl_qsim::noise::NoiseChannel::sample_pauli_error`]): with
//! probability `p` a Pauli error is applied, otherwise nothing. Averaging
//! readouts over `samples` trajectories converges to the density result
//! at `O(1/√samples)` for Pauli channels — `samples · 2^n` amplitudes of
//! work instead of `4^n` per evaluation.
//!
//! Execution reuses the prebound slab infrastructure: all trajectories
//! of one evaluation share the same bindings, so the `samples`
//! statevectors form the lanes of one [`crate::prebound`] walk, with rare
//! per-lane Pauli patches where a sample's error fired. The binding is
//! [`crate::prebound::prebind_adjoint`]'s plus the two noise channels,
//! and every gate, forward or inverse, runs through the prebound walker.
//!
//! # Determinism
//!
//! Trajectory `i` of an evaluation draws from its own
//! [`rand::rngs::StdRng`] seeded with
//! `derive_seed(eval_seed, TRAJ_STREAM, i)`, where `eval_seed` is the
//! content-addressed per-evaluation seed of [`crate::backend`]. Streams
//! depend only on `(root seed, inputs, params, shift salt, sample
//! index)` — never on worker count, batch position, or lane layout — so
//! serial and batched execution are bit-identical and every rerun
//! reproduces. Within a lane, draws happen in schedule order, wires
//! control before target: exactly the consumption order of the reference
//! interpreter [`qmarl_vqc::exec::run_trajectory`], which lane-for-lane
//! parity tests pin down.
//!
//! # Gradients
//!
//! Because the jump sampling is parameter-independent, a fixed seed makes
//! every trajectory a deterministic circuit — so the sampled estimator has
//! an **exact** gradient, computed by `run_trajectory_adjoint` with one
//! forward walk plus the `Ideal` adjoint's reverse sweep over the shared
//! slab (the per-trajectory adjoint) instead of `O(params)` shifted
//! re-evaluations. This is what makes the trajectory backend's update
//! sweeps orders of magnitude faster than density-matrix parameter-shift
//! at equal noise fidelity in expectation.

use qmarl_qsim::complex::Complex64;
use qmarl_qsim::gate::Gate1;
use qmarl_qsim::noise::{NoiseChannel, NoiseModel};
use qmarl_vqc::grad::Jacobian;
use qmarl_vqc::observable::Readout;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::TRAJ_STREAM;
use crate::compile::CompiledCircuit;
use crate::error::RuntimeError;
use crate::prebound::{
    prebind_adjoint, readouts_from_slab, reverse_sweep, walk, LaneScratch, PreboundAdjoint,
};
use crate::rollout::derive_seed;

/// A compiled circuit bound to `(params, noise)` for trajectory sampling:
/// the raw schedule's adjoint binding plus the channels drawn after one-
/// and two-qubit gates.
#[derive(Debug, Clone)]
pub struct TrajPrebound {
    circuit: PreboundAdjoint,
    after_gate1: Option<NoiseChannel>,
    after_gate2: Option<NoiseChannel>,
}

impl TrajPrebound {
    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }

    /// Expected input-vector length.
    pub fn n_inputs(&self) -> usize {
        self.circuit.n_inputs()
    }

    /// Trainable-parameter count of the bound circuit.
    pub fn n_params(&self) -> usize {
        self.circuit.n_params()
    }

    /// The frozen parameter vector this schedule was bound with.
    pub fn params(&self) -> &[f64] {
        self.circuit.params()
    }
}

/// Binds the **raw** schedule of a compiled circuit to `(params, noise)`
/// for trajectory sampling, hoisting every parameter-only rotation's trig.
///
/// # Errors
///
/// Returns a parameter-arity or noise-validation error.
pub fn prebind_trajectory(
    compiled: &CompiledCircuit,
    params: &[f64],
    noise: &NoiseModel,
) -> Result<TrajPrebound, RuntimeError> {
    noise.validate()?;
    Ok(TrajPrebound {
        circuit: prebind_adjoint(compiled, params)?,
        after_gate1: noise.after_gate1,
        after_gate2: noise.after_gate2,
    })
}

/// Applies a single-qubit gate to **one lane** of the slab — the Pauli
/// patch of a fired error. Same arithmetic as the interpreter's
/// `apply_gate1` (generic 2×2 product), strided over the lane.
fn apply_gate1_lane(
    slab: &mut [Complex64],
    lanes: usize,
    dim: usize,
    q: usize,
    g: &Gate1,
    lane: usize,
) {
    let m = g.matrix();
    let mask = 1usize << q;
    for i in 0..dim {
        if i & mask != 0 {
            continue;
        }
        let a = slab[i * lanes + lane];
        let b = slab[(i | mask) * lanes + lane];
        slab[i * lanes + lane] = m[0][0] * a + m[0][1] * b;
        slab[(i | mask) * lanes + lane] = m[1][0] * a + m[1][1] * b;
    }
}

/// The fired Pauli errors of one forward walk: `record[k]` lists the
/// `(wire, lane, gate)` patches applied after schedule op `k`, in
/// application order. Un-applying them newest-first (Paulis are
/// self-inverse) restores the pre-patch slab bit-exactly.
type JumpRecord = Vec<Vec<(usize, usize, Gate1)>>;

/// Runs `samples` trajectories of one evaluation as the lanes of a single
/// slab walk, returning `slab[amp · samples + sample]`. `eval_seed` is
/// the content-addressed per-evaluation seed the per-sample streams
/// derive from. With `record`, every fired error is also logged for the
/// adjoint's reverse sweep — the rng draw sequence is identical either
/// way.
fn walk_forward(
    pb: &TrajPrebound,
    inputs: &[f64],
    samples: usize,
    eval_seed: u64,
    mut record: Option<&mut JumpRecord>,
) -> Vec<Complex64> {
    let lanes = samples;
    if lanes == 0 {
        return Vec::new();
    }
    let dim = 1usize << pb.n_qubits();
    let mut slab = vec![Complex64::ZERO; dim * lanes];
    for cell in slab[..lanes].iter_mut() {
        *cell = Complex64::ONE; // every trajectory starts in |0…0⟩
    }
    let mut rngs: Vec<StdRng> = (0..samples)
        .map(|i| StdRng::seed_from_u64(derive_seed(eval_seed, TRAJ_STREAM, i as u64)))
        .collect();
    let mut scratch = LaneScratch::default();
    for (k, op) in pb.circuit.ops().iter().enumerate() {
        // 1. The gate, uniform across lanes (all trajectories share the
        //    same bindings).
        let op_k = std::slice::from_ref(op);
        let slabs = &mut [slab.as_mut_slice()];
        walk(slabs, lanes, op_k, &[inputs], pb.params(), &mut scratch);
        // 2. The channel: each lane draws from its own stream, wires
        //    control before target — the interpreter's order.
        let (mt, mc) = op.masks();
        let channel = if mc == 0 {
            pb.after_gate1
        } else {
            pb.after_gate2
        };
        if let Some(ch) = channel {
            for m in [mc, mt].into_iter().filter(|&m| m != 0) {
                let w = m.trailing_zeros() as usize;
                for (lane, rng) in rngs.iter_mut().enumerate() {
                    if let Some(err) = ch.sample_pauli_error(rng) {
                        apply_gate1_lane(&mut slab, lanes, dim, w, &err, lane);
                        if let Some(rec) = record.as_deref_mut() {
                            rec[k].push((w, lane, err));
                        }
                    }
                }
            }
        }
    }
    slab
}

/// [`walk_forward`] without jump recording — the forward-only entry point
/// of readout evaluation.
pub(crate) fn run_trajectory_slab(
    pb: &TrajPrebound,
    inputs: &[f64],
    samples: usize,
    eval_seed: u64,
) -> Vec<Complex64> {
    walk_forward(pb, inputs, samples, eval_seed, None)
}

/// One backend evaluation by trajectory sampling: runs `samples`
/// trajectories and returns the readout averaged over them in ascending
/// sample order.
pub(crate) fn trajectory_outputs(
    pb: &TrajPrebound,
    readout: &Readout,
    inputs: &[f64],
    samples: usize,
    eval_seed: u64,
) -> Vec<f64> {
    let slab = run_trajectory_slab(pb, inputs, samples, eval_seed);
    mean_over_samples(readout, &slab, samples)
}

/// The readout averaged over the slab's lanes in ascending sample order —
/// the estimator both the forward pass and the adjoint report, so their
/// outputs are bit-identical by construction.
fn mean_over_samples(readout: &Readout, slab: &[Complex64], samples: usize) -> Vec<f64> {
    let per_sample = readouts_from_slab(readout, slab, samples);
    let mut acc = vec![0.0f64; readout.output_len()];
    for out in &per_sample {
        for (a, v) in acc.iter_mut().zip(out) {
            *a += v;
        }
    }
    for a in &mut acc {
        *a /= samples as f64;
    }
    acc
}

/// One backend evaluation **with gradient** by the per-trajectory adjoint.
///
/// The jump probabilities of [`NoiseChannel::sample_pauli_error`] never
/// depend on the circuit parameters, so with the derived per-sample
/// streams fixed, every trajectory is a deterministic circuit: the
/// schedule's gates interleaved with that lane's fired Pauli patches. The
/// sampled estimator `Ê(θ) = mean_i ⟨ψ_i(θ)|O|ψ_i(θ)⟩` is therefore
/// differentiable exactly, and its gradient is the lane-mean of each
/// trajectory's adjoint gradient — one forward walk (recording the fired
/// jumps) plus one reverse sweep over the shared slab, instead of two
/// (four for controlled rotations) full re-evaluations per parameter that
/// the shift rule costs.
///
/// The reverse sweep is [`crate::prebound`]'s `Ideal` one; its hook
/// un-applies each op's recorded patches (Paulis are self-inverse, so the
/// un-apply is bit-exact) from φ and every λ before the op's
/// contribution, and its fold sums the lanes in order (the `/samples`
/// scale is applied once at the end). Forward outputs are bit-identical
/// to [`trajectory_outputs`]: same walk, same mean.
pub(crate) fn run_trajectory_adjoint(
    pb: &TrajPrebound,
    readout: &Readout,
    inputs: &[f64],
    samples: usize,
    eval_seed: u64,
) -> (Vec<f64>, Jacobian) {
    let lanes = samples;
    let n_out = readout.output_len();
    let mut jac = Jacobian::zeros(n_out, pb.n_params());
    if lanes == 0 {
        return (vec![0.0; n_out], jac);
    }
    let dim = 1usize << pb.n_qubits();
    let mut record: JumpRecord = vec![Vec::new(); pb.circuit.ops().len()];
    let mut phi = walk_forward(pb, inputs, samples, eval_seed, Some(&mut record));
    let outs = mean_over_samples(readout, &phi, samples);

    let unpatch = |k: usize, regs: &mut [&mut [Complex64]]| {
        for &(w, lane, g) in record[k].iter().rev() {
            for reg in regs.iter_mut() {
                apply_gate1_lane(reg, lanes, dim, w, &g, lane);
            }
        }
    };
    let fold = |p: usize, accs: &[f64]| {
        for j in 0..n_out {
            let mut sum = 0.0;
            for lane in 0..lanes {
                sum += accs[j * lanes + lane];
            }
            *jac.get_mut(j, p) += sum;
        }
    };
    reverse_sweep(
        &pb.circuit,
        readout,
        &mut phi,
        lanes,
        &[inputs],
        unpatch,
        fold,
    );
    let scale = 1.0 / samples as f64;
    for j in 0..n_out {
        for p in 0..pb.n_params() {
            *jac.get_mut(j, p) *= scale;
        }
    }
    (outs, jac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::prebound::{prebind, run_adjoint_slab, run_prebound};
    use qmarl_qsim::gate::RotationAxis as Ax;
    use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};

    fn busy_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.fixed(0, FixedGate::H).unwrap();
        c.rot(0, Ax::X, Angle::Input(InputId(0))).unwrap();
        c.rot(1, Ax::Z, Angle::Input(InputId(1))).unwrap();
        c.rot(1, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.controlled_rot(0, 1, Ax::X, Angle::Param(ParamId(1)))
            .unwrap();
        c.controlled_rot(1, 2, Ax::Z, Angle::Input(InputId(0)))
            .unwrap();
        c.cnot(1, 2).unwrap();
        c.cz(0, 2).unwrap();
        c.rot(2, Ax::Z, Angle::Const(0.7)).unwrap();
        c
    }

    #[test]
    fn slab_lanes_match_the_vqc_reference_interpreter() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.9, -1.3];
        let inputs = [0.4, -0.6];
        let noise = NoiseModel::depolarizing(0.15, 0.25).unwrap();
        let pb = prebind_trajectory(&compiled, &params, &noise).unwrap();
        let samples = 8;
        let eval_seed = 0xDEAD_BEEF;
        let slab = run_trajectory_slab(&pb, &inputs, samples, eval_seed);
        for lane in 0..samples {
            let mut rng = StdRng::seed_from_u64(derive_seed(eval_seed, TRAJ_STREAM, lane as u64));
            let reference =
                qmarl_vqc::exec::run_trajectory(&c, &inputs, &params, &noise, &mut rng).unwrap();
            for (i, want) in reference.amplitudes().iter().enumerate() {
                let got = slab[i * samples + lane];
                assert!(
                    (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                    "lane {lane} amp {i}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn noiseless_trajectories_all_equal_the_pure_state() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.9, -1.3];
        let inputs = [0.4, -0.6];
        let pb = prebind_trajectory(&compiled, &params, &NoiseModel::noiseless()).unwrap();
        let samples = 4;
        let slab = run_trajectory_slab(&pb, &inputs, samples, 123);
        let pure = run_prebound(&prebind(&compiled, &params).unwrap(), &inputs).unwrap();
        for lane in 0..samples {
            for (i, want) in pure.amplitudes().iter().enumerate() {
                let got = slab[i * samples + lane];
                assert!(
                    (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                    "lane {lane} amp {i}"
                );
            }
        }
    }

    #[test]
    fn sample_streams_are_independent_of_sample_count() {
        // Trajectory i draws from derive_seed(eval_seed, TRAJ_STREAM, i)
        // regardless of how many trajectories run alongside it, so a
        // prefix of a bigger run is bit-identical to a smaller run.
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.9, -1.3];
        let inputs = [0.4, -0.6];
        let noise = NoiseModel::depolarizing(0.3, 0.4).unwrap();
        let pb = prebind_trajectory(&compiled, &params, &noise).unwrap();
        let small = run_trajectory_slab(&pb, &inputs, 3, 55);
        let big = run_trajectory_slab(&pb, &inputs, 9, 55);
        let dim = 1usize << pb.n_qubits();
        for lane in 0..3 {
            for i in 0..dim {
                assert_eq!(
                    small[i * 3 + lane],
                    big[i * 9 + lane],
                    "lane {lane} amp {i}"
                );
            }
        }
    }

    #[test]
    fn outputs_average_over_samples_and_arity_is_validated() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.9, -1.3];
        let noise = NoiseModel::depolarizing(0.1, 0.1).unwrap();
        let pb = prebind_trajectory(&compiled, &params, &noise).unwrap();
        assert_eq!(pb.n_qubits(), 3);
        assert_eq!(pb.n_inputs(), 2);
        assert_eq!(pb.params(), &params[..]);
        assert!(matches!(
            prebind_trajectory(&compiled, &params[..1], &noise),
            Err(RuntimeError::ParamLenMismatch { .. })
        ));
        let readout = Readout::z_all(3);
        let out = trajectory_outputs(&pb, &readout, &[0.4, -0.6], 16, 77);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|z| (-1.0..=1.0).contains(z)));
        // The mean equals the hand-folded per-sample mean.
        let slab = run_trajectory_slab(&pb, &[0.4, -0.6], 16, 77);
        let per_sample = readouts_from_slab(&readout, &slab, 16);
        for (q, z) in out.iter().enumerate() {
            let want = per_sample.iter().map(|o| o[q]).sum::<f64>() / 16.0;
            assert_eq!(*z, want);
        }
    }

    /// One parameter feeding two rotations (plain and controlled): the
    /// adjoint must sum both occurrences' contributions.
    fn shared_param_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.fixed(0, FixedGate::H).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.cnot(0, 1).unwrap();
        c.rot(1, Ax::X, Angle::Param(ParamId(0))).unwrap();
        c.controlled_rot(0, 1, Ax::Y, Angle::Param(ParamId(1)))
            .unwrap();
        c.rot(1, Ax::Z, Angle::Input(InputId(0))).unwrap();
        c
    }

    #[test]
    fn noiseless_adjoint_matches_the_ideal_adjoint() {
        for (c, params, inputs) in [
            (busy_circuit(), vec![0.9, -1.3], vec![0.4, -0.6]),
            (shared_param_circuit(), vec![0.5, 1.1], vec![-0.3]),
        ] {
            let compiled = compile(&c);
            let readout = Readout::z_all(c.n_qubits());
            let pb = prebind_trajectory(&compiled, &params, &NoiseModel::noiseless()).unwrap();
            // Two identical lanes sum and halve exactly, so two noiseless
            // trajectories reproduce the Ideal adjoint bit for bit.
            let ideal = run_adjoint_slab(
                &prebind_adjoint(&compiled, &params).unwrap(),
                &readout,
                &[&inputs],
            );
            let (outs, jac) = run_trajectory_adjoint(&pb, &readout, &inputs, 2, 321);
            assert_eq!((outs, jac), ideal[0]);
            let (outs, jac) = run_trajectory_adjoint(&pb, &readout, &inputs, 4, 321);
            let state = qmarl_vqc::exec::run(&c, &inputs, &params).unwrap();
            let want_outs = readout.evaluate(&state).unwrap();
            let want_jac =
                qmarl_vqc::grad::jacobian_adjoint(&c, &readout, &inputs, &params).unwrap();
            for (got, want) in outs.iter().zip(&want_outs) {
                assert!((got - want).abs() < 1e-12, "output {got} vs {want}");
            }
            assert_eq!(jac.n_outputs(), want_jac.n_outputs());
            assert_eq!(jac.n_params(), want_jac.n_params());
            for j in 0..jac.n_outputs() {
                for p in 0..jac.n_params() {
                    let (got, want) = (jac.get(j, p), want_jac.get(j, p));
                    assert!((got - want).abs() < 1e-12, "jac[{j},{p}]: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn adjoint_forward_outputs_are_bit_identical_to_the_sampler() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.9, -1.3];
        let inputs = [0.4, -0.6];
        let noise = NoiseModel::depolarizing(0.2, 0.3).unwrap();
        let pb = prebind_trajectory(&compiled, &params, &noise).unwrap();
        let readout = Readout::z_all(3);
        let (outs, _) = run_trajectory_adjoint(&pb, &readout, &inputs, 16, 77);
        let plain = trajectory_outputs(&pb, &readout, &inputs, 16, 77);
        assert_eq!(outs, plain, "recording jumps must not perturb the walk");
    }

    #[test]
    fn adjoint_gradient_is_the_exact_derivative_of_the_sampled_estimator() {
        // The jump draws are parameter-independent, so central differences
        // through re-prebound (θ ± ε) forward runs with the same eval
        // seed differentiate the exact same deterministic estimator the
        // adjoint does.
        let eps = 1e-5;
        for (c, params, inputs) in [
            (busy_circuit(), vec![0.9, -1.3], vec![0.4, -0.6]),
            (shared_param_circuit(), vec![0.5, 1.1], vec![-0.3]),
        ] {
            let compiled = compile(&c);
            let readout = Readout::z_all(c.n_qubits());
            let noise = NoiseModel::depolarizing(0.2, 0.3).unwrap();
            let (samples, eval_seed) = (12, 0xFEED);
            let pb = prebind_trajectory(&compiled, &params, &noise).unwrap();
            let (_, jac) = run_trajectory_adjoint(&pb, &readout, &inputs, samples, eval_seed);
            for p in 0..params.len() {
                let mut hi = params.clone();
                hi[p] += eps;
                let mut lo = params.clone();
                lo[p] -= eps;
                let pb_hi = prebind_trajectory(&compiled, &hi, &noise).unwrap();
                let pb_lo = prebind_trajectory(&compiled, &lo, &noise).unwrap();
                let out_hi = trajectory_outputs(&pb_hi, &readout, &inputs, samples, eval_seed);
                let out_lo = trajectory_outputs(&pb_lo, &readout, &inputs, samples, eval_seed);
                for j in 0..readout.output_len() {
                    let fd = (out_hi[j] - out_lo[j]) / (2.0 * eps);
                    let got = jac.get(j, p);
                    assert!(
                        (got - fd).abs() < 1e-6,
                        "jac[{j},{p}]: adjoint {got} vs finite-diff {fd}"
                    );
                }
            }
        }
    }
}
