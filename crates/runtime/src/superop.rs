//! Compiled superoperator execution of the Noisy backend.
//!
//! The interpreter path ([`crate::exec::run_raw_density`]) walks the raw
//! schedule gate by gate through [`qmarl_qsim::density::DensityMatrix`],
//! whose kernels clone per-column scratch (and, for Kraus channels, the
//! whole matrix per operator) on every application. That is robust but
//! roughly four orders of magnitude slower than the statevector hot path
//! — the `BENCH_backend.json` gap this module closes.
//!
//! [`prebind_density`] compiles a `(CompiledCircuit, params, NoiseModel)`
//! triple once per evaluation batch:
//!
//! * the density matrix is treated as one flat `4^n` vector (row-major:
//!   column bits `0‥n`, row bits `n‥2n`), so every gate becomes in-place
//!   slab passes over the vectorized register — no clones, SIMD kernels
//!   from [`qmarl_qsim::rows`];
//! * every **concrete** single-qubit gate (fixed, or a rotation whose
//!   angle does not reference an input) is premultiplied with the
//!   one-qubit noise channel into a single dense 4×4 superoperator
//!   (`Σᵢ (KᵢU) ⊗ conj(KᵢU)`, see [`qmarl_qsim::superop`]) applied with
//!   one [`qmarl_qsim::rows::Slab::dense4`] pass on the bit pair
//!   `(q, q + n)`;
//! * input-dependent rotations stay symbolic: per-lane trig drives the
//!   rotation on the row bit and its conjugate on the column bit, then
//!   the channel superoperator lands as a dense pass;
//! * CNOT is a pure index permutation, CZ a diagonal sign flip, each
//!   followed by the two-qubit channel superoperator on both wires
//!   (control before target — the interpreter's Kraus order).
//!
//! [`run_density_slab`] then evaluates many circuits (lanes) through one
//! schedule walk. Results agree with the interpreter and
//! `qmarl_vqc::exec::run_noisy` to 1e-12 (asserted here and in
//! `tests/noisy_parity.rs`); they are not bit-identical because the
//! row/column factorization orders floating-point products differently.

use qmarl_qsim::complex::Complex64;
use qmarl_qsim::density::DensityMatrix;
use qmarl_qsim::gate::{Gate1, Gate2, RotationAxis};
use qmarl_qsim::noise::NoiseModel;
use qmarl_qsim::rows;
use qmarl_qsim::superop::{gate_kraus_superop, kraus_superop, unitary_superop};

use crate::compile::{CGate, CompiledCircuit, FusedAngle};
use crate::error::RuntimeError;

/// One op of a density-prebound schedule.
// The dense 4×4 superoperator dominates the enum's size, but DOps are
// hot-loop schedule data read on every lane walk — boxing it would trade
// one-time prebind memory for a pointer chase per gate application.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum DOp {
    /// A concrete single-qubit gate fused with the one-qubit channel into
    /// one dense 4×4 superoperator. `rot` carries `(raw_idx, axis)` when
    /// the source was a rotation, so a parameter-shift override can
    /// rebuild the superoperator from the shifted angle.
    Dense1 {
        q: usize,
        sup: Gate2,
        rot: Option<(usize, RotationAxis)>,
    },
    /// An input-dependent single-qubit rotation: per-lane trig on the row
    /// bit, conjugate trig on the column bit, then the channel.
    Sym1 {
        raw_idx: usize,
        q: usize,
        axis: RotationAxis,
        angle: FusedAngle,
    },
    /// A controlled rotation resolved at prebind time.
    CRotSC {
        raw_idx: usize,
        control: usize,
        target: usize,
        axis: RotationAxis,
        s: f64,
        c: f64,
    },
    /// An input-dependent controlled rotation.
    CRotSym {
        raw_idx: usize,
        control: usize,
        target: usize,
        axis: RotationAxis,
        angle: FusedAngle,
    },
    /// CNOT: a pure index permutation of the vectorized register.
    Cnot { control: usize, target: usize },
    /// CZ: a diagonal sign flip of the vectorized register.
    Cz { control: usize, target: usize },
}

/// A compiled circuit bound to `(params, noise)` for superoperator
/// execution over the vectorized density register.
#[derive(Debug, Clone)]
pub struct DensityPrebound {
    n_qubits: usize,
    n_inputs: usize,
    dim2: usize,
    params: Vec<f64>,
    kraus1: Option<Vec<Gate1>>,
    /// Superoperator of the one-qubit channel alone (for symbolic
    /// rotations, applied after the per-lane rotation passes).
    chan1: Option<Gate2>,
    /// Superoperator of the two-qubit-gate channel, applied per wire.
    chan2: Option<Gate2>,
    ops: Vec<DOp>,
}

impl DensityPrebound {
    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Expected input-vector length.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The frozen parameter vector this schedule was bound with.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Gate (optionally) fused with the one-qubit channel.
    fn fuse1(&self, u: &Gate1) -> Gate2 {
        match &self.kraus1 {
            Some(k) => gate_kraus_superop(u, k),
            None => unitary_superop(u),
        }
    }
}

/// Compiles a `(CompiledCircuit, params, NoiseModel)` triple into prebound
/// per-gate superoperators over the **raw** schedule (per-gate noise must
/// scale with the source circuit's gate count, which fusion would shrink).
///
/// # Errors
///
/// Returns a parameter-arity or noise-validation error.
pub fn prebind_density(
    compiled: &CompiledCircuit,
    params: &[f64],
    noise: &NoiseModel,
) -> Result<DensityPrebound, RuntimeError> {
    noise.validate()?;
    if params.len() != compiled.n_params() {
        return Err(RuntimeError::ParamLenMismatch {
            expected: compiled.n_params(),
            actual: params.len(),
        });
    }
    let kraus1 = noise.after_gate1.map(|c| c.kraus_operators());
    let kraus2 = noise.after_gate2.map(|c| c.kraus_operators());
    let mut pb = DensityPrebound {
        n_qubits: compiled.n_qubits(),
        n_inputs: compiled.n_inputs(),
        dim2: 1usize << (2 * compiled.n_qubits()),
        params: params.to_vec(),
        chan1: kraus1.as_deref().map(kraus_superop),
        chan2: kraus2.as_deref().map(kraus_superop),
        kraus1,
        ops: Vec::with_capacity(compiled.raw_schedule().len()),
    };
    for (k, gate) in compiled.raw_schedule().iter().enumerate() {
        let op = match gate {
            CGate::Rot { qubit, axis, angle } => {
                if angle.depends_on_inputs() {
                    DOp::Sym1 {
                        raw_idx: k,
                        q: *qubit,
                        axis: *axis,
                        angle: angle.clone(),
                    }
                } else {
                    let theta = angle.value(&[], params);
                    DOp::Dense1 {
                        q: *qubit,
                        sup: pb.fuse1(&axis.gate(theta)),
                        rot: Some((k, *axis)),
                    }
                }
            }
            CGate::Fixed { qubit, gate } => DOp::Dense1 {
                q: *qubit,
                sup: pb.fuse1(gate),
                rot: None,
            },
            CGate::CRot {
                control,
                target,
                axis,
                angle,
            } => {
                if angle.depends_on_inputs() {
                    DOp::CRotSym {
                        raw_idx: k,
                        control: *control,
                        target: *target,
                        axis: *axis,
                        angle: angle.clone(),
                    }
                } else {
                    let theta = angle.value(&[], params);
                    let (s, c) = (theta / 2.0).sin_cos();
                    DOp::CRotSC {
                        raw_idx: k,
                        control: *control,
                        target: *target,
                        axis: *axis,
                        s,
                        c,
                    }
                }
            }
            CGate::Cnot { control, target } => DOp::Cnot {
                control: *control,
                target: *target,
            },
            CGate::Cz { control, target } => DOp::Cz {
                control: *control,
                target: *target,
            },
            CGate::Fixed2 { .. } => {
                unreachable!("entangler fusion never emits Fixed2 into the raw schedule")
            }
        };
        pb.ops.push(op);
    }
    Ok(pb)
}

/// Applies a uniform rotation to the register: the gate on the row bit
/// pair `(row_mt, row_mc)` and its conjugate on the column bit pair
/// `(col_mt, col_mc)`. Conjugation per axis: `conj(Rx(θ)) = Rx(−θ)`
/// (trig `(−s, c)`), `Ry` is real, `Rz`'s diagonal phases swap.
#[allow(clippy::too_many_arguments)]
fn rot_both_sides(
    axis: RotationAxis,
    slab: &mut rows::Slab<'_>,
    row_mt: usize,
    row_mc: usize,
    col_mt: usize,
    col_mc: usize,
    s: f64,
    c: f64,
) {
    slab.rot(axis, row_mt, row_mc, s, c);
    match axis {
        RotationAxis::X => slab.rot(axis, col_mt, col_mc, -s, c),
        RotationAxis::Y => slab.rot(axis, col_mt, col_mc, s, c),
        RotationAxis::Z => slab.phase(col_mt, col_mc, (c, s), (c, -s)),
    }
}

/// Per-lane variant of [`rot_both_sides`] for input-dependent angles.
/// `ta`/`tb` are scratch buffers reused across gates.
#[allow(clippy::too_many_arguments)]
fn rot_both_sides_lanes(
    axis: RotationAxis,
    slab: &mut rows::Slab<'_>,
    row_mt: usize,
    row_mc: usize,
    col_mt: usize,
    col_mc: usize,
    thetas: &[f64],
    ta: &mut Vec<(f64, f64)>,
    tb: &mut Vec<(f64, f64)>,
) {
    ta.clear();
    tb.clear();
    match axis {
        RotationAxis::X => {
            ta.extend(thetas.iter().map(|t| (t / 2.0).sin_cos()));
            tb.extend(ta.iter().map(|&(s, c)| (-s, c)));
            slab.rot_x_lanes(row_mt, row_mc, ta);
            slab.rot_x_lanes(col_mt, col_mc, tb);
        }
        RotationAxis::Y => {
            ta.extend(thetas.iter().map(|t| (t / 2.0).sin_cos()));
            slab.rot_y_lanes(row_mt, row_mc, ta);
            slab.rot_y_lanes(col_mt, col_mc, ta);
        }
        RotationAxis::Z => {
            // ta = (c, −s) is the row-pass bit-clear phase AND the
            // column-pass bit-set phase; tb = (c, s) the other two.
            for t in thetas {
                let (s, c) = (t / 2.0).sin_cos();
                ta.push((c, -s));
                tb.push((c, s));
            }
            slab.phase_lanes(row_mt, row_mc, ta, tb);
            slab.phase_lanes(col_mt, col_mc, tb, ta);
        }
    }
}

/// Resolves an input-dependent angle for every lane (all lanes get the
/// override angle when the parameter-shift rule targets this op).
fn resolve_thetas(
    raw_idx: usize,
    angle: &FusedAngle,
    inputs: &[&[f64]],
    params: &[f64],
    override_angle: Option<(usize, f64)>,
    out: &mut Vec<f64>,
) {
    out.clear();
    match override_angle {
        Some((idx, theta)) if idx == raw_idx => out.extend(inputs.iter().map(|_| theta)),
        _ => out.extend(inputs.iter().map(|li| angle.value(li, params))),
    }
}

/// The two-qubit-gate channel on both wires, control before target (the
/// interpreter's Kraus order).
fn apply_chan2(pb: &DensityPrebound, slab: &mut rows::Slab<'_>, control: usize, target: usize) {
    if let Some(c2) = &pb.chan2 {
        let n = pb.n_qubits;
        slab.dense4(1 << control, 1 << (control + n), c2.matrix());
        slab.dense4(1 << target, 1 << (target + n), c2.matrix());
    }
}

/// Runs the prebound superoperator schedule over all `inputs` lanes in one
/// walk, returning the vectorized density slab `slab[flat · lanes + lane]`
/// (flat index `r · 2^n + c`). `override_angle` forces one raw-schedule
/// gate's angle — the parameter-shift primitive. Lanes are independent, so
/// chunking across lanes cannot change any value.
pub(crate) fn run_density_slab(
    pb: &DensityPrebound,
    inputs: &[&[f64]],
    override_angle: Option<(usize, f64)>,
) -> Vec<Complex64> {
    let lanes = inputs.len();
    if lanes == 0 {
        return Vec::new();
    }
    let n = pb.n_qubits;
    let mut slab = vec![Complex64::ZERO; pb.dim2 * lanes];
    for cell in slab[..lanes].iter_mut() {
        *cell = Complex64::ONE; // ρ = |0…0⟩⟨0…0| is flat index 0
    }
    let mut thetas: Vec<f64> = Vec::with_capacity(lanes);
    let mut ta: Vec<(f64, f64)> = Vec::with_capacity(lanes);
    let mut tb: Vec<(f64, f64)> = Vec::with_capacity(lanes);
    let mut view = rows::Slab::new(&mut slab, lanes);

    for op in &pb.ops {
        match op {
            DOp::Dense1 { q, sup, rot } => {
                let rebuilt;
                let m = match (override_angle, rot) {
                    (Some((idx, theta)), Some((raw_idx, axis))) if idx == *raw_idx => {
                        rebuilt = pb.fuse1(&axis.gate(theta));
                        rebuilt.matrix()
                    }
                    _ => sup.matrix(),
                };
                view.dense4(1 << q, 1 << (q + n), m);
            }
            DOp::Sym1 {
                raw_idx,
                q,
                axis,
                angle,
            } => {
                resolve_thetas(
                    *raw_idx,
                    angle,
                    inputs,
                    &pb.params,
                    override_angle,
                    &mut thetas,
                );
                rot_both_sides_lanes(
                    *axis,
                    &mut view,
                    1 << (q + n),
                    0,
                    1 << q,
                    0,
                    &thetas,
                    &mut ta,
                    &mut tb,
                );
                if let Some(c1) = &pb.chan1 {
                    view.dense4(1 << q, 1 << (q + n), c1.matrix());
                }
            }
            DOp::CRotSC {
                raw_idx,
                control,
                target,
                axis,
                s,
                c,
            } => {
                let (s, c) = match override_angle {
                    Some((idx, theta)) if idx == *raw_idx => (theta / 2.0).sin_cos(),
                    _ => (*s, *c),
                };
                rot_both_sides(
                    *axis,
                    &mut view,
                    1 << (target + n),
                    1 << (control + n),
                    1 << target,
                    1 << control,
                    s,
                    c,
                );
                apply_chan2(pb, &mut view, *control, *target);
            }
            DOp::CRotSym {
                raw_idx,
                control,
                target,
                axis,
                angle,
            } => {
                resolve_thetas(
                    *raw_idx,
                    angle,
                    inputs,
                    &pb.params,
                    override_angle,
                    &mut thetas,
                );
                rot_both_sides_lanes(
                    *axis,
                    &mut view,
                    1 << (target + n),
                    1 << (control + n),
                    1 << target,
                    1 << control,
                    &thetas,
                    &mut ta,
                    &mut tb,
                );
                apply_chan2(pb, &mut view, *control, *target);
            }
            DOp::Cnot { control, target } => {
                // ρ → (CX) ρ (CX)†: CX permutes the row bits, conj(CX) =
                // CX the column bits. The two permutations act on disjoint
                // bits, so running them one after the other moves every
                // amplitude exactly where the joint permutation would.
                view.cnot(1 << (control + n), 1 << (target + n));
                view.cnot(1 << control, 1 << target);
                apply_chan2(pb, &mut view, *control, *target);
            }
            DOp::Cz { control, target } => {
                // Row side flips sign where both row bits are set, column
                // side where both column bits are set; where both apply,
                // the two exact negations cancel.
                view.cz(1 << (control + n), 1 << (target + n));
                view.cz(1 << control, 1 << target);
                apply_chan2(pb, &mut view, *control, *target);
            }
        }
    }
    slab
}

/// Extracts one lane of a vectorized-density (or statevector) slab.
pub(crate) fn extract_lane(slab: &[Complex64], lanes: usize, lane: usize) -> Vec<Complex64> {
    (0..slab.len() / lanes)
        .map(|i| slab[i * lanes + lane])
        .collect()
}

/// Runs one evaluation through the prebound superoperator schedule,
/// returning the final density matrix — the compiled replacement for
/// [`crate::exec::run_raw_density`], equal to it to 1e-12.
///
/// # Errors
///
/// Returns an input-arity error.
pub fn run_density(
    pb: &DensityPrebound,
    inputs: &[f64],
    override_angle: Option<(usize, f64)>,
) -> Result<DensityMatrix, RuntimeError> {
    if inputs.len() != pb.n_inputs {
        return Err(RuntimeError::InputLenMismatch {
            expected: pb.n_inputs,
            actual: inputs.len(),
        });
    }
    let slab = run_density_slab(pb, &[inputs], override_angle);
    Ok(DensityMatrix::from_flat(pb.n_qubits, slab))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::exec::run_raw_density;
    use qmarl_qsim::gate::RotationAxis as Ax;
    use qmarl_qsim::noise::NoiseChannel;
    use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};

    /// Every gate kind, every axis, input-dependent and parameter-only
    /// rotations, plain and controlled.
    fn busy_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.fixed(0, FixedGate::H).unwrap();
        c.rot(0, Ax::X, Angle::Input(InputId(0))).unwrap();
        c.rot(1, Ax::Z, Angle::Input(InputId(1))).unwrap();
        c.rot(1, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.rot(2, Ax::Z, Angle::Param(ParamId(1))).unwrap();
        c.controlled_rot(0, 1, Ax::X, Angle::Param(ParamId(2)))
            .unwrap();
        c.controlled_rot(1, 2, Ax::Y, Angle::Param(ParamId(3)))
            .unwrap();
        c.controlled_rot(2, 0, Ax::Z, Angle::Param(ParamId(4)))
            .unwrap();
        c.controlled_rot(0, 2, Ax::Y, Angle::Input(InputId(0)))
            .unwrap();
        c.controlled_rot(1, 0, Ax::Z, Angle::Input(InputId(1)))
            .unwrap();
        c.cnot(0, 2).unwrap();
        c.cz(1, 2).unwrap();
        c.rot(0, Ax::Y, Angle::Const(-0.9)).unwrap();
        c
    }

    fn assert_rho_close(got: &DensityMatrix, want: &DensityMatrix, label: &str) {
        assert_eq!(got.dim(), want.dim());
        for r in 0..got.dim() {
            for c in 0..got.dim() {
                let a = got.element(r, c);
                let b = want.element(r, c);
                assert!(
                    (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12,
                    "{label}: ρ[{r},{c}] = {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn superop_matches_interpreter_across_noise_models() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.4, -0.8, 1.7, 0.3, -1.1];
        let inputs = [0.7, -0.2];
        for (label, noise) in [
            ("noiseless", NoiseModel::noiseless()),
            (
                "depolarizing",
                NoiseModel::depolarizing(0.01, 0.02).unwrap(),
            ),
            (
                "mixed-custom",
                NoiseModel {
                    after_gate1: Some(NoiseChannel::AmplitudeDamping { gamma: 0.03 }),
                    after_gate2: Some(NoiseChannel::BitFlip { p: 0.05 }),
                },
            ),
        ] {
            let pb = prebind_density(&compiled, &params, &noise).unwrap();
            let got = run_density(&pb, &inputs, None).unwrap();
            let want = run_raw_density(&compiled, &inputs, &params, &noise, None).unwrap();
            assert_rho_close(&got, &want, label);
        }
    }

    #[test]
    fn override_matches_interpreter_override() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.4, -0.8, 1.7, 0.3, -1.1];
        let inputs = [0.7, -0.2];
        let noise = NoiseModel::depolarizing(0.01, 0.02).unwrap();
        let pb = prebind_density(&compiled, &params, &noise).unwrap();
        // Override every rotation occurrence in turn (plain, controlled,
        // input-dependent and parameter-only alike).
        for (k, gate) in compiled.raw_schedule().iter().enumerate() {
            if !matches!(gate, CGate::Rot { .. } | CGate::CRot { .. }) {
                continue;
            }
            let got = run_density(&pb, &inputs, Some((k, 0.37))).unwrap();
            let want =
                run_raw_density(&compiled, &inputs, &params, &noise, Some((k, 0.37))).unwrap();
            assert_rho_close(&got, &want, &format!("override raw idx {k}"));
        }
    }

    #[test]
    fn multi_lane_slab_is_bit_identical_to_single_lane() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.4, -0.8, 1.7, 0.3, -1.1];
        let noise = NoiseModel::depolarizing(0.01, 0.02).unwrap();
        let pb = prebind_density(&compiled, &params, &noise).unwrap();
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|b| vec![0.3 * b as f64 - 0.7, 0.2 * b as f64 + 0.1])
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let slab = run_density_slab(&pb, &refs, None);
        for (lane, item) in refs.iter().enumerate() {
            let single = run_density_slab(&pb, &[item], None);
            assert_eq!(
                extract_lane(&slab, refs.len(), lane),
                single,
                "lane {lane} must be bit-identical to its own run"
            );
        }
    }

    #[test]
    fn trace_is_preserved_and_arity_validated() {
        let c = busy_circuit();
        let compiled = compile(&c);
        let params = [0.4, -0.8, 1.7, 0.3, -1.1];
        let noise = NoiseModel::depolarizing(0.05, 0.1).unwrap();
        let pb = prebind_density(&compiled, &params, &noise).unwrap();
        assert_eq!(pb.n_qubits(), 3);
        assert_eq!(pb.n_inputs(), 2);
        assert_eq!(pb.params(), &params[..]);
        let rho = run_density(&pb, &[0.3, -0.4], None).unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
        assert!(matches!(
            run_density(&pb, &[0.3], None),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
        assert!(matches!(
            prebind_density(&compiled, &params[..2], &noise),
            Err(RuntimeError::ParamLenMismatch { .. })
        ));
    }
}
