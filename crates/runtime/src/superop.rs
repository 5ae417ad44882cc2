//! Compiled superoperator execution of the Noisy backend.
//!
//! The interpreter path ([`crate::exec::run_raw_density`]) walks the raw
//! schedule gate by gate through [`qmarl_qsim::density::DensityMatrix`],
//! whose kernels clone per-column scratch (and, for Kraus channels, the
//! whole matrix per operator) on every application. That is robust but
//! roughly four orders of magnitude slower than the statevector hot path.
//!
//! [`prebind_density`] binds a `(CompiledCircuit, params, NoiseModel)`
//! triple once per evaluation batch. The binding is the statevector
//! path's raw one (`prebind_raw`, so per-gate noise scales with the
//! source circuit's gate count), plus one table aligned with its ops and
//! the two channels' superoperators:
//!
//! * the density matrix is treated as one flat `4^n` vector (row-major:
//!   column bits `0‥n`, row bits `n‥2n`), so every gate becomes in-place
//!   slab passes over the vectorized register — no clones, SIMD kernels
//!   from [`qmarl_qsim::rows`];
//! * the table holds, for every **parameter-only** single-qubit op (a
//!   fixed gate, or a rotation whose angle references no input), the gate
//!   premultiplied with the one-qubit channel into a single dense 4×4
//!   superoperator (`Σᵢ (KᵢU) ⊗ conj(KᵢU)`, see [`qmarl_qsim::superop`]),
//!   applied with one [`qmarl_qsim::rows::Slab::dense4`] pass on the bit
//!   pair `(q, q + n)`;
//! * input-dependent and controlled rotations run their trig on the row
//!   bits and its conjugate on the column bits (per lane where an input
//!   enters), then the channel superoperator lands as a dense pass;
//! * CNOT is a pure index permutation, CZ a diagonal sign flip, each
//!   followed by the two-qubit channel superoperator on both wires
//!   (control before target — the interpreter's Kraus order).
//!
//! `run_density_slab` evaluates many circuits (lanes) through one
//! schedule walk, and the parameter-shift gradient forks ρ from the
//! shared prefix through the same walker ([`crate::prebound`]'s
//! `ShiftWalk`, whose fork rebinds one op exactly as
//! [`crate::exec::run_raw_density`]'s override does). Results agree with
//! the interpreter and `qmarl_vqc::exec::run_noisy` to 1e-12 (asserted
//! here and in `tests/noisy_parity.rs`); they are not bit-identical
//! because the row/column factorization orders floating-point products
//! differently.

use std::ops::Range;

use qmarl_qsim::complex::Complex64;
use qmarl_qsim::density::DensityMatrix;
use qmarl_qsim::gate::{Gate1, Gate2, RotationAxis};
use qmarl_qsim::noise::NoiseModel;
use qmarl_qsim::rows;
use qmarl_qsim::superop::{gate_kraus_superop, kraus_superop, unitary_superop};

use crate::compile::{CGate, CompiledCircuit};
use crate::error::RuntimeError;
use crate::prebound::{prebind_raw, LaneScratch, PreOp, PreboundCircuit, ShiftSchedule};

/// A compiled circuit bound to `(params, noise)` for superoperator
/// execution over the vectorized density register.
#[derive(Debug, Clone)]
pub struct DensityPrebound {
    /// The raw schedule's statevector binding.
    circuit: PreboundCircuit,
    /// Aligned with the ops: the fused gate⊗channel superoperator of
    /// every parameter-only single-qubit op, `None` elsewhere.
    fused: Vec<Option<Gate2>>,
    kraus1: Option<Vec<Gate1>>,
    /// Superoperator of the one-qubit channel alone (for input-dependent
    /// rotations, applied after the per-lane rotation passes).
    chan1: Option<Gate2>,
    /// Superoperator of the two-qubit-gate channel, applied per wire.
    chan2: Option<Gate2>,
}

impl DensityPrebound {
    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }

    /// Expected input-vector length.
    pub fn n_inputs(&self) -> usize {
        self.circuit.n_inputs()
    }

    /// The frozen parameter vector this schedule was bound with.
    pub fn params(&self) -> &[f64] {
        self.circuit.params()
    }

    /// Gate (optionally) fused with the one-qubit channel.
    fn fuse1(&self, u: &Gate1) -> Gate2 {
        match &self.kraus1 {
            Some(k) => gate_kraus_superop(u, k),
            None => unitary_superop(u),
        }
    }
}

/// Binds a `(CompiledCircuit, params, NoiseModel)` triple for
/// superoperator execution over the **raw** schedule (per-gate noise must
/// scale with the source circuit's gate count, which fusion would
/// shrink).
///
/// # Errors
///
/// Returns a parameter-arity or noise-validation error, and
/// [`RuntimeError::InvalidConfig`] for a fused two-qubit gate in the raw
/// schedule (compilation never emits one there).
pub fn prebind_density(
    compiled: &CompiledCircuit,
    params: &[f64],
    noise: &NoiseModel,
) -> Result<DensityPrebound, RuntimeError> {
    noise.validate()?;
    let kraus1 = noise.after_gate1.map(|c| c.kraus_operators());
    let kraus2 = noise.after_gate2.map(|c| c.kraus_operators());
    let mut pb = DensityPrebound {
        circuit: prebind_raw(compiled, params)?,
        fused: Vec::with_capacity(compiled.raw_schedule().len()),
        chan1: kraus1.as_deref().map(kraus_superop),
        chan2: kraus2.as_deref().map(kraus_superop),
        kraus1,
    };
    // A rotation's superoperator is built from `axis.gate(θ)`, as the
    // interpreter builds the gate, not from the hoisted `(s, c)`.
    for (op, gate) in pb.circuit.ops().iter().zip(compiled.raw_schedule()) {
        let sup = match (op, gate) {
            (PreOp::RotSC { axis, .. }, CGate::Rot { angle, .. }) => {
                Some(pb.fuse1(&axis.gate(angle.value(&[], params))))
            }
            (PreOp::Fixed { gate, .. }, _) => Some(pb.fuse1(gate)),
            (PreOp::Fixed2 { .. }, _) => {
                return Err(RuntimeError::InvalidConfig(
                    "the raw schedule holds a fused two-qubit gate; \
                     the density walk binds source gates only"
                        .into(),
                ))
            }
            _ => None,
        };
        pb.fused.push(sup);
    }
    Ok(pb)
}

/// Runs the rotation whose trig is in `scratch` (see
/// [`LaneScratch::resolve`]) on the row bit masks `row = (mt, mc)`, then its conjugate on
/// the column bit masks `col`: `conj(Rx(θ))` has trig `(−s, c)`, `Ry` is
/// real, and `Rz`'s diagonal phases swap.
fn rot_both_sides(
    axis: RotationAxis,
    slab: &mut rows::Slab<'_>,
    (row_mt, row_mc): (usize, usize),
    (col_mt, col_mc): (usize, usize),
    scratch: &mut LaneScratch,
) {
    scratch.apply(slab, axis, row_mt, row_mc);
    match (axis, scratch.uniform) {
        (RotationAxis::X, Some((s, c))) => slab.rot(axis, col_mt, col_mc, -s, c),
        (RotationAxis::Y, Some((s, c))) => slab.rot(axis, col_mt, col_mc, s, c),
        (RotationAxis::Z, Some((s, c))) => slab.phase(col_mt, col_mc, (c, s), (c, -s)),
        (RotationAxis::X, _) => {
            // `resolve` leaves `zlo` empty for X: it holds the conjugate.
            let conj = scratch.trig.iter().map(|&(s, c)| (-s, c));
            scratch.zlo.extend(conj);
            slab.rot_x_lanes(col_mt, col_mc, &scratch.zlo);
        }
        (RotationAxis::Y, _) => slab.rot_y_lanes(col_mt, col_mc, &scratch.trig),
        // `(c, −s)` is the row pass's bit-clear phase and the column
        // pass's bit-set phase; `(c, s)` the other two.
        (RotationAxis::Z, _) => slab.phase_lanes(col_mt, col_mc, &scratch.zhi, &scratch.zlo),
    }
}

/// Applies `ops` (with `sups`, their slice of the fused table) in order to
/// every lane of the vectorized density slab `slab[flat · lanes + lane]`,
/// lane `l` bound to `inputs[l]`: the density twin of
/// [`crate::prebound`]'s statevector walker, over the same ops. Each op
/// runs on the row bits and, conjugated, on the column bits, followed by
/// its channel on every wire it touched, control before target (the
/// interpreter's Kraus order).
fn walk_density(
    pb: &DensityPrebound,
    slab: &mut [Complex64],
    lanes: usize,
    (ops, sups): (&[PreOp], &[Option<Gate2>]),
    inputs: &[&[f64]],
    scratch: &mut LaneScratch,
) {
    let n = pb.n_qubits();
    let mut view = rows::Slab::new(slab, lanes);
    for (op, sup) in ops.iter().zip(sups) {
        // Target and control masks on the column bits; the row bits are
        // the same masks shifted up by `n`.
        let (mt, mc) = op.masks();
        if let Some(sup) = sup {
            // A parameter-only one-qubit op, already fused with its channel.
            view.dense4(mt, mt << n, sup.matrix());
            continue;
        }
        let (row, col) = ((mt << n, mc << n), (mt, mc));
        match op {
            PreOp::Rot {
                axis,
                angle,
                negate,
                ..
            }
            | PreOp::CRot {
                axis,
                angle,
                negate,
                ..
            } => {
                let bound = [(ops, pb.params())];
                scratch.resolve(*axis, angle, *negate, inputs, &bound);
                rot_both_sides(*axis, &mut view, row, col, scratch);
            }
            PreOp::CRotSC { axis, s, c, .. } => {
                scratch.uniform = Some((*s, *c));
                rot_both_sides(*axis, &mut view, row, col, scratch);
            }
            // ρ → (CX) ρ (CX)†: CX permutes the row bits, conj(CX) = CX
            // the column bits. The two permutations act on disjoint bits,
            // so running them one after the other moves every amplitude
            // exactly where the joint permutation would.
            PreOp::Cnot { .. } => {
                view.cnot(mc << n, mt << n);
                view.cnot(mc, mt);
            }
            // The row side flips the sign where both row bits are set, the
            // column side where both column bits are set; where both
            // apply, the two exact negations cancel.
            PreOp::Cz { .. } => {
                view.cz(mc << n, mt << n);
                view.cz(mc, mt);
            }
            // `prebind_density` fuses every parameter-only one-qubit op
            // (handled above) and rejects `Fixed2` with a typed error.
            PreOp::RotSC { .. } | PreOp::Fixed { .. } | PreOp::Fixed2 { .. } => {}
        }
        // The channel on every wire the op touched, control first.
        if let Some(ch) = if mc == 0 { &pb.chan1 } else { &pb.chan2 } {
            for m in [mc, mt].into_iter().filter(|&m| m != 0) {
                view.dense4(m, m << n, ch.matrix());
            }
        }
    }
}

impl ShiftSchedule for DensityPrebound {
    type Register = DensityMatrix;

    fn zero(&self) -> DensityMatrix {
        DensityMatrix::zero(self.n_qubits())
    }

    fn amps(rho: &mut DensityMatrix) -> &mut [Complex64] {
        rho.flat_mut()
    }

    fn params(&self) -> &[f64] {
        self.circuit.params()
    }

    fn n_ops(&self) -> usize {
        self.fused.len()
    }

    /// Rebinds op `range.start` as [`crate::exec::run_raw_density`]'s
    /// override does: a rotation's superoperator from `axis.gate(θ)`, a
    /// controlled rotation's trig from `sin_cos(θ/2)`.
    fn walk(
        &self,
        amps: &mut [Complex64],
        mut range: Range<usize>,
        rebound: Option<f64>,
        inputs: &[&[f64]],
        scratch: &mut LaneScratch,
    ) -> Result<(), RuntimeError> {
        if let Some(theta) = rebound {
            let op = self.circuit.ops()[range.start].with_angle(theta)?;
            let sup = match op {
                PreOp::RotSC { axis, .. } => Some(self.fuse1(&axis.gate(theta))),
                _ => None,
            };
            walk_density(self, amps, 1, (&[op], &[sup]), inputs, scratch);
            range.start += 1;
        }
        let table = (&self.circuit.ops()[range.clone()], &self.fused[range]);
        walk_density(self, amps, 1, table, inputs, scratch);
        Ok(())
    }
}

/// Runs the prebound superoperator schedule over all `inputs` lanes in one
/// walk, returning the vectorized density slab `slab[flat · lanes + lane]`
/// (flat index `r · 2^n + c`). Lanes are independent, so chunking across
/// lanes cannot change any value.
pub(crate) fn run_density_slab(pb: &DensityPrebound, inputs: &[&[f64]]) -> Vec<Complex64> {
    let lanes = inputs.len();
    if lanes == 0 {
        return Vec::new();
    }
    let mut slab = vec![Complex64::ZERO; (1usize << (2 * pb.n_qubits())) * lanes];
    for cell in slab[..lanes].iter_mut() {
        *cell = Complex64::ONE; // ρ = |0…0⟩⟨0…0| is flat index 0
    }
    let (table, mut scratch) = ((pb.circuit.ops(), &pb.fused[..]), LaneScratch::default());
    walk_density(pb, &mut slab, lanes, table, inputs, &mut scratch);
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
pub fn run_density(pb: &DensityPrebound, inputs: &[f64]) -> Result<DensityMatrix, RuntimeError> {
    if inputs.len() != pb.n_inputs() {
        return Err(RuntimeError::InputLenMismatch {
            expected: pb.n_inputs(),
            actual: inputs.len(),
        });
    }
    let slab = run_density_slab(pb, &[inputs]);
    Ok(DensityMatrix::from_flat(pb.n_qubits(), slab))
}

/// Runs the full schedule from `|0…0⟩⟨0…0|` with op `k` — a trainable
/// rotation — rebound to `theta`: the from-scratch run that the
/// prefix-shared fork must reproduce bit for bit.
#[cfg(test)]
pub(crate) fn run_density_rebound(
    pb: &DensityPrebound,
    inputs: &[f64],
    k: usize,
    theta: f64,
) -> Result<DensityMatrix, RuntimeError> {
    let mut rho = pb.zero();
    let (amps, inputs) = (rho.flat_mut(), &[inputs]);
    let mut scratch = LaneScratch::default();
    pb.walk(amps, 0..k, None, inputs, &mut scratch)?;
    pb.walk(amps, k..pb.n_ops(), Some(theta), inputs, &mut scratch)?;
    Ok(rho)
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
            let got = run_density(&pb, &inputs).unwrap();
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
        // Rebind every parameter-only rotation in turn (plain and
        // controlled, trainable and constant alike): the shift walk's
        // fork must reproduce the interpreter's override.
        let mut rebound = 0;
        for (k, gate) in compiled.raw_schedule().iter().enumerate() {
            let (CGate::Rot { angle, .. } | CGate::CRot { angle, .. }) = gate else {
                continue;
            };
            let got = run_density_rebound(&pb, &inputs, k, 0.37);
            if angle.depends_on_inputs() {
                // No occurrence is input-dependent; rebinding one is a
                // typed error, not a wrong ρ.
                assert!(matches!(got, Err(RuntimeError::InvalidConfig(_))));
                continue;
            }
            let want =
                run_raw_density(&compiled, &inputs, &params, &noise, Some((k, 0.37))).unwrap();
            assert_rho_close(&got.unwrap(), &want, &format!("override raw idx {k}"));
            rebound += 1;
        }
        assert_eq!(rebound, 6);
    }

    /// One generated gate: `(kind, wire_a, wire_b, axis, angle_kind, value)`.
    type GateSpec = (usize, usize, usize, usize, usize, f64);

    /// A random circuit over every gate kind and angle binding form.
    fn random_circuit(n_qubits: usize, ops: &[GateSpec]) -> Circuit {
        let mut c = Circuit::new(n_qubits);
        for &(kind, a, b, axis, angle_kind, val) in ops {
            let q = a % n_qubits;
            let q2 = if b % n_qubits == q {
                (q + 1) % n_qubits
            } else {
                b % n_qubits
            };
            let axis = [Ax::X, Ax::Y, Ax::Z][axis % 3];
            let angle = match angle_kind % 3 {
                0 => Angle::Const(val),
                1 => Angle::Input(InputId(a % 3)),
                _ => Angle::Param(ParamId(b % 4)),
            };
            let fixed = [FixedGate::H, FixedGate::X, FixedGate::S, FixedGate::T][a % 4];
            match kind % 5 {
                0 => c.rot(q, axis, angle),
                1 => c.controlled_rot(q, q2, axis, angle),
                2 => c.cnot(q, q2),
                3 => c.cz(q, q2),
                _ => c.fixed(q, fixed),
            }
            .unwrap();
        }
        c
    }

    proptest::proptest! {
        /// Random circuits: a fork that rebinds the first trainable
        /// occurrence equals the interpreter's override on every noise
        /// model.
        #[test]
        fn rebound_walk_matches_interpreter_on_random_circuits(
            n_qubits in 2usize..5,
            ops in proptest::prop::collection::vec(
                (0usize..5, 0usize..8, 0usize..8, 0usize..3, 0usize..3, -3.0f64..3.0),
                1..24,
            ),
            theta in -3.0f64..3.0,
        ) {
            let compiled = compile(&random_circuit(n_qubits, &ops));
            let Some(occ) = compiled.occurrences().first() else {
                return Ok(());
            };
            let inputs: Vec<f64> =
                (0..compiled.n_inputs()).map(|i| 0.2 + 0.13 * i as f64).collect();
            let params: Vec<f64> =
                (0..compiled.n_params()).map(|p| -0.9 + 0.17 * p as f64).collect();
            for noise in [
                NoiseModel::noiseless(),
                NoiseModel::depolarizing(0.01, 0.02).unwrap(),
                NoiseModel {
                    after_gate1: Some(NoiseChannel::AmplitudeDamping { gamma: 0.1 }),
                    after_gate2: Some(NoiseChannel::BitFlip { p: 0.05 }),
                },
            ] {
                let pb = prebind_density(&compiled, &params, &noise).unwrap();
                let got = run_density_rebound(&pb, &inputs, occ.raw_idx, theta).unwrap();
                let at = Some((occ.raw_idx, theta));
                let want = run_raw_density(&compiled, &inputs, &params, &noise, at).unwrap();
                assert_rho_close(&got, &want, &format!("{noise:?}"));
            }
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
        let slab = run_density_slab(&pb, &refs);
        for (lane, item) in refs.iter().enumerate() {
            let single = run_density_slab(&pb, &[item]);
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
        let rho = run_density(&pb, &[0.3, -0.4]).unwrap();
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
        assert!(matches!(
            run_density(&pb, &[0.3]),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
        assert!(matches!(
            prebind_density(&compiled, &params[..2], &noise),
            Err(RuntimeError::ParamLenMismatch { .. })
        ));
    }
}
