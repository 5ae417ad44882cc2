//! Parameter-prebound schedules: trig hoisted out of the per-circuit loop.
//!
//! This is the runtime's **one** statevector execution path. Within a
//! call the parameters are **frozen**: every circuit of a batch runs the
//! same compiled schedule under the same parameter vector, varying only in
//! its input (observation) angles. For the paper's actor that means ~42
//! of ~46 rotation angles are identical across every evaluation.
//!
//! [`prebind`] resolves a `(CompiledCircuit, params)` pair once: every
//! rotation whose angle does not reference an input slot collapses to a
//! precomputed `(sin θ/2, cos θ/2)` pair ([`PreOp::RotSC`]), and only
//! input-dependent rotations stay symbolic. One walker, `walk`, then
//! applies any op range of a prebound schedule to a lane slab
//! `slab[amp · L + lane]` through the [`qmarl_qsim::rows::Slab`] kernels,
//! with per-rotation trig only where an observation actually enters. The
//! executor's batches run it over many lanes; [`run_prebound`] runs it
//! over one, where the slab *is* the statevector and the same `rows`
//! kernels walk it as one-lane runs. Every
//! `Ideal` and `Sampled` forward pass of [`crate::batch::BatchExecutor`]
//! runs a prebound fused schedule this way. Bindings of one compiled
//! schedule under different parameters (the N agents of a rollout tick)
//! can also share one walk as **parameter lanes**: each lane then runs
//! its own binding's resolved-rotation trig through the per-lane kernels
//! and resolves its input rotations with its own parameters.
//!
//! `prebind_raw` binds the **raw** (unfused) schedule the same way for
//! the parameter-shift gradient, whose `ShiftWalk` walks one item's raw
//! schedule once and forks every ±shift evaluation from the shared
//! prefix. The walk is generic over the register it forks: a statevector
//! here, whose prefix and forks are one-lane slabs of the same walker, or
//! the Noisy backend's vectorized ρ ([`crate::superop`], a density walk
//! over the same raw binding).
//! [`prebind_adjoint`] adds the inverse of every raw op and the trainable
//! slot of every occurrence, and `reverse_sweep` is the one adjoint
//! recursion over them: the `Ideal` adjoint here and the per-trajectory
//! adjoint of [`crate::trajectory`] (whose binding is this one plus its
//! noise channels) both run it, and every gate they apply, forward or
//! inverse, goes through `walk`.
//!
//! **Exactness.** Prebinding reorders no floating-point operation: angles
//! resolve through the same [`FusedAngle::value`] and the `*_sc` kernels
//! consume the same `sin_cos()` results the angle kernels of
//! [`qmarl_qsim::apply`] compute internally, so a prebound run is
//! bit-identical to applying the compiled gates one by one, and slab
//! lanes are bit-identical to one-lane runs (asserted in this module's
//! tests; checked against the `vqc` interpreter at 1e-12).

use std::ops::Range;
use std::sync::Arc;

use qmarl_qsim::complex::Complex64;
use qmarl_qsim::gate::{Gate1, Gate2, RotationAxis};
use qmarl_qsim::rows;
use qmarl_qsim::state::StateVector;

use crate::compile::{CGate, CompiledCircuit, FusedAngle};
use crate::error::RuntimeError;

/// One gate of a prebound schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum PreOp {
    /// A rotation whose angle was fully resolved at prebind time; carries
    /// the precomputed half-angle `(sin, cos)`.
    RotSC {
        /// Target wire.
        qubit: usize,
        /// Rotation axis.
        axis: RotationAxis,
        /// `sin(θ/2)`.
        s: f64,
        /// `cos(θ/2)`.
        c: f64,
    },
    /// A controlled rotation resolved at prebind time.
    CRotSC {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
        /// Rotation axis.
        axis: RotationAxis,
        /// `sin(θ/2)`.
        s: f64,
        /// `cos(θ/2)`.
        c: f64,
    },
    /// An input-dependent rotation, still symbolic.
    Rot {
        /// Target wire.
        qubit: usize,
        /// Rotation axis.
        axis: RotationAxis,
        /// Compiled angle expression (may mix input and parameter terms).
        angle: FusedAngle,
        /// Runs at the negated angle: the inverse op of an adjoint
        /// binding.
        negate: bool,
    },
    /// An input-dependent controlled rotation, still symbolic.
    CRot {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
        /// Rotation axis.
        axis: RotationAxis,
        /// Compiled angle expression.
        angle: FusedAngle,
        /// Runs at the negated angle.
        negate: bool,
    },
    /// CNOT (amplitude-swap fast path).
    Cnot {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
    },
    /// Controlled-Z (diagonal sign-flip fast path).
    Cz {
        /// First wire.
        control: usize,
        /// Second wire.
        target: usize,
    },
    /// A fixed single-qubit unitary.
    Fixed {
        /// Target wire.
        qubit: usize,
        /// Concrete unitary.
        gate: Gate1,
    },
    /// A fixed two-qubit unitary (compile-time entangler fusion product).
    Fixed2 {
        /// First wire — bit 0 of the matrix index.
        qa: usize,
        /// Second wire — bit 1 of the matrix index.
        qb: usize,
        /// Concrete two-qubit unitary in `(qa, qb)` orientation, boxed so
        /// that every other op stays small.
        gate: Box<Gate2>,
    },
}

impl PreOp {
    /// This parameter-only rotation rebound to angle `theta` — the
    /// parameter-shift primitive. Takes the same `sin_cos` the angle
    /// kernels take of an overridden angle.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for any other op: a
    /// trainable occurrence always prebinds to a resolved rotation.
    pub(crate) fn with_angle(&self, theta: f64) -> Result<PreOp, RuntimeError> {
        let mut op = self.clone();
        match &mut op {
            PreOp::RotSC { s, c, .. } | PreOp::CRotSC { s, c, .. } => {
                (*s, *c) = (theta / 2.0).sin_cos();
                Ok(op)
            }
            other => Err(RuntimeError::InvalidConfig(format!(
                "a trainable occurrence must be a parameter-only rotation, got {other:?}"
            ))),
        }
    }

    /// The hoisted `(sin θ/2, cos θ/2)` of a resolved rotation.
    fn trig(&self) -> Option<(f64, f64)> {
        match *self {
            PreOp::RotSC { s, c, .. } | PreOp::CRotSC { s, c, .. } => Some((s, c)),
            _ => None,
        }
    }

    /// The op's `(target, control)` wire masks, `control = 0` for a
    /// one-qubit op (a `Fixed2` is `(qb, qa)`).
    pub(crate) fn masks(&self) -> (usize, usize) {
        let (target, control) = match *self {
            PreOp::RotSC { qubit, .. } | PreOp::Rot { qubit, .. } | PreOp::Fixed { qubit, .. } => {
                return (1 << qubit, 0)
            }
            PreOp::CRotSC {
                control, target, ..
            }
            | PreOp::CRot {
                control, target, ..
            }
            | PreOp::Cnot { control, target }
            | PreOp::Cz { control, target } => (target, control),
            PreOp::Fixed2 { qa, qb, .. } => (qb, qa),
        };
        (1 << target, 1 << control)
    }
}

/// A compiled schedule bound to one frozen parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct PreboundCircuit {
    n_qubits: usize,
    n_inputs: usize,
    /// The compiled schedule the ops were bound from. Bindings of one
    /// schedule differ only in their parameters, so their lanes can share
    /// one slab walk ([`PreboundCircuit::same_schedule`]).
    schedule: Arc<[CGate]>,
    params: Vec<f64>,
    ops: Vec<PreOp>,
}

/// What one lane of a [`walk`] runs: a prebound op list and the frozen
/// parameters its symbolic angles resolve with.
pub(crate) type Bound<'a> = (&'a [PreOp], &'a [f64]);

impl PreboundCircuit {
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

    /// Number of rotations whose trig was hoisted (diagnostic).
    pub fn resolved_rotations(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PreOp::RotSC { .. } | PreOp::CRotSC { .. }))
            .count()
    }

    /// The bound ops, in schedule order.
    pub(crate) fn ops(&self) -> &[PreOp] {
        &self.ops
    }

    /// The ops and parameters of the binding, as one lane of a [`walk`].
    pub(crate) fn bound(&self) -> Bound<'_> {
        (&self.ops, &self.params)
    }

    /// Whether `other` binds the same compiled schedule (the same shared
    /// `Arc`, so the same ops in the same order): the two then differ
    /// only in their parameters, op for op in the resolved rotations'
    /// trig and the parameter terms of symbolic angles.
    pub(crate) fn same_schedule(&self, other: &PreboundCircuit) -> bool {
        Arc::ptr_eq(&self.schedule, &other.schedule)
    }
}

/// Binds a compiled schedule to a frozen parameter vector, hoisting every
/// parameter-only rotation's trig out of the per-circuit loop.
///
/// # Errors
///
/// Returns [`RuntimeError::ParamLenMismatch`] when `params` does not match
/// the compiled arity.
pub fn prebind(
    compiled: &CompiledCircuit,
    params: &[f64],
) -> Result<PreboundCircuit, RuntimeError> {
    prebind_schedule(compiled, compiled.fused_arc(), params)
}

/// Binds the **raw** (unfused) schedule the same way — the schedule of
/// the parameter-shift walk ([`ShiftWalk`]), which overrides individual
/// trainable occurrences and therefore cannot run the fused schedule,
/// and of the Noisy backend's density walk, whose per-gate noise scales
/// with the source circuit's gate count.
///
/// # Errors
///
/// Returns [`RuntimeError::ParamLenMismatch`] when `params` does not match
/// the compiled arity.
pub(crate) fn prebind_raw(
    compiled: &CompiledCircuit,
    params: &[f64],
) -> Result<PreboundCircuit, RuntimeError> {
    prebind_schedule(compiled, compiled.raw_arc(), params)
}

fn prebind_schedule(
    compiled: &CompiledCircuit,
    schedule: &Arc<[CGate]>,
    params: &[f64],
) -> Result<PreboundCircuit, RuntimeError> {
    if params.len() != compiled.n_params() {
        return Err(RuntimeError::ParamLenMismatch {
            expected: compiled.n_params(),
            actual: params.len(),
        });
    }
    Ok(PreboundCircuit {
        n_qubits: compiled.n_qubits(),
        n_inputs: compiled.n_inputs(),
        schedule: Arc::clone(schedule),
        params: params.to_vec(),
        ops: schedule
            .iter()
            .map(|gate| bind_gate(gate, params, false))
            .collect(),
    })
}

/// Binds one compiled gate, or with `inverse` its inverse: a resolved
/// rotation takes its trig from `sin_cos(−θ/2)`, an input rotation is
/// negated at run time, a fixed unitary is replaced by its dagger, and
/// CNOT and CZ are their own inverses.
fn bind_gate(gate: &CGate, params: &[f64], inverse: bool) -> PreOp {
    // No input slot is referenced, so the empty slice can never be
    // indexed; the resolved θ and its sin_cos are the exact values the
    // plain path would compute.
    let trig = |angle: &FusedAngle| {
        let theta = angle.value(&[], params);
        let theta = if inverse { -theta } else { theta };
        (theta / 2.0).sin_cos()
    };
    match gate {
        CGate::Rot { qubit, axis, angle } => {
            let (qubit, axis) = (*qubit, *axis);
            if angle.depends_on_inputs() {
                let angle = angle.clone();
                PreOp::Rot {
                    qubit,
                    axis,
                    angle,
                    negate: inverse,
                }
            } else {
                let (s, c) = trig(angle);
                PreOp::RotSC { qubit, axis, s, c }
            }
        }
        CGate::CRot {
            control,
            target,
            axis,
            angle,
        } => {
            let (control, target, axis) = (*control, *target, *axis);
            if angle.depends_on_inputs() {
                let angle = angle.clone();
                PreOp::CRot {
                    control,
                    target,
                    axis,
                    angle,
                    negate: inverse,
                }
            } else {
                let (s, c) = trig(angle);
                PreOp::CRotSC {
                    control,
                    target,
                    axis,
                    s,
                    c,
                }
            }
        }
        CGate::Cnot { control, target } => PreOp::Cnot {
            control: *control,
            target: *target,
        },
        CGate::Cz { control, target } => PreOp::Cz {
            control: *control,
            target: *target,
        },
        CGate::Fixed { qubit, gate } => PreOp::Fixed {
            qubit: *qubit,
            gate: if inverse { gate.dagger() } else { *gate },
        },
        CGate::Fixed2 { qa, qb, gate } => PreOp::Fixed2 {
            qa: *qa,
            qb: *qb,
            gate: Box::new(if inverse { gate.dagger() } else { *gate }),
        },
    }
}

/// Runs a prebound schedule from `|0…0⟩`, returning the final state: a
/// one-lane walk of the prebound walker.
///
/// # Errors
///
/// Returns [`RuntimeError::InputLenMismatch`] when `inputs` does not match
/// the bound arity.
pub fn run_prebound(pb: &PreboundCircuit, inputs: &[f64]) -> Result<StateVector, RuntimeError> {
    if inputs.len() != pb.n_inputs {
        return Err(RuntimeError::InputLenMismatch {
            expected: pb.n_inputs,
            actual: inputs.len(),
        });
    }
    let mut state = StateVector::zero(pb.n_qubits);
    let mut scratch = LaneScratch::default();
    let slabs = &mut [state.amplitudes_mut()];
    walk(slabs, 1, &[pb.bound()], &[inputs], &mut scratch);
    Ok(state)
}

/// A raw-schedule binding whose one-lane register [`ShiftWalk`] forks:
/// [`PreboundCircuit`] evolves a statevector, and
/// [`crate::superop::DensityPrebound`] the vectorized density matrix.
pub(crate) trait ShiftSchedule {
    /// The register one evaluation evolves.
    type Register;
    /// The register before op 0: `|0…0⟩`, or `|0…0⟩⟨0…0|`.
    fn zero(&self) -> Self::Register;
    /// The register's amplitudes, in place.
    fn amps(reg: &mut Self::Register) -> &mut [Complex64];
    /// The frozen parameter vector of the binding.
    fn params(&self) -> &[f64];
    /// Number of ops in the bound schedule.
    fn n_ops(&self) -> usize;
    /// Applies ops `range` to a one-lane register bound to `inputs`; with
    /// `rebound = Some(θ)`, op `range.start` — a trainable, hence
    /// parameter-only, rotation — runs at angle `θ`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when the rebound op is not
    /// a resolved rotation (see [`PreOp::with_angle`]).
    fn walk(
        &self,
        amps: &mut [Complex64],
        range: Range<usize>,
        rebound: Option<f64>,
        inputs: &[&[f64]],
        scratch: &mut LaneScratch,
    ) -> Result<(), RuntimeError>;
}

impl ShiftSchedule for PreboundCircuit {
    type Register = StateVector;

    fn zero(&self) -> StateVector {
        StateVector::zero(self.n_qubits)
    }

    fn amps(state: &mut StateVector) -> &mut [Complex64] {
        state.amplitudes_mut()
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn n_ops(&self) -> usize {
        self.ops.len()
    }

    fn walk(
        &self,
        amps: &mut [Complex64],
        mut range: Range<usize>,
        rebound: Option<f64>,
        inputs: &[&[f64]],
        scratch: &mut LaneScratch,
    ) -> Result<(), RuntimeError> {
        if let Some(theta) = rebound {
            let gate = [self.ops[range.start].with_angle(theta)?];
            let bound = [(&gate[..], self.params.as_slice())];
            walk(&mut [&mut *amps], 1, &bound, inputs, scratch);
            range.start += 1;
        }
        let bound = [(&self.ops[range], self.params.as_slice())];
        walk(&mut [amps], 1, &bound, inputs, scratch);
        Ok(())
    }
}

/// One input vector's **prefix-shared parameter-shift walk** over a raw
/// schedule binding ([`prebind_raw`], or the density binding of
/// [`crate::superop::prebind_density`]).
///
/// The walk holds the register after raw ops `0..pos`.
/// [`ShiftWalk::shifted`] forks it: copy the prefix, apply op `pos` at an
/// overridden angle, then run the suffix `pos+1..`. A fork applies
/// exactly the ops, in exactly the order, of a from-scratch raw run with
/// that one angle overridden, so its final register is bit-identical to
/// that run at `G − pos` op applications instead of `G`. Every ± term of
/// every occurrence shares the prefix, and [`ShiftWalk::advance_to`]
/// extends it (unshifted) to the next occurrence.
pub(crate) struct ShiftWalk<'a, S: ShiftSchedule> {
    pb: &'a S,
    inputs: [&'a [f64]; 1],
    prefix: S::Register,
    pos: usize,
    fork: S::Register,
    scratch: LaneScratch,
}

impl<'a, S: ShiftSchedule> ShiftWalk<'a, S> {
    /// A walk at the zero register, before raw op 0. Input lengths are
    /// the caller's responsibility.
    pub(crate) fn new(pb: &'a S, inputs: &'a [f64]) -> Self {
        ShiftWalk {
            pb,
            inputs: [inputs],
            prefix: pb.zero(),
            pos: 0,
            fork: pb.zero(),
            scratch: LaneScratch::default(),
        }
    }

    /// Extends the prefix through raw ops `pos..k`, unshifted.
    pub(crate) fn advance_to(&mut self, k: usize) -> Result<(), RuntimeError> {
        debug_assert!(k >= self.pos, "the walk only moves forward");
        let amps = S::amps(&mut self.prefix);
        let range = self.pos..k;
        self.pos = k;
        self.pb
            .walk(amps, range, None, &self.inputs, &mut self.scratch)
    }

    /// The final register with raw op `pos` run at angle `theta`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when op `pos` is not a
    /// resolved rotation (see [`PreOp::with_angle`]).
    pub(crate) fn shifted(&mut self, theta: f64) -> Result<&S::Register, RuntimeError> {
        let amps = S::amps(&mut self.fork);
        amps.copy_from_slice(S::amps(&mut self.prefix));
        let range = self.pos..self.pb.n_ops();
        let rebound = Some(theta);
        (self.pb).walk(amps, range, rebound, &self.inputs, &mut self.scratch)?;
        Ok(&self.fork)
    }
}

/// Runs the **raw** schedule from `|0…0⟩` with gate `override_idx` — a
/// trainable rotation — rebound to `theta`: the from-scratch oracle that
/// the prefix-shared [`ShiftWalk`] must reproduce bit for bit.
#[cfg(test)]
pub(crate) fn run_raw_with_override(
    compiled: &CompiledCircuit,
    inputs: &[f64],
    params: &[f64],
    override_idx: usize,
    theta: f64,
) -> StateVector {
    let mut pb = prebind_raw(compiled, params).expect("test bindings match the circuit");
    pb.ops[override_idx] = pb.ops[override_idx]
        .with_angle(theta)
        .expect("the override targets a trainable rotation");
    run_prebound(&pb, inputs).expect("test inputs match the circuit")
}

// ---------------------------------------------------------------------
// Lane-slab execution: many circuits through one schedule walk.
//
// The slab stores `L` statevectors transposed — `slab[amp · L + lane]` —
// so each gate is dispatched **once** and its update runs over contiguous
// runs of lane rows through the `qsim::rows` kernels. Every lane sees the
// same per-element arithmetic at every lane count, so slab execution is
// bit-identical to running each lane alone; at `L = 1` the slab is a
// statevector.
// ---------------------------------------------------------------------

/// Per-lane trig scratch of a slab walk, owned by the caller so that
/// repeated walks (the shift walk's forks) reuse its buffers.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// `(sin θ/2, cos θ/2)` of the current rotation when every lane shares
    /// it (one input vector and one binding for every lane), with no
    /// buffer to fill.
    pub(crate) uniform: Option<(f64, f64)>,
    /// Otherwise the current rotation's pair for each lane.
    pub(crate) trig: Vec<(f64, f64)>,
    /// For a per-lane Rz, the phase `(c, −s)` of target-clear rows.
    pub(crate) zlo: Vec<(f64, f64)>,
    /// For a per-lane Rz, the phase `(c, s)` of target-set rows.
    pub(crate) zhi: Vec<(f64, f64)>,
}

impl LaneScratch {
    /// Resolves an input-dependent rotation (at `−θ` when `negate`) for
    /// every lane with the exact arithmetic of the per-circuit angle
    /// kernels: once per op, however many registers the op then runs on.
    /// Lane `l` resolves with its own inputs and parameters, each given
    /// per lane or once for every lane (see [`walk`]).
    pub(crate) fn resolve(
        &mut self,
        axis: RotationAxis,
        angle: &FusedAngle,
        negate: bool,
        inputs: &[&[f64]],
        bound: &[Bound<'_>],
    ) {
        let trig = |lane_inputs: &[f64], (_, params): Bound<'_>| {
            let theta = angle.value(lane_inputs, params);
            let theta = if negate { -theta } else { theta };
            (theta / 2.0).sin_cos()
        };
        if let ([lane_inputs], [one]) = (inputs, bound) {
            self.uniform = Some(trig(lane_inputs, *one));
            return;
        }
        let lanes = inputs.len().max(bound.len());
        let at = |len: usize, lane: usize| if len == 1 { 0 } else { lane };
        self.fill(
            axis,
            (0..lanes).map(|l| trig(inputs[at(inputs.len(), l)], bound[at(bound.len(), l)])),
        );
    }

    /// Gathers every lane's hoisted trig of op `k`, a resolved rotation
    /// in every binding of one schedule.
    fn gather(&mut self, axis: RotationAxis, bound: &[Bound<'_>], k: usize) {
        self.fill(axis, bound.iter().filter_map(|(ops, _)| ops[k].trig()));
    }

    /// Fills the per-lane tables from each lane's `(sin θ/2, cos θ/2)`.
    fn fill(&mut self, axis: RotationAxis, trig: impl Iterator<Item = (f64, f64)>) {
        self.uniform = None;
        self.trig.clear();
        self.trig.extend(trig);
        self.zlo.clear();
        self.zhi.clear();
        if axis == RotationAxis::Z {
            for &(s, c) in &self.trig {
                self.zlo.push((c, -s));
                self.zhi.push((c, s));
            }
        }
    }

    /// Runs the resolved rotation on target mask `mt` where control mask
    /// `mc` is set.
    pub(crate) fn apply(
        &self,
        slab: &mut rows::Slab<'_>,
        axis: RotationAxis,
        mt: usize,
        mc: usize,
    ) {
        if let Some((s, c)) = self.uniform {
            return slab.rot(axis, mt, mc, s, c);
        }
        match axis {
            RotationAxis::X => slab.rot_x_lanes(mt, mc, &self.trig),
            RotationAxis::Y => slab.rot_y_lanes(mt, mc, &self.trig),
            RotationAxis::Z => slab.phase_lanes(mt, mc, &self.zlo, &self.zhi),
        }
    }
}

/// Applies a bound op list in order to every lane of each slab
/// (`slab[amp · lanes + lane]`): the runtime's one statevector walker.
/// Lane `l` is bound to `inputs[l]`, or every lane to `inputs[0]` when
/// one input vector is given (the trajectories of one evaluation), and
/// likewise to `bound[l]` or `bound[0]`. Per-lane bindings must all bind
/// one compiled schedule ([`PreboundCircuit::same_schedule`]): a
/// resolved rotation then runs each lane's own trig through the per-lane
/// kernels, an input rotation resolves with each lane's own parameters,
/// and every other op is the same for every lane. With one binding the
/// walk runs every rotation through the uniform kernels. Each slab gets
/// one view for all of the ops. Batched forwards run it over lane chunks
/// (the agents of a rollout tick as lanes of one slab), single states
/// (`run_prebound`, the shift walk's prefix and forks) over one lane,
/// and both adjoints over their forward and inverse ops; the adjoint
/// un-applies each op from φ and every λ in one call, which resolves a
/// rotation's trig once for all of them.
pub(crate) fn walk(
    slabs: &mut [&mut [Complex64]],
    lanes: usize,
    bound: &[Bound<'_>],
    inputs: &[&[f64]],
    scratch: &mut LaneScratch,
) {
    assert!(
        inputs.len() == lanes || inputs.len() == 1,
        "one input vector per lane, or one for every lane"
    );
    assert!(
        bound.len() == lanes || bound.len() == 1,
        "one binding per lane, or one for every lane"
    );
    let Some(&(ops, _)) = bound.first() else {
        return;
    };
    assert!(
        bound
            .iter()
            .all(|(lane_ops, _)| lane_ops.len() == ops.len()),
        "the bindings of one walk bind one schedule"
    );
    let per_lane = bound.len() > 1;
    // A one-op walk over several slabs (the adjoint un-applying an op from
    // φ and every λ) reuses the trig the first slab resolved.
    let reuse = |i: usize| i > 0 && ops.len() == 1;
    for (i, slab) in slabs.iter_mut().enumerate() {
        let mut slab = rows::Slab::new(slab, lanes);
        for (k, op) in ops.iter().enumerate() {
            match op {
                PreOp::RotSC { qubit, axis, s, c } if !per_lane => {
                    slab.rot(*axis, 1 << qubit, 0, *s, *c)
                }
                PreOp::CRotSC {
                    control,
                    target,
                    axis,
                    s,
                    c,
                } if !per_lane => slab.rot(*axis, 1 << target, 1 << control, *s, *c),
                PreOp::RotSC { axis, .. } | PreOp::CRotSC { axis, .. } => {
                    if !reuse(i) {
                        scratch.gather(*axis, bound, k);
                    }
                    let (mt, mc) = op.masks();
                    scratch.apply(&mut slab, *axis, mt, mc)
                }
                PreOp::Rot {
                    qubit,
                    axis,
                    angle,
                    negate,
                } => {
                    if !reuse(i) {
                        scratch.resolve(*axis, angle, *negate, inputs, bound);
                    }
                    scratch.apply(&mut slab, *axis, 1 << qubit, 0)
                }
                PreOp::CRot {
                    control,
                    target,
                    axis,
                    angle,
                    negate,
                } => {
                    if !reuse(i) {
                        scratch.resolve(*axis, angle, *negate, inputs, bound);
                    }
                    scratch.apply(&mut slab, *axis, 1 << target, 1 << control)
                }
                PreOp::Cnot { control, target } => slab.cnot(1 << control, 1 << target),
                PreOp::Cz { control, target } => slab.cz(1 << control, 1 << target),
                PreOp::Fixed { qubit, gate } => slab.gate1(1 << qubit, 0, gate),
                PreOp::Fixed2 { qa, qb, gate } => slab.gate2(1 << qa, 1 << qb, gate),
            }
        }
    }
}

/// Runs a prebound schedule over all `inputs` lanes in one schedule walk,
/// returning each lane's final state (bit-identical to per-lane
/// [`run_prebound`]; input lengths are the caller's responsibility).
/// The executor consumes the raw slab directly; this materialised form
/// is the equivalence-test surface.
#[cfg(test)]
pub(crate) fn run_prebound_slab(pb: &PreboundCircuit, inputs: &[&[f64]]) -> Vec<StateVector> {
    let lanes = inputs.len();
    let slab = run_prebound_slab_raw(pb.n_qubits, &[pb.bound()], inputs);
    (0..lanes)
        .map(|lane| {
            let mut state = StateVector::zero(pb.n_qubits);
            let amps = state.amplitudes_mut();
            for (i, amp) in amps.iter_mut().enumerate() {
                *amp = slab[i * lanes + lane];
            }
            state
        })
        .collect()
}

/// Evaluates a readout for **every** lane in a single pass over the
/// transposed slab, with exactly the arithmetic (and summation order) of
/// `Readout::evaluate` over per-lane statevectors — each `(qubit, lane)`
/// ⟨Z⟩ accumulator folds `±|a|²` in ascending amplitude order, and the
/// weighted sum folds over qubits afterwards, so every lane's result is
/// bit-identical to the old per-lane walk while touching the slab once
/// instead of `lanes × outputs` times. Guarded bit-exact against the
/// plain path by the executor's prebound batch test.
pub(crate) fn readouts_from_slab(
    readout: &qmarl_vqc::observable::Readout,
    slab: &[Complex64],
    lanes: usize,
) -> Vec<Vec<f64>> {
    use qmarl_vqc::observable::Readout;
    if lanes == 0 {
        return Vec::new();
    }
    let dim = slab.len() / lanes;
    let qs: Vec<usize> = match readout {
        Readout::ZPerQubit { qubits } => qubits.clone(),
        Readout::WeightedZSum { weights } => (0..weights.len()).collect(),
    };
    // ez[k · lanes + lane] = ⟨Z_{qs[k]}⟩ of lane — |a|² computed once per
    // cell and reused across qubits (same value either way).
    let mut ez = vec![0.0f64; qs.len() * lanes];
    for i in 0..dim {
        let row = &slab[i * lanes..(i + 1) * lanes];
        for (lane, a) in row.iter().enumerate() {
            let n = a.norm_sqr();
            for (k, &q) in qs.iter().enumerate() {
                if i & (1usize << q) == 0 {
                    ez[k * lanes + lane] += n;
                } else {
                    ez[k * lanes + lane] -= n;
                }
            }
        }
    }
    match readout {
        Readout::ZPerQubit { .. } => (0..lanes)
            .map(|lane| (0..qs.len()).map(|k| ez[k * lanes + lane]).collect())
            .collect(),
        Readout::WeightedZSum { weights } => (0..lanes)
            .map(|lane| {
                let mut acc = 0.0;
                for (k, w) in weights.iter().enumerate() {
                    acc += w * ez[k * lanes + lane];
                }
                vec![acc]
            })
            .collect(),
    }
}

/// The slab itself, `slab[amp · lanes + lane]`, after a walk of
/// `n_qubits`-qubit lanes from `|0…0⟩` (bindings and inputs as in
/// [`walk`]).
pub(crate) fn run_prebound_slab_raw(
    n_qubits: usize,
    bound: &[Bound<'_>],
    inputs: &[&[f64]],
) -> Vec<Complex64> {
    let lanes = inputs.len();
    if lanes == 0 {
        return Vec::new();
    }
    let mut slab = vec![Complex64::ZERO; (1usize << n_qubits) * lanes];
    for cell in slab[..lanes].iter_mut() {
        *cell = Complex64::ONE; // every lane starts in |0…0⟩
    }
    let mut scratch = LaneScratch::default();
    let slabs = &mut [slab.as_mut_slice()];
    walk(slabs, lanes, bound, inputs, &mut scratch);
    slab
}

// ---------------------------------------------------------------------
// Prebound adjoint differentiation: the training hot path.
//
// The serial adjoint (`qmarl_vqc::grad::jacobian_adjoint`) walks the raw
// op list once forward and once backward, rebuilding every rotation's
// trig (and its inverse's trig) from scratch on every sample, through the
// generic 2×2 gate interpreter. During an update sweep the parameters are
// frozen, so — exactly like [`prebind`] for the forward path — all
// parameter-only trig can be hoisted out of the per-sample loop, and the
// whole minibatch can share one schedule walk per lane slab, reusing the
// forward amplitude slab as the starting point of the reverse sweep.
//
// **Exactness.** The per-lane arithmetic below replicates the serial
// interpreter *value for value*:
//
// * hoisted trig pairs are the values `Gate1::rx/ry` compute, and the
//   inverse of a rotation is built from the *negated angle*, as the
//   interpreter builds it;
// * Z rotations run as the walker's phases `(c, −s)`, `(c, s)` from
//   `sin_cos(θ/2)`, where `Gate1::rz` builds `from_polar(1, ∓θ/2)`: the
//   two agree when libm's `sin` is odd and its `cos` even. That
//   assumption is checked, not trusted: the bit-exact tests against
//   `jacobian_adjoint` below, the trainer equivalence suite and the
//   golden runs fail (rather than return a wrong gradient) on a libm
//   without that symmetry, at every SIMD level;
// * the specialised pair/phase updates are value-identical to the generic
//   complex 2×2 product against rotation matrices (the dropped terms are
//   exact-zero products, and IEEE-754 makes `x·(−s) ≡ −(x·s)` and
//   `a + (−t) ≡ a − t` exact);
// * reductions (inner products, ⟨Z⟩ readouts) fold in amplitude order,
//   matching the serial folds.
//
// `run_adjoint_slab` is therefore bit-identical (as `f64` values) to
// per-sample `jacobian_adjoint` calls — asserted against the vqc engine
// in this module's tests and end-to-end by the trainer equivalence suite.
// ---------------------------------------------------------------------

use qmarl_vqc::grad::Jacobian;
use qmarl_vqc::observable::Readout;

/// A raw (unfused) schedule bound to one frozen parameter vector for
/// adjoint differentiation: the raw schedule's prebound ops, plus two
/// tables aligned with them — every op's inverse and the trainable
/// parameter each op consumes, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct PreboundAdjoint {
    fwd: PreboundCircuit,
    inv: Vec<PreOp>,
    param_of: Vec<Option<usize>>,
}

impl PreboundAdjoint {
    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.fwd.n_qubits
    }

    /// Expected input-vector length.
    pub fn n_inputs(&self) -> usize {
        self.fwd.n_inputs
    }

    /// Trainable-parameter arity (Jacobian columns).
    pub fn n_params(&self) -> usize {
        self.fwd.params.len()
    }

    /// The frozen parameter vector this schedule was bound with.
    pub fn params(&self) -> &[f64] {
        &self.fwd.params
    }

    /// Number of rotations whose trig was hoisted (diagnostic).
    pub fn resolved_rotations(&self) -> usize {
        self.fwd.resolved_rotations()
    }

    /// The forward ops, in raw-schedule order.
    pub(crate) fn ops(&self) -> &[PreOp] {
        &self.fwd.ops
    }
}

/// Binds the **raw** schedule of a compiled circuit to a frozen parameter
/// vector for adjoint differentiation (the adjoint sweep shifts
/// individual op occurrences, so it cannot run the fused schedule).
///
/// # Errors
///
/// Returns [`RuntimeError::ParamLenMismatch`] when `params` does not match
/// the compiled arity.
pub fn prebind_adjoint(
    compiled: &CompiledCircuit,
    params: &[f64],
) -> Result<PreboundAdjoint, RuntimeError> {
    let fwd = prebind_raw(compiled, params)?;
    let raw = compiled.raw_schedule();
    let inv = raw
        .iter()
        .map(|gate| bind_gate(gate, params, true))
        .collect();
    let mut param_of = vec![None; raw.len()];
    for occ in compiled.occurrences() {
        param_of[occ.raw_idx] = Some(occ.param);
    }
    Ok(PreboundAdjoint { fwd, inv, param_of })
}

/// An output observable of the adjoint sweep (λ construction).
enum SlabObservable {
    SingleZ(usize),
    WeightedZ(Vec<f64>),
}

impl SlabObservable {
    /// The λ observables of a readout, in output order.
    fn of_readout(readout: &Readout) -> Vec<SlabObservable> {
        match readout {
            Readout::ZPerQubit { qubits } => {
                qubits.iter().map(|&q| SlabObservable::SingleZ(q)).collect()
            }
            Readout::WeightedZSum { weights } => vec![SlabObservable::WeightedZ(weights.clone())],
        }
    }

    /// `O|ψ⟩` over a whole lane slab, mirroring the serial observable
    /// application amplitude for amplitude.
    fn apply_slab(&self, slab: &[Complex64], lanes: usize) -> Vec<Complex64> {
        let mut out = slab.to_vec();
        let dim = slab.len() / lanes.max(1);
        match self {
            SlabObservable::SingleZ(q) => {
                let mask = 1usize << q;
                for i in 0..dim {
                    if i & mask != 0 {
                        for a in out[i * lanes..(i + 1) * lanes].iter_mut() {
                            *a = -*a;
                        }
                    }
                }
            }
            SlabObservable::WeightedZ(weights) => {
                for i in 0..dim {
                    let mut coeff = 0.0;
                    for (q, w) in weights.iter().enumerate() {
                        let sign = if i & (1usize << q) == 0 { 1.0 } else { -1.0 };
                        coeff += w * sign;
                    }
                    for (a, &src) in out[i * lanes..(i + 1) * lanes]
                        .iter_mut()
                        .zip(&slab[i * lanes..(i + 1) * lanes])
                    {
                        *a = src.scale(coeff);
                    }
                }
            }
        }
        out
    }
}

/// Accumulates `Im⟨λ_j|G|φ⟩` into `accs[j·lanes + lane]` for every
/// `(output, lane)` pair, where `G` is the generator of the parameterised
/// rotation (`U = exp(−iθG/2)`, with a `|1⟩⟨1|` control projector for
/// controlled rotations) — **without materialising `G|φ⟩`**. The old
/// reduction copied the full φ slab per trainable occurrence and rewrote
/// it with the generator; here each generator row is rebuilt from φ on
/// the fly, one `dim × lanes` sweep per occurrence with zero copies.
///
/// Bit-exactness vs. the slab-materialising reduction:
///
/// * the Pauli row maps replicate `apply_pauli` value for value —
///   `X: (Gφ)ᵢ = φ_{i⊕mt}`; `Y: (Gφ)ᵢ = (x.im, −x.re)` from `x = φ_{i⊕mt}`
///   on target-clear rows and `(−x.im, x.re)` on target-set rows;
///   `Z: (Gφ)ᵢ = ±φᵢ` — unary `f64` negation is an exact sign flip;
/// * control-clear rows are skipped rather than folded as zeros: every
///   accumulator starts `+0.0` and adding `±0.0` to a `+0.0`-or-nonzero
///   `f64` never changes it (and no nonzero fold ever yields `−0.0`), so
///   skipping those terms is bit-free;
/// * `(λ*·g).im ≡ λ.re·g.im − λ.im·g.re` because `(−a)·b ≡ −(a·b)` and
///   `x + (−t) ≡ x − t` are exact in IEEE-754;
/// * per `(j, lane)` the fold still runs in ascending amplitude order —
///   the row-major multi-λ sweep reorders only *distinct* accumulators,
///   never the terms within one;
/// * the sweep itself is `rows::adj_acc_slab_multi`, which builds each
///   generator row once and folds every λ against it; its AVX2 path uses
///   exact sign flips and folds each lane with the scalar
///   `mul, mul, sub, add` (`hsub` subtracts the same two products) —
///   bit-identical by construction and asserted in its parity test.
fn accumulate_generator_im(
    op: &PreOp,
    phi: &[Complex64],
    lambdas: &[&[Complex64]],
    lanes: usize,
    dim: usize,
    accs: &mut [f64],
    gbuf: &mut [Complex64],
) {
    let (control, target, axis) = match *op {
        PreOp::RotSC { qubit, axis, .. } | PreOp::Rot { qubit, axis, .. } => (None, qubit, axis),
        PreOp::CRotSC {
            control,
            target,
            axis,
            ..
        }
        | PreOp::CRot {
            control,
            target,
            axis,
            ..
        } => (Some(control), target, axis),
        // xcheck: allow(no-panic-serve) — the reverse sweep calls this only
        // for ops with a trainable slot, which prebinding sets on rotations.
        _ => unreachable!("generator requested for non-parameterised op"),
    };
    let mt = 1usize << target;
    let mc = control.map_or(0, |c| 1usize << c);
    match axis {
        RotationAxis::X => rows::adj_acc_slab_multi::<{ rows::AXIS_X }>(
            accs, lambdas, phi, gbuf, lanes, dim, mt, mc,
        ),
        RotationAxis::Y => rows::adj_acc_slab_multi::<{ rows::AXIS_Y }>(
            accs, lambdas, phi, gbuf, lanes, dim, mt, mc,
        ),
        RotationAxis::Z => rows::adj_acc_slab_multi::<{ rows::AXIS_Z }>(
            accs, lambdas, phi, gbuf, lanes, dim, mt, mc,
        ),
    }
}

/// The adjoint recursion both adjoints share, from the forward slab `φ`
/// (`lanes` lanes bound to `inputs`, as in [`walk`]). It builds
/// `λ_j = O_j φ` for every output of `readout`, then, from the last op
/// down to the first trainable one:
///
/// 1. `hook(k, [φ, λs…])` — the trajectory un-applies op `k`'s recorded
///    Pauli patches here;
/// 2. accumulates `Im⟨λ_j|G|φ⟩` into `accs[j · lanes + lane]` when op `k`
///    is trainable (φ is the state *after* op `k`, exactly like the
///    serial sweep) and
/// 3. hands them to `fold(param, accs)`;
/// 4. un-applies op `k` from φ and every λ in one [`walk`], which
///    resolves an input rotation's trig once for all of them.
///
/// States before the first trainable op (the input-encoder prefix) are
/// never read, so the sweep ends right after that op's contribution.
pub(crate) fn reverse_sweep(
    pa: &PreboundAdjoint,
    readout: &Readout,
    phi: &mut [Complex64],
    lanes: usize,
    inputs: &[&[f64]],
    mut hook: impl FnMut(usize, &mut [&mut [Complex64]]),
    mut fold: impl FnMut(usize, &[f64]),
) {
    let Some(first_param) = pa.param_of.iter().position(Option::is_some) else {
        return;
    };
    let dim = phi.len() / lanes;
    let mut lambdas: Vec<Vec<Complex64>> = SlabObservable::of_readout(readout)
        .iter()
        .map(|o| o.apply_slab(phi, lanes))
        .collect();
    let mut accs = vec![0.0f64; lambdas.len() * lanes];
    let mut gbuf = vec![Complex64::ZERO; lanes];
    let mut scratch = LaneScratch::default();
    let params = pa.params();
    // φ first, then the λs in output order.
    let mut regs: Vec<&mut [Complex64]> = std::iter::once(phi)
        .chain(lambdas.iter_mut().map(Vec::as_mut_slice))
        .collect();
    for k in (first_param..pa.inv.len()).rev() {
        hook(k, &mut regs);
        if let Some(p) = pa.param_of[k] {
            accs.fill(0.0);
            let lrefs: Vec<&[Complex64]> = regs[1..].iter().map(|l| &**l).collect();
            accumulate_generator_im(
                &pa.fwd.ops[k],
                &*regs[0],
                &lrefs,
                lanes,
                dim,
                &mut accs,
                &mut gbuf,
            );
            fold(p, &accs);
        }
        if k == first_param {
            break;
        }
        let inverse = [(&pa.inv[k..=k], params)];
        walk(&mut regs, lanes, &inverse, inputs, &mut scratch);
    }
}

/// Runs the adjoint sweep over all `inputs` lanes in one pair of schedule
/// walks (forward, then reverse reusing the forward slab), returning each
/// lane's `(raw readout vector, circuit-parameter Jacobian)`.
///
/// Bit-identical per lane to `readout.evaluate(vqc::exec::run(…))` plus
/// `qmarl_vqc::grad::jacobian_adjoint` — input lengths and the readout are
/// the caller's responsibility (the executor validates once per batch).
pub(crate) fn run_adjoint_slab(
    pa: &PreboundAdjoint,
    readout: &Readout,
    inputs: &[&[f64]],
) -> Vec<(Vec<f64>, Jacobian)> {
    let lanes = inputs.len();
    if lanes == 0 {
        return Vec::new();
    }
    // Forward walk over the raw (unfused) schedule: the serial adjoint
    // differentiates the op list 1:1, so no fusion here either.
    let mut phi = run_prebound_slab_raw(pa.n_qubits(), &[pa.fwd.bound()], inputs);
    let outs = readouts_from_slab(readout, &phi, lanes);
    let n_out = readout.output_len();
    let mut jacs = vec![Jacobian::zeros(n_out, pa.n_params()); lanes];
    let fold = |p: usize, accs: &[f64]| {
        for (lane, jac) in jacs.iter_mut().enumerate() {
            for j in 0..n_out {
                *jac.get_mut(j, p) += accs[j * lanes + lane];
            }
        }
    };
    reverse_sweep(pa, readout, &mut phi, lanes, inputs, |_, _| {}, fold);
    outs.into_iter().zip(jacs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use qmarl_qsim::gate::RotationAxis as Ax;
    use qmarl_vqc::ansatz::{init_params, layered_ansatz};
    use qmarl_vqc::encoder::layered_angle_encoder;
    use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};

    fn actor_circuit() -> Circuit {
        let mut c = layered_angle_encoder(4, 4).unwrap();
        c.append_shifted(&layered_ansatz(4, 42).unwrap()).unwrap();
        c
    }

    #[test]
    fn mixed_input_param_angles_stay_symbolic_and_exact() {
        // Adjacent same-axis rotations fuse; an input rotation followed by
        // a parameter rotation on one wire produces a mixed Sum angle that
        // prebinding must leave symbolic.
        let mut c = Circuit::new(2);
        c.rot(0, Ax::Y, Angle::Input(InputId(0))).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.fixed(1, FixedGate::H).unwrap();
        c.controlled_rot(0, 1, Ax::Z, Angle::Param(ParamId(1)))
            .unwrap();
        c.cnot(0, 1).unwrap();
        c.rot(1, Ax::X, Angle::Const(0.4)).unwrap();
        let compiled = compile(&c);
        let params = [0.7, -1.1];
        let pb = prebind(&compiled, &params).unwrap();
        // The fused Y rotation depends on input 0 → symbolic; the CRz and
        // the constant Rx resolve.
        assert_eq!(pb.resolved_rotations(), 2);
        for x in [-0.9, 0.0, 1.3] {
            let fast = run_prebound(&pb, &[x]).unwrap();
            let reference = qmarl_vqc::exec::run(&c, &[x], &params).unwrap();
            for (a, b) in fast.amplitudes().iter().zip(reference.amplitudes()) {
                assert!((*a - *b).abs() < 1e-14);
            }
            // A one-lane slab is the same walk, bit for bit.
            let lane = run_prebound_slab(&pb, &[&[x]]);
            assert_eq!(lane[0].amplitudes(), fast.amplitudes());
        }
    }

    #[test]
    fn slab_execution_is_bit_identical_to_per_lane() {
        let circuit = actor_circuit();
        let compiled = compile(&circuit);
        let params = init_params(circuit.param_count(), 5);
        let pb = prebind(&compiled, &params).unwrap();
        assert!(pb.resolved_rotations() >= 40, "ansatz must be hoisted");
        let inputs: Vec<Vec<f64>> = (0..7)
            .map(|b| (0..4).map(|i| 0.11 * (b * 4 + i) as f64 - 0.8).collect())
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let slab = run_prebound_slab(&pb, &refs);
        assert_eq!(slab.len(), 7);
        for (item, state) in refs.iter().zip(&slab) {
            let single = run_prebound(&pb, item).unwrap();
            assert_eq!(state.amplitudes(), single.amplitudes());
        }
        assert!(run_prebound_slab(&pb, &[]).is_empty());
    }

    #[test]
    fn slab_handles_every_gate_kind_bit_exactly() {
        // CRot on every axis, CZ, CNOT, fixed gates and a mixed fused
        // angle, across several lanes.
        let mut c = Circuit::new(3);
        c.fixed(0, FixedGate::H).unwrap();
        c.rot(0, Ax::X, Angle::Input(InputId(0))).unwrap();
        c.rot(1, Ax::Z, Angle::Input(InputId(1))).unwrap();
        c.rot(1, Ax::Z, Angle::Param(ParamId(0))).unwrap();
        c.controlled_rot(0, 1, Ax::X, Angle::Param(ParamId(1)))
            .unwrap();
        c.controlled_rot(1, 2, Ax::Y, Angle::Param(ParamId(2)))
            .unwrap();
        c.controlled_rot(2, 0, Ax::Z, Angle::Input(InputId(0)))
            .unwrap();
        c.cnot(0, 2).unwrap();
        c.cz(1, 2).unwrap();
        c.rot(2, Ax::Y, Angle::Const(-0.9)).unwrap();
        let compiled = compile(&c);
        let params = [0.4, -0.8, 1.7];
        let pb = prebind(&compiled, &params).unwrap();
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|b| vec![0.3 * b as f64 - 0.7, 0.2 * b as f64])
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        for (item, state) in refs.iter().zip(run_prebound_slab(&pb, &refs)) {
            let single = run_prebound(&pb, item).unwrap();
            assert_eq!(state.amplitudes(), single.amplitudes());
        }
    }

    /// The serial reference the adjoint engine must match bit-for-bit:
    /// interpreter forward + readout + `jacobian_adjoint`.
    fn serial_adjoint_reference(
        circuit: &Circuit,
        readout: &qmarl_vqc::observable::Readout,
        inputs: &[f64],
        params: &[f64],
    ) -> (Vec<f64>, Jacobian) {
        let state = qmarl_vqc::exec::run(circuit, inputs, params).unwrap();
        let out = readout.evaluate(&state).unwrap();
        let jac = qmarl_vqc::grad::jacobian_adjoint(circuit, readout, inputs, params).unwrap();
        (out, jac)
    }

    #[test]
    fn adjoint_slab_is_bit_identical_to_serial_adjoint() {
        // The paper's actor shape: layered encoder + ansatz, Z readout on
        // every wire. Hoisted trig + slab execution must reproduce the
        // vqc interpreter's values exactly, for any lane count.
        let circuit = actor_circuit();
        let compiled = compile(&circuit);
        let params = init_params(circuit.param_count(), 33);
        let readout = qmarl_vqc::observable::Readout::z_all(4);
        let pa = prebind_adjoint(&compiled, &params).unwrap();
        assert!(pa.resolved_rotations() >= 40, "ansatz must be hoisted");
        assert_eq!(pa.n_params(), circuit.param_count());

        let inputs: Vec<Vec<f64>> = (0..6)
            .map(|b| (0..4).map(|i| 0.13 * (b * 4 + i) as f64 - 0.9).collect())
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let slab = run_adjoint_slab(&pa, &readout, &refs);
        assert_eq!(slab.len(), 6);
        for (item, (out, jac)) in refs.iter().zip(&slab) {
            let (out_ref, jac_ref) = serial_adjoint_reference(&circuit, &readout, item, &params);
            assert_eq!(*out, out_ref, "forward readout must be bit-identical");
            assert_eq!(*jac, jac_ref, "adjoint Jacobian must be bit-identical");
        }
        // Lane-count invariance: a 1-lane slab reproduces every lane of
        // the wide slab exactly.
        for (item, wide) in refs.iter().zip(&slab) {
            let single = run_adjoint_slab(&pa, &readout, &[item]);
            assert_eq!(single[0], *wide);
        }
        assert!(run_adjoint_slab(&pa, &readout, &[]).is_empty());
    }

    #[test]
    fn adjoint_slab_handles_every_gate_kind_and_weighted_readout() {
        // Rotations on every axis (input-dependent and parameterised,
        // plain and controlled), CNOT, CZ, fixed gates, a shared
        // parameter, and the critic's weighted-Z scalar readout.
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
        c.rot(2, Ax::X, Angle::Param(ParamId(0))).unwrap(); // shared param
        c.rot(0, Ax::Y, Angle::Const(-0.9)).unwrap();
        let compiled = compile(&c);
        let params = [0.4, -0.8, 1.7, 0.3, -1.1];
        let pa = prebind_adjoint(&compiled, &params).unwrap();

        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|b| vec![0.3 * b as f64 - 0.7, 0.2 * b as f64 + 0.1])
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        for readout in [
            qmarl_vqc::observable::Readout::z_all(3),
            qmarl_vqc::observable::Readout::mean_z(3),
            qmarl_vqc::observable::Readout::WeightedZSum {
                weights: vec![0.2, -1.3, 0.7],
            },
        ] {
            for (item, (out, jac)) in refs.iter().zip(run_adjoint_slab(&pa, &readout, &refs)) {
                let (out_ref, jac_ref) = serial_adjoint_reference(&c, &readout, item, &params);
                assert_eq!(out, out_ref);
                assert_eq!(jac, jac_ref);
            }
        }
    }

    #[test]
    fn adjoint_prebinding_lengths_validated() {
        let compiled = compile(&actor_circuit());
        let params = init_params(42, 0);
        assert!(matches!(
            prebind_adjoint(&compiled, &params[..7]),
            Err(RuntimeError::ParamLenMismatch { .. })
        ));
        let pa = prebind_adjoint(&compiled, &params).unwrap();
        assert_eq!(pa.n_qubits(), 4);
        assert_eq!(pa.n_inputs(), 4);
        assert_eq!(pa.params(), &params[..]);
    }

    #[test]
    fn binding_lengths_validated() {
        let compiled = compile(&actor_circuit());
        let params = init_params(42, 0);
        assert!(matches!(
            prebind(&compiled, &params[..10]),
            Err(RuntimeError::ParamLenMismatch { .. })
        ));
        let pb = prebind(&compiled, &params).unwrap();
        assert_eq!(pb.n_qubits(), 4);
        assert_eq!(pb.n_inputs(), 4);
        assert_eq!(pb.params(), &params[..]);
        assert!(matches!(
            run_prebound(&pb, &[0.0; 3]),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
    }
}
