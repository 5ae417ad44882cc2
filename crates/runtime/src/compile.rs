//! Lowering [`Circuit`] IR into flat, fusion-optimised gate schedules.
//!
//! The VQC layer's [`Circuit`] is a builder-friendly list of symbolic ops
//! that `vqc::exec::run` re-interprets on every evaluation: every gate
//! dispatches through the op enum, resolves its symbolic angle, and
//! re-validates wires. Training evaluates the *same* circuit thousands of
//! times per epoch (policy forward passes, parameter-shift fan-outs), so
//! this module lowers a circuit **once** into a [`CompiledCircuit`]:
//!
//! * angle slots resolved to direct input/parameter indices
//!   ([`FusedAngle`] — a constant plus a list of slot references),
//! * wires validated at compile time (execution skips all checks),
//! * adjacent same-axis rotations on the same wire **fused** into one
//!   gate whose angle is the sum of the originals' angle expressions, and
//!   adjacent fixed gates on the same wire fused into one pre-multiplied
//!   unitary,
//! * the raw (unfused) schedule and its trainable-parameter occurrence
//!   table retained for the parameter-shift gradient path, which must
//!   shift *individual* occurrences and therefore cannot use the fused
//!   schedule when a fusion merged two occurrences of the same parameter.
//!
//! Compiled circuits are keyed by a structural [`circuit_hash`] in
//! [`crate::cache::CircuitCache`], so repeated model constructions share
//! one compilation.

use std::hash::{Hash, Hasher};

use qmarl_qsim::gate::{Gate1, Gate2, RotationAxis};
use qmarl_vqc::ir::{Angle, Circuit, InputId, Op, ParamId};

/// One symbolic term of a fused rotation angle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AngleTerm {
    /// Add the classical input at this index.
    Input(usize),
    /// Add the trainable parameter at this index.
    Param(usize),
}

/// A compiled rotation angle: a constant plus zero or more slot terms.
///
/// The unfused cases (`Const`, `Single` with base 0) resolve with one
/// branch and at most one indexed load — no slower than the interpreter's
/// symbolic lookup — while fusion products fall back to the general
/// `Sum` form.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedAngle {
    /// A constant angle (radians).
    Const(f64),
    /// `base + slot` — the common single-occurrence case.
    Single {
        /// Constant offset.
        base: f64,
        /// The slot reference.
        term: AngleTerm,
    },
    /// `base + Σ terms` — produced when fusion merges several angles (a
    /// slot may repeat when two gates driven by the same slot merged).
    Sum {
        /// Constant offset.
        base: f64,
        /// Slot references, coefficient 1 each.
        terms: Vec<AngleTerm>,
    },
}

impl FusedAngle {
    fn from_angle(angle: Angle) -> Self {
        match angle {
            Angle::Const(c) => FusedAngle::Const(c),
            Angle::Input(InputId(i)) => FusedAngle::Single {
                base: 0.0,
                term: AngleTerm::Input(i),
            },
            Angle::Param(ParamId(p)) => FusedAngle::Single {
                base: 0.0,
                term: AngleTerm::Param(p),
            },
        }
    }

    /// The constant part.
    fn base(&self) -> f64 {
        match *self {
            FusedAngle::Const(c) => c,
            FusedAngle::Single { base, .. } | FusedAngle::Sum { base, .. } => base,
        }
    }

    /// The slot terms.
    fn term_list(&self) -> Vec<AngleTerm> {
        match self {
            FusedAngle::Const(_) => Vec::new(),
            FusedAngle::Single { term, .. } => vec![*term],
            FusedAngle::Sum { terms, .. } => terms.clone(),
        }
    }

    fn merge(&mut self, other: &FusedAngle) {
        let base = self.base() + other.base();
        let mut terms = self.term_list();
        terms.extend(other.term_list());
        *self = match (terms.len(), terms.first()) {
            (0, _) => FusedAngle::Const(base),
            (1, Some(&term)) => FusedAngle::Single { base, term },
            _ => FusedAngle::Sum { base, terms },
        };
    }

    /// `true` when the angle references any input slot (so it cannot be
    /// resolved by parameter prebinding alone).
    pub fn depends_on_inputs(&self) -> bool {
        match self {
            FusedAngle::Const(_) => false,
            FusedAngle::Single { term, .. } => matches!(term, AngleTerm::Input(_)),
            FusedAngle::Sum { terms, .. } => terms.iter().any(|t| matches!(t, AngleTerm::Input(_))),
        }
    }

    /// Resolves the angle under bindings.
    #[inline]
    pub fn value(&self, inputs: &[f64], params: &[f64]) -> f64 {
        match self {
            FusedAngle::Const(c) => *c,
            FusedAngle::Single { base, term } => {
                base + match *term {
                    AngleTerm::Input(i) => inputs[i],
                    AngleTerm::Param(p) => params[p],
                }
            }
            FusedAngle::Sum { base, terms } => {
                let mut v = *base;
                for t in terms {
                    v += match *t {
                        AngleTerm::Input(i) => inputs[i],
                        AngleTerm::Param(p) => params[p],
                    };
                }
                v
            }
        }
    }
}

/// One gate of a compiled schedule. Wires are pre-validated; fixed gates
/// carry their concrete unitary.
#[derive(Debug, Clone, PartialEq)]
pub enum CGate {
    /// Rotation with a compiled angle.
    Rot {
        /// Target wire.
        qubit: usize,
        /// Rotation axis.
        axis: RotationAxis,
        /// Compiled angle expression.
        angle: FusedAngle,
    },
    /// Controlled rotation with a compiled angle.
    CRot {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
        /// Rotation axis.
        axis: RotationAxis,
        /// Compiled angle expression.
        angle: FusedAngle,
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
    /// A fixed (possibly pre-fused) single-qubit unitary.
    Fixed {
        /// Target wire.
        qubit: usize,
        /// Concrete unitary.
        gate: Gate1,
    },
    /// A fixed two-qubit unitary produced by entangler fusion: an
    /// entangler pre-multiplied with the constant one-qubit gates (and
    /// further entanglers) adjacent to it on its wire pair. Appears only
    /// in the **fused** schedule, never in `raw` (the gradient paths walk
    /// the raw schedule and are unaffected).
    Fixed2 {
        /// First wire — bit 0 of the matrix index.
        qa: usize,
        /// Second wire — bit 1 of the matrix index.
        qb: usize,
        /// Concrete two-qubit unitary in `(qa, qb)` orientation.
        gate: Gate2,
    },
}

impl CGate {
    /// `true` when fusing `next` into this gate is legal and performed.
    fn try_fuse(&mut self, next: &CGate) -> bool {
        match (self, next) {
            (
                CGate::Rot {
                    qubit: q1,
                    axis: a1,
                    angle,
                },
                CGate::Rot {
                    qubit: q2,
                    axis: a2,
                    angle: angle2,
                },
            ) if q1 == q2 && a1 == a2 => {
                angle.merge(angle2);
                true
            }
            (
                CGate::Fixed { qubit: q1, gate },
                CGate::Fixed {
                    qubit: q2,
                    gate: g2,
                },
            ) if q1 == q2 => {
                // Applying `gate` then `g2` is the matrix product `g2·gate`.
                *gate = g2.matmul(gate);
                true
            }
            _ => false,
        }
    }
}

/// One trainable-parameter occurrence in the **raw** schedule — the unit
/// of work of the parameter-shift rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Index into [`CompiledCircuit::raw_schedule`].
    pub raw_idx: usize,
    /// The parameter this occurrence consumes.
    pub param: usize,
    /// `true` for controlled rotations (four-term shift rule).
    pub controlled: bool,
}

/// A circuit lowered to flat schedules plus gradient metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    n_qubits: usize,
    n_inputs: usize,
    n_params: usize,
    /// Fusion-optimised forward schedule.
    fused: Vec<CGate>,
    /// Unfused schedule, 1:1 with the source circuit's ops.
    raw: Vec<CGate>,
    /// Trainable occurrences in `raw`, in op order.
    occurrences: Vec<Occurrence>,
    hash: u64,
}

impl CompiledCircuit {
    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Declared classical-input arity.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Declared trainable-parameter arity.
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The fusion-optimised forward schedule.
    #[inline]
    pub fn fused_schedule(&self) -> &[CGate] {
        &self.fused
    }

    /// The unfused schedule (1:1 with the source ops).
    #[inline]
    pub fn raw_schedule(&self) -> &[CGate] {
        &self.raw
    }

    /// Trainable-parameter occurrences in the raw schedule.
    #[inline]
    pub fn occurrences(&self) -> &[Occurrence] {
        &self.occurrences
    }

    /// The structural hash this compilation is cached under.
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Gates eliminated by fusion (diagnostic).
    pub fn gates_fused(&self) -> usize {
        self.raw.len() - self.fused.len()
    }
}

fn lower_op(op: &Op) -> CGate {
    match *op {
        Op::Rot { qubit, axis, angle } => CGate::Rot {
            qubit,
            axis,
            angle: FusedAngle::from_angle(angle),
        },
        Op::ControlledRot {
            control,
            target,
            axis,
            angle,
        } => CGate::CRot {
            control,
            target,
            axis,
            angle: FusedAngle::from_angle(angle),
        },
        Op::Cnot { control, target } => CGate::Cnot { control, target },
        Op::Cz { control, target } => CGate::Cz { control, target },
        Op::Fixed { qubit, gate } => CGate::Fixed {
            qubit,
            gate: gate.gate(),
        },
    }
}

/// Lowers a circuit into a [`CompiledCircuit`].
///
/// Wire validity is guaranteed by the [`Circuit`] builder, so lowering
/// cannot fail; fusion preserves semantics exactly (rotation angles about
/// the same axis add; fixed unitaries multiply).
pub fn compile(circuit: &Circuit) -> CompiledCircuit {
    let raw: Vec<CGate> = circuit.ops().iter().map(lower_op).collect();

    let occurrences = circuit
        .ops()
        .iter()
        .enumerate()
        .filter_map(|(raw_idx, op)| match op.angle() {
            Some(Angle::Param(ParamId(param))) => Some(Occurrence {
                raw_idx,
                param,
                controlled: matches!(op, Op::ControlledRot { .. }),
            }),
            _ => None,
        })
        .collect();

    // Fusion pass: `pending[w]` is the index (into `fused`) of the last
    // single-qubit gate on wire `w` with nothing later touching `w`.
    let mut fused: Vec<CGate> = Vec::with_capacity(raw.len());
    let mut pending: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
    for gate in &raw {
        match gate {
            CGate::Rot { qubit, .. } | CGate::Fixed { qubit, .. } => {
                if let Some(idx) = pending[*qubit] {
                    if fused[idx].try_fuse(gate) {
                        continue;
                    }
                }
                pending[*qubit] = Some(fused.len());
                fused.push(gate.clone());
            }
            CGate::CRot {
                control, target, ..
            }
            | CGate::Cnot { control, target }
            | CGate::Cz { control, target } => {
                pending[*control] = None;
                pending[*target] = None;
                fused.push(gate.clone());
            }
            CGate::Fixed2 { .. } => unreachable!("lowering never emits Fixed2"),
        }
    }

    let fused = fuse_entanglers(fused, circuit.n_qubits());

    CompiledCircuit {
        n_qubits: circuit.n_qubits(),
        n_inputs: circuit.input_count(),
        n_params: circuit.param_count(),
        fused,
        raw,
        occurrences,
        hash: circuit_hash(circuit),
    }
}

/// The concrete unitary and wire of an angle-free single-qubit gate.
fn const_1q(gate: &CGate) -> Option<(usize, Gate1)> {
    match gate {
        CGate::Fixed { qubit, gate } => Some((*qubit, *gate)),
        CGate::Rot {
            qubit,
            axis,
            angle: FusedAngle::Const(theta),
        } => Some((*qubit, axis.gate(*theta))),
        _ => None,
    }
}

/// The 4×4 matrix of an entangler, expressed in the `(qa, qb)` orientation
/// where `qa` is bit 0 of the matrix index. `None` when the entangler does
/// not act on exactly that wire pair.
fn entangler_matrix(gate: &CGate, qa: usize, qb: usize) -> Option<Gate2> {
    match *gate {
        CGate::Cnot { control, target } => {
            if control == qa && target == qb {
                Some(Gate2::cnot())
            } else if control == qb && target == qa {
                Some(Gate2::controlled_flipped(&Gate1::pauli_x()))
            } else {
                None
            }
        }
        CGate::Cz { control, target } => {
            // CZ is symmetric in its operands.
            if (control == qa && target == qb) || (control == qb && target == qa) {
                Some(Gate2::cz())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Second fusion pass: folds **constant** one-qubit gates into adjacent
/// entanglers (CNOT/CZ) and collapses entangler chains on the same wire
/// pair, producing single two-qubit matrix applications
/// ([`CGate::Fixed2`]) — the ansatz's rotation + entangler pattern in its
/// compile-time-resolvable (angle-free) form.
///
/// Only angle-free gates participate: input- and parameter-driven
/// rotations keep their specialised kernels (faster than a generic 4×4
/// for a lone gate, and their angles are unknown at compile time) and act
/// as barriers. Schedules without constant gates — including every paper
/// circuit — therefore pass through **untouched**, preserving golden
/// fingerprints bit for bit.
fn fuse_entanglers(gates: Vec<CGate>, n_qubits: usize) -> Vec<CGate> {
    // `out` uses tombstones so absorbed gates can be removed without
    // invalidating the `last[w]` indices (index of the last surviving
    // gate that touches wire `w`).
    let mut out: Vec<Option<CGate>> = Vec::with_capacity(gates.len());
    let mut last: Vec<Option<usize>> = vec![None; n_qubits];
    for gate in gates {
        // A constant 1-qubit gate folds into a two-qubit product already
        // formed on its wire (gates between them touch other wires only,
        // so commuting it back across them is exact).
        if let Some((w, u)) = const_1q(&gate) {
            if let Some(k) = last[w] {
                if let Some(CGate::Fixed2 { qa, qb, gate: m }) = &mut out[k] {
                    if *qa == w {
                        *m = Gate2::embed_first(&u).matmul(m);
                        continue;
                    } else if *qb == w {
                        *m = Gate2::embed_second(&u).matmul(m);
                        continue;
                    }
                }
            }
            last[w] = Some(out.len());
            out.push(Some(gate));
            continue;
        }
        if matches!(gate, CGate::Cnot { .. } | CGate::Cz { .. }) {
            let (a, b) = match &gate {
                CGate::Cnot { control, target } | CGate::Cz { control, target } => {
                    (*control, *target)
                }
                _ => unreachable!(),
            };
            // Chain-merge: the previous gate on *both* wires is one
            // Fixed2 on this same pair.
            if let (Some(ka), Some(kb)) = (last[a], last[b]) {
                if ka == kb {
                    if let Some(CGate::Fixed2 { qa, qb, gate: m }) = &mut out[ka] {
                        let e = entangler_matrix(&gate, *qa, *qb)
                            .expect("gate touching both wires of the pair acts on the pair");
                        *m = e.matmul(m);
                        continue;
                    }
                }
            }
            // Absorb pending constant 1-qubit predecessors, if any. The
            // entangler matrix multiplies from the left (it is applied
            // after them); `a` is bit 0, `b` bit 1.
            let ua = last[a].and_then(|k| out[k].as_ref().and_then(const_1q).map(|(_, u)| (k, u)));
            let ub = last[b].and_then(|k| out[k].as_ref().and_then(const_1q).map(|(_, u)| (k, u)));
            if ua.is_some() || ub.is_some() {
                let mut m = entangler_matrix(&gate, a, b).expect("entangler on its own pair");
                if let Some((k, u)) = ua {
                    m = m.matmul(&Gate2::embed_first(&u));
                    out[k] = None;
                }
                if let Some((k, u)) = ub {
                    m = m.matmul(&Gate2::embed_second(&u));
                    out[k] = None;
                }
                last[a] = Some(out.len());
                last[b] = Some(out.len());
                out.push(Some(CGate::Fixed2 {
                    qa: a,
                    qb: b,
                    gate: m,
                }));
                continue;
            }
            // Nothing to fuse: keep the cheap specialised kernel.
            last[a] = Some(out.len());
            last[b] = Some(out.len());
            out.push(Some(gate));
            continue;
        }
        // Symbolic rotations and controlled rotations are barriers.
        match &gate {
            CGate::Rot { qubit, .. } => last[*qubit] = Some(out.len()),
            CGate::CRot {
                control, target, ..
            } => {
                last[*control] = Some(out.len());
                last[*target] = Some(out.len());
            }
            _ => unreachable!("constant 1q gates and entanglers are handled above"),
        }
        out.push(Some(gate));
    }
    out.into_iter().flatten().collect()
}

fn hash_angle<H: Hasher>(angle: &Angle, h: &mut H) {
    match *angle {
        Angle::Input(InputId(i)) => {
            0u8.hash(h);
            i.hash(h);
        }
        Angle::Param(ParamId(p)) => {
            1u8.hash(h);
            p.hash(h);
        }
        Angle::Const(c) => {
            2u8.hash(h);
            c.to_bits().hash(h);
        }
    }
}

/// A structural hash of a circuit: width, op sequence, wires, axes and
/// angle symbols (constants by bit pattern). Equal circuits hash equal;
/// the cache resolves the (astronomically unlikely) collisions by full
/// structural comparison.
pub fn circuit_hash(circuit: &Circuit) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    circuit.n_qubits().hash(&mut h);
    for op in circuit.ops() {
        match *op {
            Op::Rot {
                qubit,
                axis,
                ref angle,
            } => {
                0u8.hash(&mut h);
                qubit.hash(&mut h);
                (axis as u8).hash(&mut h);
                hash_angle(angle, &mut h);
            }
            Op::ControlledRot {
                control,
                target,
                axis,
                ref angle,
            } => {
                1u8.hash(&mut h);
                control.hash(&mut h);
                target.hash(&mut h);
                (axis as u8).hash(&mut h);
                hash_angle(angle, &mut h);
            }
            Op::Cnot { control, target } => {
                2u8.hash(&mut h);
                control.hash(&mut h);
                target.hash(&mut h);
            }
            Op::Cz { control, target } => {
                3u8.hash(&mut h);
                control.hash(&mut h);
                target.hash(&mut h);
            }
            Op::Fixed { qubit, gate } => {
                4u8.hash(&mut h);
                qubit.hash(&mut h);
                gate.hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmarl_qsim::gate::RotationAxis as Ax;
    use qmarl_vqc::ir::FixedGate;

    fn chain() -> Circuit {
        let mut c = Circuit::new(2);
        c.rot(0, Ax::Y, Angle::Input(InputId(0))).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.rot(0, Ax::Y, Angle::Const(0.5)).unwrap();
        c.rot(1, Ax::X, Angle::Param(ParamId(1))).unwrap();
        c.cnot(0, 1).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(2))).unwrap();
        c
    }

    #[test]
    fn fuses_adjacent_same_axis_rotations() {
        let compiled = compile(&chain());
        // The three Ry on wire 0 fuse; the CNOT blocks the final Ry.
        assert_eq!(compiled.raw_schedule().len(), 6);
        assert_eq!(compiled.fused_schedule().len(), 4);
        assert_eq!(compiled.gates_fused(), 2);
        match &compiled.fused_schedule()[0] {
            CGate::Rot {
                qubit: 0,
                axis: Ax::Y,
                angle,
            } => {
                assert_eq!(
                    *angle,
                    FusedAngle::Sum {
                        base: 0.5,
                        terms: vec![AngleTerm::Input(0), AngleTerm::Param(0)],
                    }
                );
            }
            other => panic!("expected fused rotation, got {other:?}"),
        }
    }

    #[test]
    fn different_axis_or_wire_does_not_fuse() {
        let mut c = Circuit::new(2);
        c.rot(0, Ax::Y, Angle::Const(0.3)).unwrap();
        c.rot(0, Ax::Z, Angle::Const(0.4)).unwrap();
        c.rot(1, Ax::Y, Angle::Const(0.5)).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 3);
    }

    #[test]
    fn nonadjacent_same_wire_blocked_by_two_qubit_gate() {
        // Symbolic angles keep the entangler pass out of the picture, so
        // the schedule length directly witnesses that *rotation* fusion
        // was blocked by the CZ. (The all-constant variant of this
        // circuit now collapses into a single two-qubit matrix — see the
        // entangler-fusion tests below.)
        let mut c = Circuit::new(2);
        c.rot(0, Ax::X, Angle::Param(ParamId(0))).unwrap();
        c.cz(0, 1).unwrap();
        c.rot(0, Ax::X, Angle::Param(ParamId(1))).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 3);
    }

    #[test]
    fn interleaved_other_wire_rotations_still_fuse() {
        // Wire-1 rotations between the wire-0 rotations don't block fusion
        // on wire 0 (they commute: disjoint supports).
        let mut c = Circuit::new(2);
        c.rot(0, Ax::X, Angle::Const(0.1)).unwrap();
        c.rot(1, Ax::Y, Angle::Const(0.7)).unwrap();
        c.rot(0, Ax::X, Angle::Const(0.2)).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 2);
    }

    #[test]
    fn fixed_gates_premultiply() {
        let mut c = Circuit::new(1);
        c.fixed(0, FixedGate::H).unwrap();
        c.fixed(0, FixedGate::H).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 1);
        match &compiled.fused_schedule()[0] {
            // H·H = I.
            CGate::Fixed { gate, .. } => {
                assert!(gate.approx_eq(&Gate1::hadamard().matmul(&Gate1::hadamard()), 1e-12));
            }
            other => panic!("expected fused fixed gate, got {other:?}"),
        }
    }

    #[test]
    fn occurrence_table_matches_trainable_ops() {
        let compiled = compile(&chain());
        assert_eq!(
            compiled.occurrences(),
            &[
                Occurrence {
                    raw_idx: 1,
                    param: 0,
                    controlled: false
                },
                Occurrence {
                    raw_idx: 3,
                    param: 1,
                    controlled: false
                },
                Occurrence {
                    raw_idx: 5,
                    param: 2,
                    controlled: false
                },
            ]
        );
    }

    #[test]
    fn controlled_occurrences_flagged() {
        let mut c = Circuit::new(2);
        c.controlled_rot(0, 1, Ax::Z, Angle::Param(ParamId(0)))
            .unwrap();
        let compiled = compile(&c);
        assert!(compiled.occurrences()[0].controlled);
    }

    #[test]
    fn hash_is_structural() {
        let a = chain();
        let b = chain();
        assert_eq!(circuit_hash(&a), circuit_hash(&b));
        let mut c = chain();
        c.rot(1, Ax::Z, Angle::Const(0.0)).unwrap();
        assert_ne!(circuit_hash(&a), circuit_hash(&c));
        // Same shape, different constant: different hash.
        let mut d = Circuit::new(1);
        d.rot(0, Ax::X, Angle::Const(1.0)).unwrap();
        let mut e = Circuit::new(1);
        e.rot(0, Ax::X, Angle::Const(2.0)).unwrap();
        assert_ne!(circuit_hash(&d), circuit_hash(&e));
    }

    #[test]
    fn fused_angle_resolves_bindings() {
        let a = FusedAngle::Sum {
            base: 0.25,
            terms: vec![
                AngleTerm::Input(1),
                AngleTerm::Param(0),
                AngleTerm::Param(0),
            ],
        };
        assert!((a.value(&[9.0, 2.0], &[0.5]) - (0.25 + 2.0 + 1.0)).abs() < 1e-15);
        let s = FusedAngle::Single {
            base: 0.5,
            term: AngleTerm::Input(0),
        };
        assert!((s.value(&[1.25], &[]) - 1.75).abs() < 1e-15);
        assert!((FusedAngle::Const(0.75).value(&[], &[]) - 0.75).abs() < 1e-15);
    }

    /// Max |amplitude difference| between the fused and raw schedules.
    fn fused_raw_divergence(c: &Circuit, inputs: &[f64], params: &[f64]) -> f64 {
        use crate::prebound::{prebind, prebind_raw, run_prebound};
        let compiled = compile(c);
        let fused = run_prebound(&prebind(&compiled, params).unwrap(), inputs).unwrap();
        let raw = run_prebound(&prebind_raw(&compiled, params).unwrap(), inputs).unwrap();
        fused
            .amplitudes()
            .iter()
            .zip(raw.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn const_rotation_entangler_chain_collapses_to_one_fixed2() {
        // rz(0), ry(1), cnot(0,1), rx(1), cz(0,1): five constant gates,
        // one two-qubit matrix.
        let mut c = Circuit::new(2);
        c.rot(0, Ax::Z, Angle::Const(0.3)).unwrap();
        c.rot(1, Ax::Y, Angle::Const(-0.8)).unwrap();
        c.cnot(0, 1).unwrap();
        c.rot(1, Ax::X, Angle::Const(1.1)).unwrap();
        c.cz(0, 1).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 1);
        match &compiled.fused_schedule()[0] {
            CGate::Fixed2 { qa: 0, qb: 1, gate } => {
                let expect = Gate2::cz()
                    .matmul(&Gate2::embed_second(&Ax::X.gate(1.1)))
                    .matmul(&Gate2::cnot())
                    .matmul(&Gate2::embed_second(&Ax::Y.gate(-0.8)))
                    .matmul(&Gate2::embed_first(&Ax::Z.gate(0.3)));
                assert!(gate.approx_eq(&expect, 1e-12));
                assert!(gate.is_unitary(1e-12));
            }
            other => panic!("expected Fixed2, got {other:?}"),
        }
        assert!(fused_raw_divergence(&c, &[], &[]) < 1e-12);
    }

    #[test]
    fn flipped_orientation_entangler_fuses() {
        // The CNOT's control is the *second* wire of the pair as the
        // Fixed2 orients it (qa = control of the first absorbing gate).
        let mut c = Circuit::new(2);
        c.rot(0, Ax::X, Angle::Const(0.7)).unwrap();
        c.cnot(1, 0).unwrap();
        c.cz(1, 0).unwrap();
        // Control on the Fixed2's qb wire: exercises the flipped-control
        // CNOT embedding.
        c.cnot(0, 1).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 1);
        assert!(matches!(
            compiled.fused_schedule()[0],
            CGate::Fixed2 { qa: 1, qb: 0, .. }
        ));
        assert!(fused_raw_divergence(&c, &[], &[]) < 1e-12);
    }

    #[test]
    fn fixed_gate_then_entangler_fuses() {
        let mut c = Circuit::new(3);
        c.fixed(2, FixedGate::H).unwrap();
        c.cnot(2, 0).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 1);
        assert!(matches!(
            compiled.fused_schedule()[0],
            CGate::Fixed2 { qa: 2, qb: 0, .. }
        ));
        assert!(fused_raw_divergence(&c, &[], &[]) < 1e-12);
    }

    #[test]
    fn symbolic_rotations_block_entangler_fusion() {
        // Input- and parameter-driven rotations are barriers: the
        // ansatz/encoder shape (the golden path) must compile untouched.
        let mut c = Circuit::new(2);
        c.rot(0, Ax::Y, Angle::Input(InputId(0))).unwrap();
        c.rot(1, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.cnot(0, 1).unwrap();
        c.rot(0, Ax::Z, Angle::Param(ParamId(1))).unwrap();
        c.cnot(1, 0).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 5);
        assert!(!compiled
            .fused_schedule()
            .iter()
            .any(|g| matches!(g, CGate::Fixed2 { .. })));
    }

    #[test]
    fn lone_entanglers_keep_their_fast_path() {
        // With nothing to absorb, CNOT/CZ stay on the specialised
        // swap/sign kernels rather than becoming a generic 4×4.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).unwrap();
        c.cz(1, 0).unwrap();
        let compiled = compile(&c);
        assert!(matches!(compiled.fused_schedule()[0], CGate::Cnot { .. }));
        // The second entangler merges with... nothing: the first stayed
        // a plain CNOT, which is not a fusion product.
        assert!(matches!(compiled.fused_schedule()[1], CGate::Cz { .. }));
    }

    #[test]
    fn entangler_fusion_respects_other_pair_barriers() {
        // The const rotation on wire 1 is NOT adjacent to cnot(1, 2) —
        // cnot(0, 1) touches wire 1 in between — so only the inner pair
        // may fuse.
        let mut c = Circuit::new(3);
        c.rot(1, Ax::X, Angle::Const(0.4)).unwrap();
        c.cnot(0, 1).unwrap();
        c.cnot(1, 2).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 2);
        assert!(matches!(
            compiled.fused_schedule()[0],
            CGate::Fixed2 { qa: 0, qb: 1, .. }
        ));
        assert!(matches!(compiled.fused_schedule()[1], CGate::Cnot { .. }));
        assert!(fused_raw_divergence(&c, &[], &[]) < 1e-12);
    }

    #[test]
    fn merging_const_angles_stays_const() {
        let mut c = Circuit::new(1);
        c.rot(0, Ax::Z, Angle::Const(0.25)).unwrap();
        c.rot(0, Ax::Z, Angle::Const(0.5)).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.fused_schedule().len(), 1);
        match &compiled.fused_schedule()[0] {
            CGate::Rot {
                angle: FusedAngle::Const(v),
                ..
            } => assert!((v - 0.75).abs() < 1e-15),
            other => panic!("expected fused const rotation, got {other:?}"),
        }
    }

    #[test]
    fn density_binding_rejects_a_fused_two_qubit_gate_in_the_raw_schedule() {
        // Compilation keeps `Fixed2` out of the raw schedule; should that
        // ever change, the density binding refuses it with a typed error.
        let mut compiled = compile(&chain());
        compiled.raw.push(CGate::Fixed2 {
            qa: 0,
            qb: 1,
            gate: Gate2::cnot(),
        });
        let noise = qmarl_qsim::noise::NoiseModel::depolarizing(0.01, 0.02).unwrap();
        assert!(matches!(
            crate::superop::prebind_density(&compiled, &[0.1, 0.2, 0.3], &noise),
            Err(crate::error::RuntimeError::InvalidConfig(_))
        ));
    }
}
