//! Lane-slab kernels: one gate update over `L` statevectors at once.
//!
//! The runtime's lane-slab executors store `L` statevectors transposed —
//! `slab[amp · L + lane]` — so a gate update touches whole contiguous
//! rows of `L` amplitudes at a time. [`Slab`] is a checked view of such a
//! block, and its methods are the slab twins of the pair kernels in
//! [`crate::apply`]: a scalar reference path plus an AVX2 path dispatched
//! through [`crate::simd::level`], **bit-identical** by the same argument
//! as the statevector kernels (separate multiply and add, same expression
//! per element, same association order — see [`crate::simd`]).
//!
//! ## One lane is a statevector
//!
//! At `L = 1` the layout `slab[amp]` *is* the statevector layout, so every
//! unitary method of a one-lane [`Slab`] runs the contiguous
//! [`crate::apply`] kernel on the same buffer instead of walking `2ⁿ`
//! one-element rows. Both compute the same expression per element, so the
//! result is bit-identical either way. A single state is therefore just a
//! one-lane slab, and the runtime keeps one statevector walker.
//!
//! ## Layout note (the SoA evaluation)
//!
//! A split re/im (structure-of-arrays) slab layout was evaluated for
//! these paths and rejected: the interleaved layout already feeds full
//! 256-bit lanes — two complex amplitudes per register, with the
//! conjugate-style shuffles done in-register (`permute_pd`) at no memory
//! cost — while SoA would double the number of streams per row walk,
//! halve effective cache-line utilisation for the pair kernels (two rows
//! → four streams), and force a layout conversion at every readout and
//! observable boundary shared with the per-circuit engines. The
//! remaining high-stride traversals (adjoint reductions, readouts) are
//! fixed by loop interchange in the runtime instead, which keeps one
//! canonical layout everywhere.
//!
//! Uniform methods share one coefficient across the lanes; per-lane
//! methods (`*_lanes`) take one coefficient pair per lane, as produced
//! for input-dependent rotations. The row kernels behind them are private
//! to this module.

use crate::apply;
use crate::complex::Complex64;
use crate::gate::{Gate1, Gate2, RotationAxis};
use crate::simd::{self, SimdLevel};

/// `true` when the AVX2 row path should run.
#[inline]
fn wide() -> bool {
    cfg!(target_arch = "x86_64") && simd::level() == SimdLevel::Avx2
}

/// Generator axes for the adjoint accumulation kernel ([`adj_acc_slab_multi`]).
pub const AXIS_X: u8 = 0;
/// See [`AXIS_X`].
pub const AXIS_Y: u8 = 1;
/// See [`AXIS_X`].
pub const AXIS_Z: u8 = 2;

// ---------------------------------------------------------------------
// Scalar row bodies: the reference arithmetic of every slab kernel.
// ---------------------------------------------------------------------

mod scalar {
    use crate::complex::Complex64;
    use crate::gate::Gate1;

    #[inline(always)]
    pub(super) fn rot_x(r0: &mut [Complex64], r1: &mut [Complex64], s: f64, c: f64) {
        for (a0, a1) in r0.iter_mut().zip(r1.iter_mut()) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = Complex64::new(c * x0.re + s * x1.im, c * x0.im - s * x1.re);
            *a1 = Complex64::new(s * x0.im + c * x1.re, -s * x0.re + c * x1.im);
        }
    }

    #[inline(always)]
    pub(super) fn rot_y(r0: &mut [Complex64], r1: &mut [Complex64], s: f64, c: f64) {
        for (a0, a1) in r0.iter_mut().zip(r1.iter_mut()) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = Complex64::new(c * x0.re - s * x1.re, c * x0.im - s * x1.im);
            *a1 = Complex64::new(s * x0.re + c * x1.re, s * x0.im + c * x1.im);
        }
    }

    #[inline(always)]
    pub(super) fn phase(row: &mut [Complex64], pr: f64, pi: f64) {
        for a in row.iter_mut() {
            *a = Complex64::new(a.re * pr - a.im * pi, a.re * pi + a.im * pr);
        }
    }

    #[inline(always)]
    pub(super) fn gate1(r0: &mut [Complex64], r1: &mut [Complex64], gate: &Gate1) {
        let m = gate.matrix();
        for (a0, a1) in r0.iter_mut().zip(r1.iter_mut()) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = m[0][0] * x0 + m[0][1] * x1;
            *a1 = m[1][0] * x0 + m[1][1] * x1;
        }
    }

    #[inline(always)]
    pub(super) fn dense4(rows: [&mut [Complex64]; 4], m: &[[Complex64; 4]; 4]) {
        let [r0, r1, r2, r3] = rows;
        for l in 0..r0.len() {
            let x0 = r0[l];
            let x1 = r1[l];
            let x2 = r2[l];
            let x3 = r3[l];
            r0[l] = ((m[0][0] * x0 + m[0][1] * x1) + m[0][2] * x2) + m[0][3] * x3;
            r1[l] = ((m[1][0] * x0 + m[1][1] * x1) + m[1][2] * x2) + m[1][3] * x3;
            r2[l] = ((m[2][0] * x0 + m[2][1] * x1) + m[2][2] * x2) + m[2][3] * x3;
            r3[l] = ((m[3][0] * x0 + m[3][1] * x1) + m[3][2] * x2) + m[3][3] * x3;
        }
    }

    #[inline(always)]
    pub(super) fn rot_x_lanes(r0: &mut [Complex64], r1: &mut [Complex64], trig: &[(f64, f64)]) {
        for ((a0, a1), &(s, c)) in r0.iter_mut().zip(r1.iter_mut()).zip(trig) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = Complex64::new(c * x0.re + s * x1.im, c * x0.im - s * x1.re);
            *a1 = Complex64::new(s * x0.im + c * x1.re, -s * x0.re + c * x1.im);
        }
    }

    #[inline(always)]
    pub(super) fn rot_y_lanes(r0: &mut [Complex64], r1: &mut [Complex64], trig: &[(f64, f64)]) {
        for ((a0, a1), &(s, c)) in r0.iter_mut().zip(r1.iter_mut()).zip(trig) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = Complex64::new(c * x0.re - s * x1.re, c * x0.im - s * x1.im);
            *a1 = Complex64::new(s * x0.re + c * x1.re, s * x0.im + c * x1.im);
        }
    }

    #[inline(always)]
    pub(super) fn phase_lanes(row: &mut [Complex64], phases: &[(f64, f64)]) {
        for (a, &(pr, pi)) in row.iter_mut().zip(phases) {
            let x = *a;
            *a = Complex64::new(x.re * pr - x.im * pi, x.re * pi + x.im * pr);
        }
    }
}

// ---------------------------------------------------------------------
// Slab kernels: one dispatch per gate application.
//
// Each method takes a target mask `mt` and control mask `mc` (`0` =
// uncontrolled; rows with `i & mc != mc` are skipped), dispatches once,
// and keeps the pair loop inside one `#[target_feature]` body. Pair
// enumeration order is free (pairs are disjoint) and every row gets the
// scalar row body's arithmetic, so the AVX2 walk is bit-identical to
// the scalar one.
// ---------------------------------------------------------------------

/// Disjoint `(row i0, row i0|mt)` lane-row views, ascending `i0` over
/// target-clear (and control-set, when `mc != 0`) indices.
#[inline(always)]
fn for_each_pair_rows(
    slab: &mut [Complex64],
    lanes: usize,
    dim: usize,
    mt: usize,
    mc: usize,
    mut f: impl FnMut(&mut [Complex64], &mut [Complex64]),
) {
    for i0 in 0..dim {
        if i0 & mt != 0 || i0 & mc != mc {
            continue;
        }
        let (head, tail) = slab.split_at_mut((i0 | mt) * lanes);
        f(&mut head[i0 * lanes..(i0 + 1) * lanes], &mut tail[..lanes]);
    }
}

/// Enumerates quad row groups `{i, i|ma, i|mb, i|ma|mb}` (both-clear
/// base rows) and hands each to `f` as four disjoint row slices in 4×4
/// index order (bit 0 ↔ `ma`, bit 1 ↔ `mb`). Safe twin of the AVX2
/// quad walk, built from progressive `split_at_mut`.
fn for_each_quad_rows(
    slab: &mut [Complex64],
    lanes: usize,
    dim: usize,
    ma: usize,
    mb: usize,
    mut f: impl FnMut([&mut [Complex64]; 4]),
) {
    let mlo = ma.min(mb);
    let mhi = ma.max(mb);
    for i in 0..dim {
        if i & (ma | mb) != 0 {
            continue;
        }
        // Offsets ascend: i < i|mlo < i|mhi < i|mlo|mhi.
        let (head1, tail1) = slab.split_at_mut((i | mlo) * lanes);
        let r_base = &mut head1[i * lanes..(i + 1) * lanes];
        let (head2, tail2) = tail1.split_at_mut(((i | mhi) - (i | mlo)) * lanes);
        let r_lo = &mut head2[..lanes];
        let (head3, tail3) = tail2.split_at_mut(((i | mlo | mhi) - (i | mhi)) * lanes);
        let r_hi = &mut head3[..lanes];
        let r_both = &mut tail3[..lanes];
        if ma == mlo {
            f([r_base, r_lo, r_hi, r_both]);
        } else {
            f([r_base, r_hi, r_lo, r_both]);
        }
    }
}

/// The wire index of a single-bit mask.
#[inline]
fn wire(mask: usize) -> usize {
    mask.trailing_zeros() as usize
}

/// A checked lane slab: `dim` rows of `lanes` amplitudes,
/// `slab[amp · lanes + lane]`, with `dim` a power of two.
///
/// The AVX2 kernels derive raw row pointers from `dim`, `lanes` and the
/// gate masks with no further bounds checks. The facts that keep them in
/// bounds are asserted at this safe boundary in every build profile, not
/// as `debug_assert!`s that vanish in release builds: [`Slab::new`]
/// checks the geometry once per view, and each gate method checks its
/// own masks. A power-of-two `dim` with `mt` a single bit below it
/// guarantees `i0 | mt < dim` for every enumerated pair, and
/// `len == dim · lanes` keeps every such row inside the slab. A walk of
/// many small gates builds one view and so pays the geometry checks once.
/// A one-lane view hands its gates to the [`crate::apply`] kernels,
/// which check their own wires (the AVX2 ones assert them). The gate
/// methods a statevector walk calls are `#[inline(always)]`, so a
/// one-lane gate costs no call layer beyond the `apply` kernel's own.
#[derive(Debug)]
pub struct Slab<'a> {
    amps: &'a mut [Complex64],
    lanes: usize,
    dim: usize,
}

impl<'a> Slab<'a> {
    /// Views `amps` as `lanes` statevectors of `amps.len() / lanes`
    /// amplitudes each.
    ///
    /// # Panics
    ///
    /// Unless `lanes > 0` and `amps.len()` is `lanes` times a power of two.
    pub fn new(amps: &'a mut [Complex64], lanes: usize) -> Self {
        assert!(lanes > 0, "slab kernels need at least one lane");
        // One-lane views are built per shift-walk fork; skip the division.
        let dim = if lanes == 1 {
            amps.len()
        } else {
            amps.len() / lanes
        };
        assert!(dim.is_power_of_two(), "slab dim must be a power of two");
        assert_eq!(
            amps.len(),
            dim * lanes,
            "slab length must equal dim * lanes"
        );
        Slab { amps, lanes, dim }
    }

    /// Checks one gate's masks for the row walks: `mt` a single bit below
    /// `dim`, and `mc` either `0` or another single bit below `dim`.
    #[inline]
    fn check(&self, mt: usize, mc: usize) {
        assert!(
            mt.is_power_of_two() && mt < self.dim,
            "target mask must be a single bit below dim"
        );
        assert!(
            mc == 0 || (mc.is_power_of_two() && mc < self.dim && mc != mt),
            "control mask must be 0 or another single bit below dim"
        );
    }

    /// A rotation about `axis` by one `(sin θ/2, cos θ/2)` for every lane,
    /// on target mask `mt` where control mask `mc` is set: X and Y are
    /// pair updates, Z the diagonal phases `(c, −s)` on target-clear and
    /// `(c, s)` on target-set rows (see [`Slab::phase`]).
    #[inline(always)]
    pub fn rot(&mut self, axis: RotationAxis, mt: usize, mc: usize, s: f64, c: f64) {
        match axis {
            RotationAxis::X => self.rot_x(mt, mc, s, c),
            RotationAxis::Y => self.rot_y(mt, mc, s, c),
            RotationAxis::Z => self.phase(mt, mc, (c, -s), (c, s)),
        }
    }

    /// X-rotation pair update:
    /// `a0' = (c·a0.re + s·a1.im, c·a0.im − s·a1.re)`,
    /// `a1' = (s·a0.im + c·a1.re, −s·a0.re + c·a1.im)`.
    #[inline(always)]
    fn rot_x(&mut self, mt: usize, mc: usize, s: f64, c: f64) {
        if self.lanes == 1 {
            match mc {
                0 => apply::apply_rx_sc(self.amps, wire(mt), s, c),
                _ => apply::apply_crx_sc(self.amps, wire(mc), wire(mt), s, c),
            }
            return;
        }
        self.check(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract.
            unsafe { avx::rot_x_slab(self.amps, self.lanes, self.dim, mt, mc, s, c) };
            return;
        }
        for_each_pair_rows(self.amps, self.lanes, self.dim, mt, mc, |r0, r1| {
            scalar::rot_x(r0, r1, s, c)
        });
    }

    /// Y-rotation pair update (all-real coefficients):
    /// `a0' = c·a0 − s·a1`, `a1' = s·a0 + c·a1`.
    #[inline(always)]
    fn rot_y(&mut self, mt: usize, mc: usize, s: f64, c: f64) {
        if self.lanes == 1 {
            match mc {
                0 => apply::apply_ry_sc(self.amps, wire(mt), s, c),
                _ => apply::apply_cry_sc(self.amps, wire(mc), wire(mt), s, c),
            }
            return;
        }
        self.check(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract.
            unsafe { avx::rot_y_slab(self.amps, self.lanes, self.dim, mt, mc, s, c) };
            return;
        }
        for_each_pair_rows(self.amps, self.lanes, self.dim, mt, mc, |r0, r1| {
            scalar::rot_y(r0, r1, s, c)
        });
    }

    /// Diagonal update: multiplies target-clear rows by `lo` and
    /// target-set rows by `hi` (as `(pr, pi)` phases,
    /// `a' = (a.re·pr − a.im·pi, a.re·pi + a.im·pr)`), skipping
    /// control-clear rows. The phases are independent of each other.
    #[inline(always)]
    pub fn phase(&mut self, mt: usize, mc: usize, lo: (f64, f64), hi: (f64, f64)) {
        if self.lanes == 1 {
            let control = (mc != 0).then(|| wire(mc));
            apply::apply_phases(self.amps, control, wire(mt), lo, hi);
            return;
        }
        self.check(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract.
            unsafe { avx::phase_slab(self.amps, self.lanes, self.dim, mt, mc, lo, hi) };
            return;
        }
        let lanes = self.lanes;
        for i in 0..self.dim {
            if i & mc != mc {
                continue;
            }
            let (pr, pi) = if i & mt == 0 { lo } else { hi };
            scalar::phase(&mut self.amps[i * lanes..(i + 1) * lanes], pr, pi);
        }
    }

    /// X rotation with one `(sin θ/2, cos θ/2)` pair per lane.
    #[inline]
    pub fn rot_x_lanes(&mut self, mt: usize, mc: usize, trig: &[(f64, f64)]) {
        assert_eq!(self.lanes, trig.len(), "one trig pair per lane");
        if self.lanes == 1 {
            let (s, c) = trig[0];
            return self.rot_x(mt, mc, s, c);
        }
        self.check(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract, and
            // `trig` holds one pair per lane.
            unsafe { avx::rot_x_slab_lanes(self.amps, self.lanes, self.dim, mt, mc, trig) };
            return;
        }
        for_each_pair_rows(self.amps, self.lanes, self.dim, mt, mc, |r0, r1| {
            scalar::rot_x_lanes(r0, r1, trig)
        });
    }

    /// Y rotation with one `(sin θ/2, cos θ/2)` pair per lane.
    #[inline]
    pub fn rot_y_lanes(&mut self, mt: usize, mc: usize, trig: &[(f64, f64)]) {
        assert_eq!(self.lanes, trig.len(), "one trig pair per lane");
        if self.lanes == 1 {
            let (s, c) = trig[0];
            return self.rot_y(mt, mc, s, c);
        }
        self.check(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract, and
            // `trig` holds one pair per lane.
            unsafe { avx::rot_y_slab_lanes(self.amps, self.lanes, self.dim, mt, mc, trig) };
            return;
        }
        for_each_pair_rows(self.amps, self.lanes, self.dim, mt, mc, |r0, r1| {
            scalar::rot_y_lanes(r0, r1, trig)
        });
    }

    /// [`Slab::phase`] with one phase pair per lane: target-clear rows
    /// use `zlo`, target-set rows `zhi`.
    #[inline]
    pub fn phase_lanes(&mut self, mt: usize, mc: usize, zlo: &[(f64, f64)], zhi: &[(f64, f64)]) {
        assert_eq!(
            self.lanes,
            zlo.len(),
            "one phase pair per lane (target clear)"
        );
        assert_eq!(
            self.lanes,
            zhi.len(),
            "one phase pair per lane (target set)"
        );
        if self.lanes == 1 {
            return self.phase(mt, mc, zlo[0], zhi[0]);
        }
        self.check(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract, and
            // both phase tables hold one pair per lane.
            unsafe { avx::phase_slab_lanes(self.amps, self.lanes, self.dim, mt, mc, zlo, zhi) };
            return;
        }
        let lanes = self.lanes;
        for i in 0..self.dim {
            if i & mc != mc {
                continue;
            }
            let cls = if i & mt == 0 { zlo } else { zhi };
            scalar::phase_lanes(&mut self.amps[i * lanes..(i + 1) * lanes], cls);
        }
    }

    /// Generic 2×2 pair update with one unitary for every lane:
    /// `a0' = m00·a0 + m01·a1`, `a1' = m10·a0 + m11·a1`.
    #[inline(always)]
    pub fn gate1(&mut self, mt: usize, gate: &Gate1) {
        if self.lanes == 1 {
            return apply::apply_gate1(self.amps, wire(mt), gate);
        }
        self.check(mt, 0);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` established the slab contract.
            unsafe { avx::gate1_slab(self.amps, self.lanes, self.dim, mt, gate) };
            return;
        }
        for_each_pair_rows(self.amps, self.lanes, self.dim, mt, 0, |r0, r1| {
            scalar::gate1(r0, r1, gate)
        });
    }

    /// A two-qubit gate with [`apply::apply_gate2`]'s exact arithmetic,
    /// `ma` ↔ bit 0 and `mb` ↔ bit 1 of the matrix index: for every
    /// both-clear base row, each lane's four amplitudes rebuild through a
    /// `mul_acc` chain from zero in column order. This is the fused
    /// schedule's entangler product; see [`Slab::dense4`] for the
    /// superoperator kernel, which associates its sums differently.
    pub fn gate2(&mut self, ma: usize, mb: usize, gate: &Gate2) {
        if self.lanes == 1 {
            return apply::apply_gate2(self.amps, wire(ma), wire(mb), gate);
        }
        self.check(ma, mb);
        assert_ne!(mb, 0, "gate2 needs two wires");
        let m = gate.matrix();
        let lanes = self.lanes;
        for i in 0..self.dim {
            if i & (ma | mb) != 0 {
                continue;
            }
            let idx = [i, i | ma, i | mb, i | ma | mb];
            for lane in 0..lanes {
                let v = idx.map(|ix| self.amps[ix * lanes + lane]);
                for (r, &ix) in idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (col, &vc) in v.iter().enumerate() {
                        acc = m[r][col].mul_acc(vc, acc);
                    }
                    self.amps[ix * lanes + lane] = acc;
                }
            }
        }
    }

    /// Generic two-bit 4×4 update: for every row index with both `ma` and
    /// `mb` clear, the four rows `{i, i|ma, i|mb, i|ma|mb}` transform
    /// together by `m`, with bit 0 of the 4×4 index ↔ `ma` and bit 1 ↔
    /// `mb`, as `y_r = ((m_r0·x0 + m_r1·x1) + m_r2·x2) + m_r3·x3`. The
    /// matrix is **not** required to be unitary: this is the density
    /// backend's superoperator kernel, where the 4×4 is a gate–channel
    /// product acting on a (column-bit, row-bit) pair of vectorized ρ. Its
    /// association differs from [`apply::apply_gate2`]'s `mul_acc` chain,
    /// so it has no one-lane arm.
    pub fn dense4(&mut self, ma: usize, mb: usize, m: &[[Complex64; 4]; 4]) {
        self.check(ma, mb);
        assert_ne!(mb, 0, "dense4 needs two bits");
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`;
            // `Slab::new` and `check` proved `ma`, `mb` distinct single
            // bits below the power-of-two `dim` of a `dim·lanes` slab, so
            // the four quad rows are disjoint and in bounds.
            unsafe { avx::dense4_slab(self.amps, self.lanes, self.dim, ma, mb, m) };
            return;
        }
        for_each_quad_rows(self.amps, self.lanes, self.dim, ma, mb, |rows| {
            scalar::dense4(rows, m)
        });
    }

    /// CNOT: swaps the target pair of every control-set row.
    #[inline(always)]
    pub fn cnot(&mut self, mc: usize, mt: usize) {
        if self.lanes == 1 {
            return apply::apply_cnot(self.amps, wire(mc), wire(mt));
        }
        self.check(mt, mc);
        assert_ne!(mc, 0, "CNOT needs a control");
        for_each_pair_rows(self.amps, self.lanes, self.dim, mt, mc, |r0, r1| {
            r0.swap_with_slice(r1)
        });
    }

    /// CZ: negates every row with both `ma` and `mb` set.
    #[inline(always)]
    pub fn cz(&mut self, ma: usize, mb: usize) {
        if self.lanes == 1 {
            return apply::apply_cz(self.amps, wire(ma), wire(mb));
        }
        self.check(ma, mb);
        assert_ne!(mb, 0, "CZ needs two wires");
        let (mask, lanes) = (ma | mb, self.lanes);
        for i in 0..self.dim {
            if i & mask == mask {
                for a in &mut self.amps[i * lanes..(i + 1) * lanes] {
                    *a = -*a;
                }
            }
        }
    }
}

/// Checked preconditions of the adjoint folds, enforced in every build
/// profile: the [`Slab`] geometry (`lanes > 0`, a power-of-two `dim`,
/// `len == dim·lanes`) plus `mt` a single bit below `dim` and `mc < dim`,
/// which keeps every `i ^ mt` generator row inside the slab.
#[inline]
fn check_slab(len: usize, lanes: usize, dim: usize, mt: usize, mc: usize) {
    assert!(lanes > 0, "slab kernels need at least one lane");
    assert!(dim.is_power_of_two(), "slab dim must be a power of two");
    assert_eq!(len, dim * lanes, "slab length must equal dim * lanes");
    assert!(
        mt.is_power_of_two() && mt < dim,
        "target mask must be a single bit below dim"
    );
    assert!(mc < dim, "control mask must lie below dim");
}

/// Adjoint generator accumulation over the whole slab, for every adjoint
/// state at once: `accs[j·lanes + lane] += Σ_i Im(conj(λ_j,i,lane)·(Gφ)_i,lane)`
/// for the rotation generator on axis `AXIS` with target mask `mt`
/// (control mask `mc`, `0` = none; control-clear rows contribute exactly
/// zero and are skipped). The loop runs row-major over `i`, rebuilding
/// the generator row from φ once into the `gbuf` scratch (`lanes`
/// entries) — `X: (Gφ)ᵢ = φ_{i⊕mt}`; `Y: (x.im, −x.re)`/`(−x.im, x.re)`
/// from `x = φ_{i⊕mt}` on target-clear/-set rows; `Z: ±φᵢ` — and then
/// folding each `lams[j]` row against it, so φ is read once per row
/// instead of once per observable. Each `(j, lane)` accumulator folds in
/// ascending-`i` order. The AVX2 path builds the generator with exact
/// sign flips (`xor` of the sign bit ≡ scalar negation) and folds with
/// the same `mul, mul, sub, add` per term, so it is bit-identical to the
/// scalar path.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn adj_acc_slab_multi<const AXIS: u8>(
    accs: &mut [f64],
    lams: &[&[Complex64]],
    phi: &[Complex64],
    gbuf: &mut [Complex64],
    lanes: usize,
    dim: usize,
    mt: usize,
    mc: usize,
) {
    check_slab(phi.len(), lanes, dim, mt, mc);
    for lam in lams {
        assert_eq!(lam.len(), phi.len(), "every λ covers the same slab as φ");
    }
    assert_eq!(
        accs.len(),
        lams.len() * lanes,
        "one accumulator per (λ, lane)"
    );
    assert_eq!(gbuf.len(), lanes, "generator scratch holds one row");
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` just verified AVX2 via `simd::level`, and the
        // checks above proved φ and every λ are full `dim·lanes` slabs
        // (with `mt` a single bit below the power-of-two `dim`, so
        // `i ^ mt` stays below `dim`), `accs` holds `lams.len()·lanes`
        // slots, and the generator scratch holds one `lanes`-long row.
        unsafe { avx::adj_acc_slab_multi::<AXIS>(accs, lams, phi, gbuf, lanes, dim, mt, mc) };
        return;
    }
    for i in 0..dim {
        if i & mc != mc {
            continue;
        }
        let src = if AXIS == AXIS_Z {
            &phi[i * lanes..(i + 1) * lanes]
        } else {
            &phi[(i ^ mt) * lanes..(i ^ mt) * lanes + lanes]
        };
        let tgt_set = i & mt != 0;
        for (g, &x) in gbuf.iter_mut().zip(src) {
            *g = match AXIS {
                AXIS_X => x,
                AXIS_Y => {
                    if tgt_set {
                        Complex64::new(-x.im, x.re)
                    } else {
                        Complex64::new(x.im, -x.re)
                    }
                }
                _ => {
                    if tgt_set {
                        -x
                    } else {
                        x
                    }
                }
            };
        }
        for (j, lam) in lams.iter().enumerate() {
            let lrow = &lam[i * lanes..(i + 1) * lanes];
            let acc = &mut accs[j * lanes..(j + 1) * lanes];
            for ((a, l), g) in acc.iter_mut().zip(lrow).zip(gbuf.iter()) {
                *a += l.re * g.im - l.im * g.re;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::*;

    use crate::complex::Complex64;
    use crate::gate::Gate1;
    use crate::wide::{cmul, cmul1, halve, splat};

    /// Two interleaved row pointers plus the shared complex count.
    #[inline]
    fn ptrs2(r0: &mut [Complex64], r1: &mut [Complex64]) -> (*mut f64, *mut f64, usize) {
        (
            r0.as_mut_ptr() as *mut f64,
            r1.as_mut_ptr() as *mut f64,
            r0.len(),
        )
    }

    /// Uniform pair-row kernel.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and `r0.len() == r1.len()` — the loop walks
    /// both rows by the shared count from `ptrs2`, so a shorter `r1`
    /// would be written out of bounds. The slab walks pass two rows of
    /// `lanes` amplitudes each.
    #[target_feature(enable = "avx2")]
    unsafe fn rot_x_rows(r0: &mut [Complex64], r1: &mut [Complex64], s: f64, c: f64) {
        let (p0, p1, n) = ptrs2(r0, r1);
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_set_pd(-s, s, -s, s); // [s, −s, s, −s] low→high
        let mut k = 0;
        while k + 2 <= n {
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let a0 = _mm256_loadu_pd(pa);
            let a1 = _mm256_loadu_pd(pb);
            let r0v = _mm256_add_pd(
                _mm256_mul_pd(cv, a0),
                _mm256_mul_pd(sv, _mm256_permute_pd(a1, 0b0101)),
            );
            let r1v = _mm256_add_pd(
                _mm256_mul_pd(cv, a1),
                _mm256_mul_pd(sv, _mm256_permute_pd(a0, 0b0101)),
            );
            _mm256_storeu_pd(pa, r0v);
            _mm256_storeu_pd(pb, r1v);
            k += 2;
        }
        if k < n {
            rot_x_tail(p0.add(2 * k), p1.add(2 * k), s, c);
        }
    }

    /// One-complex X-rotation remainder step.
    ///
    /// # Safety
    ///
    /// `pa` and `pb` must each be valid for reads and writes of one
    /// interleaved complex (two `f64`s), and AVX2 must be enabled —
    /// both guaranteed by the `#[target_feature]` callers, which pass
    /// in-bounds tail pointers of equal-length rows.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rot_x_tail(pa: *mut f64, pb: *mut f64, s: f64, c: f64) {
        let cv = _mm_set1_pd(c);
        let sv = _mm_set_pd(-s, s);
        let a0 = _mm_loadu_pd(pa);
        let a1 = _mm_loadu_pd(pb);
        let r0v = _mm_add_pd(
            _mm_mul_pd(cv, a0),
            _mm_mul_pd(sv, _mm_shuffle_pd(a1, a1, 0b01)),
        );
        let r1v = _mm_add_pd(
            _mm_mul_pd(cv, a1),
            _mm_mul_pd(sv, _mm_shuffle_pd(a0, a0, 0b01)),
        );
        _mm_storeu_pd(pa, r0v);
        _mm_storeu_pd(pb, r1v);
    }

    /// Uniform pair-row kernel; see [`rot_x_rows`] for the contract.
    ///
    /// # Safety
    ///
    /// AVX2 enabled and `r0.len() == r1.len()`, as the slab walks pass.
    #[target_feature(enable = "avx2")]
    unsafe fn rot_y_rows(r0: &mut [Complex64], r1: &mut [Complex64], s: f64, c: f64) {
        let (p0, p1, n) = ptrs2(r0, r1);
        let cv = _mm256_set1_pd(c);
        let nsv = _mm256_set1_pd(-s);
        let psv = _mm256_set1_pd(s);
        let mut k = 0;
        while k + 2 <= n {
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let a0 = _mm256_loadu_pd(pa);
            let a1 = _mm256_loadu_pd(pb);
            let r0v = _mm256_add_pd(_mm256_mul_pd(cv, a0), _mm256_mul_pd(nsv, a1));
            let r1v = _mm256_add_pd(_mm256_mul_pd(psv, a0), _mm256_mul_pd(cv, a1));
            _mm256_storeu_pd(pa, r0v);
            _mm256_storeu_pd(pb, r1v);
            k += 2;
        }
        if k < n {
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let (cv, nsv, psv) = (_mm_set1_pd(c), _mm_set1_pd(-s), _mm_set1_pd(s));
            let a0 = _mm_loadu_pd(pa);
            let a1 = _mm_loadu_pd(pb);
            let r0v = _mm_add_pd(_mm_mul_pd(cv, a0), _mm_mul_pd(nsv, a1));
            let r1v = _mm_add_pd(_mm_mul_pd(psv, a0), _mm_mul_pd(cv, a1));
            _mm_storeu_pd(pa, r0v);
            _mm_storeu_pd(pb, r1v);
        }
    }

    /// Uniform single-row phase kernel.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled; every access is bounded by `row.len()`
    /// itself.
    #[target_feature(enable = "avx2")]
    unsafe fn phase_rows(row: &mut [Complex64], pr: f64, pi: f64) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let m = splat(Complex64::new(pr, pi));
        let mut k = 0;
        while k + 2 <= n {
            let pa = p.add(2 * k);
            _mm256_storeu_pd(pa, cmul(m, _mm256_loadu_pd(pa)));
            k += 2;
        }
        if k < n {
            let pa = p.add(2 * k);
            _mm_storeu_pd(pa, cmul1(halve(m), _mm_loadu_pd(pa)));
        }
    }

    /// Uniform pair-row kernel; see [`rot_x_rows`] for the contract.
    ///
    /// # Safety
    ///
    /// AVX2 enabled and `r0.len() == r1.len()`, as the slab walks pass.
    #[target_feature(enable = "avx2")]
    unsafe fn gate1_rows(r0: &mut [Complex64], r1: &mut [Complex64], gate: &Gate1) {
        let (p0, p1, n) = ptrs2(r0, r1);
        let m = gate.matrix();
        let (m00, m01, m10, m11) = (
            splat(m[0][0]),
            splat(m[0][1]),
            splat(m[1][0]),
            splat(m[1][1]),
        );
        let mut k = 0;
        while k + 2 <= n {
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let a0 = _mm256_loadu_pd(pa);
            let a1 = _mm256_loadu_pd(pb);
            _mm256_storeu_pd(pa, _mm256_add_pd(cmul(m00, a0), cmul(m01, a1)));
            _mm256_storeu_pd(pb, _mm256_add_pd(cmul(m10, a0), cmul(m11, a1)));
            k += 2;
        }
        if k < n {
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let a0 = _mm_loadu_pd(pa);
            let a1 = _mm_loadu_pd(pb);
            _mm_storeu_pd(pa, _mm_add_pd(cmul1(halve(m00), a0), cmul1(halve(m01), a1)));
            _mm_storeu_pd(pb, _mm_add_pd(cmul1(halve(m10), a0), cmul1(halve(m11), a1)));
        }
    }

    /// Per-lane pair-row kernel.
    ///
    /// # Safety
    ///
    /// AVX2 enabled and `r0.len() == r1.len()`, as the slab walks pass.
    /// `trig` is slice-indexed, so a short coefficient table panics
    /// rather than reading out of bounds (the [`super::Slab`] methods
    /// assert it matches the row length anyway).
    #[target_feature(enable = "avx2")]
    unsafe fn rot_x_rows_lanes(r0: &mut [Complex64], r1: &mut [Complex64], trig: &[(f64, f64)]) {
        let (p0, p1, n) = ptrs2(r0, r1);
        let mut k = 0;
        while k + 2 <= n {
            let (s0, c0) = trig[k];
            let (s1, c1) = trig[k + 1];
            let cv = _mm256_set_pd(c1, c1, c0, c0);
            let sv = _mm256_set_pd(-s1, s1, -s0, s0);
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let a0 = _mm256_loadu_pd(pa);
            let a1 = _mm256_loadu_pd(pb);
            let r0v = _mm256_add_pd(
                _mm256_mul_pd(cv, a0),
                _mm256_mul_pd(sv, _mm256_permute_pd(a1, 0b0101)),
            );
            let r1v = _mm256_add_pd(
                _mm256_mul_pd(cv, a1),
                _mm256_mul_pd(sv, _mm256_permute_pd(a0, 0b0101)),
            );
            _mm256_storeu_pd(pa, r0v);
            _mm256_storeu_pd(pb, r1v);
            k += 2;
        }
        if k < n {
            let (s, c) = trig[k];
            rot_x_tail(p0.add(2 * k), p1.add(2 * k), s, c);
        }
    }

    /// Per-lane pair-row kernel; see [`rot_x_rows_lanes`].
    ///
    /// # Safety
    ///
    /// AVX2 enabled and `r0.len() == r1.len()`, as the slab walks pass.
    #[target_feature(enable = "avx2")]
    unsafe fn rot_y_rows_lanes(r0: &mut [Complex64], r1: &mut [Complex64], trig: &[(f64, f64)]) {
        let (p0, p1, n) = ptrs2(r0, r1);
        let mut k = 0;
        while k + 2 <= n {
            let (s0, c0) = trig[k];
            let (s1, c1) = trig[k + 1];
            let cv = _mm256_set_pd(c1, c1, c0, c0);
            let nsv = _mm256_set_pd(-s1, -s1, -s0, -s0);
            let psv = _mm256_set_pd(s1, s1, s0, s0);
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let a0 = _mm256_loadu_pd(pa);
            let a1 = _mm256_loadu_pd(pb);
            let r0v = _mm256_add_pd(_mm256_mul_pd(cv, a0), _mm256_mul_pd(nsv, a1));
            let r1v = _mm256_add_pd(_mm256_mul_pd(psv, a0), _mm256_mul_pd(cv, a1));
            _mm256_storeu_pd(pa, r0v);
            _mm256_storeu_pd(pb, r1v);
            k += 2;
        }
        if k < n {
            let (s, c) = trig[k];
            let pa = p0.add(2 * k);
            let pb = p1.add(2 * k);
            let (cv, nsv, psv) = (_mm_set1_pd(c), _mm_set1_pd(-s), _mm_set1_pd(s));
            let a0 = _mm_loadu_pd(pa);
            let a1 = _mm_loadu_pd(pb);
            let r0v = _mm_add_pd(_mm_mul_pd(cv, a0), _mm_mul_pd(nsv, a1));
            let r1v = _mm_add_pd(_mm_mul_pd(psv, a0), _mm_mul_pd(cv, a1));
            _mm_storeu_pd(pa, r0v);
            _mm_storeu_pd(pb, r1v);
        }
    }

    /// Per-lane single-row phase kernel.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled; row accesses are bounded by `row.len()`
    /// and `phases` is slice-indexed (panics if shorter than the row,
    /// which the [`super::Slab`] methods rule out).
    #[target_feature(enable = "avx2")]
    unsafe fn phase_rows_lanes(row: &mut [Complex64], phases: &[(f64, f64)]) {
        let n = row.len();
        let p = row.as_mut_ptr() as *mut f64;
        let mut k = 0;
        while k + 2 <= n {
            let (pr0, pi0) = phases[k];
            let (pr1, pi1) = phases[k + 1];
            let m = (
                _mm256_set_pd(pr1, pr1, pr0, pr0),
                _mm256_set_pd(pi1, pi1, pi0, pi0),
            );
            let pa = p.add(2 * k);
            _mm256_storeu_pd(pa, cmul(m, _mm256_loadu_pd(pa)));
            k += 2;
        }
        if k < n {
            let (pr, pi) = phases[k];
            let m = (_mm_set1_pd(pr), _mm_set1_pd(pi));
            let pa = p.add(2 * k);
            _mm_storeu_pd(pa, cmul1(m, _mm_loadu_pd(pa)));
        }
    }

    // --- slab kernels: the whole pair/row loop in one AVX2 body -------

    /// Disjoint row slices from a raw slab base (pairs never alias).
    ///
    /// # Safety
    ///
    /// `base` must point to a live slab of at least
    /// `(max(i0, i1) + 1) · lanes` complexes, and `i0 != i1` so the two
    /// returned `&mut` rows never overlap. The slab kernels guarantee
    /// both via the [`super::Slab`] contract: row indices stay below the
    /// power-of-two `dim`, `i1 = i0 | mt` with `mt != 0` differs from
    /// `i0`, and the slab holds `dim · lanes` entries.
    #[inline(always)]
    unsafe fn pair_rows<'a>(
        base: *mut Complex64,
        lanes: usize,
        i0: usize,
        i1: usize,
    ) -> (&'a mut [Complex64], &'a mut [Complex64]) {
        (
            core::slice::from_raw_parts_mut(base.add(i0 * lanes), lanes),
            core::slice::from_raw_parts_mut(base.add(i1 * lanes), lanes),
        )
    }

    /// Whole-slab X-rotation walk.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold (`slab.len() == dim·lanes`, `mt` a single bit below the
    /// power-of-two `dim`, `mc < dim`): together these keep every
    /// `pair_rows` row in bounds and each pair disjoint. The safe
    /// methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_x_slab(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
        s: f64,
        c: f64,
    ) {
        let base = slab.as_mut_ptr();
        for i0 in 0..dim {
            if i0 & mt != 0 || i0 & mc != mc {
                continue;
            }
            let (r0, r1) = pair_rows(base, lanes, i0, i0 | mt);
            rot_x_rows(r0, r1, s, c);
        }
    }

    /// Whole-slab Y-rotation walk.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold (`slab.len() == dim·lanes`, `mt` a single bit below the
    /// power-of-two `dim`, `mc < dim`): together these keep every
    /// `pair_rows` row in bounds and each pair disjoint. The safe
    /// methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_y_slab(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
        s: f64,
        c: f64,
    ) {
        let base = slab.as_mut_ptr();
        for i0 in 0..dim {
            if i0 & mt != 0 || i0 & mc != mc {
                continue;
            }
            let (r0, r1) = pair_rows(base, lanes, i0, i0 | mt);
            rot_y_rows(r0, r1, s, c);
        }
    }

    /// Whole-slab 2×2 unitary walk (uncontrolled).
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold (`slab.len() == dim·lanes`, `mt` a single bit below the
    /// power-of-two `dim`, `mc < dim`): together these keep every
    /// `pair_rows` row in bounds and each pair disjoint. The safe
    /// methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gate1_slab(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        gate: &Gate1,
    ) {
        let base = slab.as_mut_ptr();
        for i0 in 0..dim {
            if i0 & mt != 0 {
                continue;
            }
            let (r0, r1) = pair_rows(base, lanes, i0, i0 | mt);
            gate1_rows(r0, r1, gate);
        }
    }

    /// Generic 4×4 quad-row update (the [`super::Slab::dense4`] body), with
    /// the same add-of-`cmul` association as the scalar `gate2` row body:
    /// `y_r = ((m_{r0}·x0 + m_{r1}·x1) + m_{r2}·x2) + m_{r3}·x3`.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the four rows must be pairwise disjoint
    /// slices of equal length; the quad walk derives them from distinct
    /// single-bit masks under the [`super::Slab`] contract, which
    /// guarantees both.
    #[target_feature(enable = "avx2")]
    unsafe fn dense4_rows(rows: [&mut [Complex64]; 4], m: &[[Complex64; 4]; 4]) {
        let n = rows[0].len();
        let p: [*mut f64; 4] = [
            rows[0].as_mut_ptr() as *mut f64,
            rows[1].as_mut_ptr() as *mut f64,
            rows[2].as_mut_ptr() as *mut f64,
            rows[3].as_mut_ptr() as *mut f64,
        ];
        let mut ms = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 4]; 4];
        for (r, row) in m.iter().enumerate() {
            for (c, coeff) in row.iter().enumerate() {
                ms[r][c] = splat(*coeff);
            }
        }
        let mut k = 0;
        while k + 2 <= n {
            let x = [
                _mm256_loadu_pd(p[0].add(2 * k)),
                _mm256_loadu_pd(p[1].add(2 * k)),
                _mm256_loadu_pd(p[2].add(2 * k)),
                _mm256_loadu_pd(p[3].add(2 * k)),
            ];
            for (r, row) in ms.iter().enumerate() {
                let y = _mm256_add_pd(
                    _mm256_add_pd(
                        _mm256_add_pd(cmul(row[0], x[0]), cmul(row[1], x[1])),
                        cmul(row[2], x[2]),
                    ),
                    cmul(row[3], x[3]),
                );
                _mm256_storeu_pd(p[r].add(2 * k), y);
            }
            k += 2;
        }
        if k < n {
            let x = [
                _mm_loadu_pd(p[0].add(2 * k)),
                _mm_loadu_pd(p[1].add(2 * k)),
                _mm_loadu_pd(p[2].add(2 * k)),
                _mm_loadu_pd(p[3].add(2 * k)),
            ];
            for (r, row) in ms.iter().enumerate() {
                let y = _mm_add_pd(
                    _mm_add_pd(
                        _mm_add_pd(cmul1(halve(row[0]), x[0]), cmul1(halve(row[1]), x[1])),
                        cmul1(halve(row[2]), x[2]),
                    ),
                    cmul1(halve(row[3]), x[3]),
                );
                _mm_storeu_pd(p[r].add(2 * k), y);
            }
        }
    }

    /// Whole-slab generic 4×4 walk (the superoperator kernel).
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab::dense4`] contract
    /// must hold: `slab.len() == dim·lanes` with `ma`, `mb` distinct
    /// single bits below the power-of-two `dim` — every quad row index
    /// `{i, i|ma, i|mb, i|ma|mb}` then stays below `dim` and the four
    /// rows are pairwise disjoint. The safe method establishes all
    /// of it before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense4_slab(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        ma: usize,
        mb: usize,
        m: &[[Complex64; 4]; 4],
    ) {
        let base = slab.as_mut_ptr();
        for i in 0..dim {
            if i & (ma | mb) != 0 {
                continue;
            }
            let (r0, r1) = pair_rows(base, lanes, i, i | ma);
            let (r2, r3) = pair_rows(base, lanes, i | mb, i | ma | mb);
            dense4_rows([r0, r1, r2, r3], m);
        }
    }

    /// Whole-slab diagonal-phase walk.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold: `slab.len() == dim·lanes` keeps every row slice
    /// (`from_raw_parts_mut` at `i · lanes`, `i < dim`) inside the
    /// slab. The safe methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn phase_slab(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
        lo: (f64, f64),
        hi: (f64, f64),
    ) {
        let base = slab.as_mut_ptr();
        for i in 0..dim {
            if i & mc != mc {
                continue;
            }
            let (pr, pi) = if i & mt == 0 { lo } else { hi };
            let row = core::slice::from_raw_parts_mut(base.add(i * lanes), lanes);
            phase_rows(row, pr, pi);
        }
    }

    /// Whole-slab per-lane X-rotation walk.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold (`slab.len() == dim·lanes`, `mt` a single bit below the
    /// power-of-two `dim`, `mc < dim`): together these keep every
    /// `pair_rows` row in bounds and each pair disjoint. The safe
    /// methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_x_slab_lanes(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
        trig: &[(f64, f64)],
    ) {
        let base = slab.as_mut_ptr();
        for i0 in 0..dim {
            if i0 & mt != 0 || i0 & mc != mc {
                continue;
            }
            let (r0, r1) = pair_rows(base, lanes, i0, i0 | mt);
            rot_x_rows_lanes(r0, r1, trig);
        }
    }

    /// Whole-slab per-lane Y-rotation walk.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold (`slab.len() == dim·lanes`, `mt` a single bit below the
    /// power-of-two `dim`, `mc < dim`): together these keep every
    /// `pair_rows` row in bounds and each pair disjoint. The safe
    /// methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_y_slab_lanes(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
        trig: &[(f64, f64)],
    ) {
        let base = slab.as_mut_ptr();
        for i0 in 0..dim {
            if i0 & mt != 0 || i0 & mc != mc {
                continue;
            }
            let (r0, r1) = pair_rows(base, lanes, i0, i0 | mt);
            rot_y_rows_lanes(r0, r1, trig);
        }
    }

    /// Whole-slab per-lane diagonal-phase walk.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled and the [`super::Slab`] contract must
    /// hold: `slab.len() == dim·lanes` keeps every row slice
    /// (`from_raw_parts_mut` at `i · lanes`, `i < dim`) inside the
    /// slab. The safe methods establish both before the call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn phase_slab_lanes(
        slab: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
        zlo: &[(f64, f64)],
        zhi: &[(f64, f64)],
    ) {
        let base = slab.as_mut_ptr();
        for i in 0..dim {
            if i & mc != mc {
                continue;
            }
            let cls = if i & mt == 0 { zlo } else { zhi };
            let row = core::slice::from_raw_parts_mut(base.add(i * lanes), lanes);
            phase_rows_lanes(row, cls);
        }
    }

    /// Multi-λ whole-slab adjoint generator fold.
    ///
    /// # Safety
    ///
    /// AVX2 must be enabled; `phi` and every `lams[j]` must hold
    /// exactly `dim · lanes` complexes with `mt` a single bit below
    /// the power-of-two `dim`, `accs` must hold `lams.len() · lanes`
    /// slots and `gbuf` exactly `lanes` — the generator scratch and
    /// every per-λ fold are bounded by these lengths. The safe
    /// dispatcher asserts all of them.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn adj_acc_slab_multi<const AXIS: u8>(
        accs: &mut [f64],
        lams: &[&[Complex64]],
        phi: &[Complex64],
        gbuf: &mut [Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
    ) {
        // Sign masks: xor with −0.0 is the exact scalar negation.
        let neg_im = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
        let neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
        let neg_all = _mm256_set1_pd(-0.0);
        let pp = phi.as_ptr() as *const f64;
        let pg = gbuf.as_mut_ptr() as *mut f64;
        let pa = accs.as_mut_ptr();
        for i in 0..dim {
            if i & mc != mc {
                continue;
            }
            let gbase = if AXIS == super::AXIS_Z {
                pp.add(2 * i * lanes)
            } else {
                pp.add(2 * (i ^ mt) * lanes)
            };
            let tgt_set = i & mt != 0;
            // Build the generator row once into the scratch: X is φ, Y
            // swaps re/im then sign-flips one slot, Z target-set is −φ.
            let mut k = 0;
            while k + 2 <= lanes {
                let xv = _mm256_loadu_pd(gbase.add(2 * k));
                let gv = match AXIS {
                    super::AXIS_X => xv,
                    super::AXIS_Y => {
                        let sw = _mm256_permute_pd(xv, 0b0101);
                        if tgt_set {
                            _mm256_xor_pd(sw, neg_re)
                        } else {
                            _mm256_xor_pd(sw, neg_im)
                        }
                    }
                    _ => {
                        if tgt_set {
                            _mm256_xor_pd(xv, neg_all)
                        } else {
                            xv
                        }
                    }
                };
                _mm256_storeu_pd(pg.add(2 * k), gv);
                k += 2;
            }
            if k < lanes {
                let x = if AXIS == super::AXIS_Z {
                    *phi.get_unchecked(i * lanes + k)
                } else {
                    *phi.get_unchecked((i ^ mt) * lanes + k)
                };
                *gbuf.get_unchecked_mut(k) = match AXIS {
                    super::AXIS_X => x,
                    super::AXIS_Y => {
                        if tgt_set {
                            Complex64::new(-x.im, x.re)
                        } else {
                            Complex64::new(x.im, -x.re)
                        }
                    }
                    _ => {
                        if tgt_set {
                            -x
                        } else {
                            x
                        }
                    }
                };
            }
            // Fold every λ row against the shared generator row: mul,
            // permute, hsub, add — the scalar fold's mul, mul, sub, add.
            for (j, lam) in lams.iter().enumerate() {
                let lbase = (lam.as_ptr() as *const f64).add(2 * i * lanes);
                let paj = pa.add(j * lanes);
                let mut k = 0;
                while k + 2 <= lanes {
                    let lv = _mm256_loadu_pd(lbase.add(2 * k));
                    let gv = _mm256_loadu_pd(pg.add(2 * k));
                    let p = _mm256_mul_pd(lv, _mm256_permute_pd(gv, 0b0101));
                    let h = _mm256_hsub_pd(p, p);
                    let pair = _mm_shuffle_pd(
                        _mm256_castpd256_pd128(h),
                        _mm256_extractf128_pd(h, 1),
                        0b00,
                    );
                    _mm_storeu_pd(paj.add(k), _mm_add_pd(_mm_loadu_pd(paj.add(k)), pair));
                    k += 2;
                }
                if k < lanes {
                    let l = *lam.get_unchecked(i * lanes + k);
                    let g = *gbuf.get_unchecked(k);
                    *paj.add(k) += l.re * g.im - l.im * g.re;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{self, SimdLevel};

    /// Deterministic phase-rich row of `n` amplitudes.
    fn busy_row(n: usize, salt: f64) -> Vec<Complex64> {
        (0..n)
            .map(|k| {
                let t = 0.37 * k as f64 + salt;
                Complex64::new(t.sin() * 0.6, (1.3 * t).cos() * 0.7)
            })
            .collect()
    }

    fn lane_trig(n: usize) -> Vec<(f64, f64)> {
        (0..n).map(|k| (0.23 * k as f64 - 0.4).sin_cos()).collect()
    }

    /// Asserts scalar and forced-AVX2 runs of a slab op are bit-identical.
    fn assert_slab_parity(label: &str, dim: usize, lanes: usize, op: impl Fn(&mut [Complex64])) {
        if !simd::wide_supported() {
            return;
        }
        let base = busy_row(dim * lanes, 0.7);
        let mut s = base.clone();
        simd::force(SimdLevel::Scalar);
        op(&mut s);
        let mut w = base.clone();
        simd::force(SimdLevel::Avx2);
        op(&mut w);
        simd::force(SimdLevel::Scalar);
        assert_eq!(s, w, "{label} diverged (dim={dim}, lanes={lanes})");
    }

    #[test]
    fn slab_kernels_bit_identical() {
        // Lanes 1..=9 reach every AVX2 row length the slab walks run
        // (one lane runs the `apply` kernels, whose own parity suite is
        // `tests/simd_parity.rs`).
        let dim = 8;
        let (s, c) = (0.63_f64).sin_cos();
        let g = Gate1::u3(0.9, -0.4, 1.2);
        let g2 = Gate2::crx(0.83);
        for lanes in 1..=9usize {
            let trig = lane_trig(lanes);
            let zlo: Vec<(f64, f64)> = trig.iter().map(|&(s, c)| (c, -s)).collect();
            let zhi: Vec<(f64, f64)> = trig.iter().map(|&(s, c)| (c, s)).collect();
            for (mt, mc) in [(1usize, 0usize), (2, 4), (4, 1)] {
                for axis in [RotationAxis::X, RotationAxis::Y, RotationAxis::Z] {
                    assert_slab_parity("rot", dim, lanes, |sl| {
                        Slab::new(sl, lanes).rot(axis, mt, mc, s, c)
                    });
                }
                assert_slab_parity("phase", dim, lanes, |sl| {
                    Slab::new(sl, lanes).phase(mt, mc, (c, -s), (0.6, 0.8))
                });
                assert_slab_parity("rot_x_lanes", dim, lanes, |sl| {
                    Slab::new(sl, lanes).rot_x_lanes(mt, mc, &trig)
                });
                assert_slab_parity("rot_y_lanes", dim, lanes, |sl| {
                    Slab::new(sl, lanes).rot_y_lanes(mt, mc, &trig)
                });
                assert_slab_parity("phase_lanes", dim, lanes, |sl| {
                    Slab::new(sl, lanes).phase_lanes(mt, mc, &zlo, &zhi)
                });
            }
            assert_slab_parity("gate1", dim, lanes, |sl| Slab::new(sl, lanes).gate1(2, &g));
            // Non-unitary 4×4 (superoperator-shaped) and the unitary
            // two-qubit kernel on distinct mask pairs, both orientations.
            let m4 = busy_mat4(0.3);
            for (ma, mb) in [(1usize, 2usize), (2, 1), (1, 4), (4, 2)] {
                assert_slab_parity("dense4", dim, lanes, |sl| {
                    Slab::new(sl, lanes).dense4(ma, mb, &m4)
                });
                assert_slab_parity("gate2", dim, lanes, |sl| {
                    Slab::new(sl, lanes).gate2(ma, mb, &g2)
                });
                assert_slab_parity("cnot", dim, lanes, |sl| Slab::new(sl, lanes).cnot(ma, mb));
                assert_slab_parity("cz", dim, lanes, |sl| Slab::new(sl, lanes).cz(ma, mb));
            }
        }
    }

    /// Deterministic dense (non-unitary) 4×4 complex matrix.
    fn busy_mat4(salt: f64) -> [[Complex64; 4]; 4] {
        let mut m = [[Complex64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, e) in row.iter_mut().enumerate() {
                let t = salt + 0.7 * r as f64 + 1.3 * c as f64;
                *e = Complex64::new(t.sin(), (2.1 * t).cos() * 0.4);
            }
        }
        m
    }

    #[test]
    fn gate2_slab_matches_apply_gate2_per_lane() {
        // The superoperator kernel against the canonical statevector
        // `apply_gate2` on a unitary, per extracted lane — same quad
        // decomposition, different association, so results agree to
        // rounding on every mask orientation.
        use crate::apply::apply_gate2;
        let dim = 16;
        let lanes = 3;
        let g = Gate2::crx(0.83);
        for (qa, qb) in [(0usize, 2usize), (2, 0), (1, 3)] {
            let slab = busy_row(dim * lanes, 0.9);
            let mut got = slab.clone();
            Slab::new(&mut got, lanes).dense4(1 << qa, 1 << qb, g.matrix());
            for lane in 0..lanes {
                let mut amps: Vec<Complex64> = (0..dim).map(|i| slab[i * lanes + lane]).collect();
                apply_gate2(&mut amps, qa, qb, &g);
                for i in 0..dim {
                    let d = got[i * lanes + lane] - amps[i];
                    assert!(
                        d.re.abs() < 1e-12 && d.im.abs() < 1e-12,
                        "lane {lane} amp {i} (qa={qa}, qb={qb})"
                    );
                }
            }
        }
    }

    /// Runs [`adj_acc_slab_multi`] at a runtime-chosen axis.
    #[allow(clippy::too_many_arguments)]
    fn adj_multi(
        axis: u8,
        accs: &mut [f64],
        lams: &[&[Complex64]],
        phi: &[Complex64],
        lanes: usize,
        dim: usize,
        mt: usize,
        mc: usize,
    ) {
        let mut gbuf = vec![Complex64::ZERO; lanes];
        match axis {
            AXIS_X => adj_acc_slab_multi::<AXIS_X>(accs, lams, phi, &mut gbuf, lanes, dim, mt, mc),
            AXIS_Y => adj_acc_slab_multi::<AXIS_Y>(accs, lams, phi, &mut gbuf, lanes, dim, mt, mc),
            _ => adj_acc_slab_multi::<AXIS_Z>(accs, lams, phi, &mut gbuf, lanes, dim, mt, mc),
        }
    }

    /// The dispatch levels this machine can run.
    fn levels() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Scalar];
        if simd::wide_supported() {
            v.push(SimdLevel::Avx2);
        }
        v
    }

    #[test]
    fn adj_acc_slab_bit_identical_and_matches_reference() {
        // At 1 and at 3 λ, on both dispatch paths, the adjoint kernel
        // must equal the naive reference: materialise the generator row
        // and fold each λ with the same per-term arithmetic.
        let dim = 8;
        let mt = 2usize;
        for lanes in 1..6usize {
            let phi = busy_row(dim * lanes, 0.4);
            for n_lam in [1usize, 3] {
                let lams: Vec<Vec<Complex64>> = (0..n_lam)
                    .map(|j| busy_row(dim * lanes, 1.1 + j as f64))
                    .collect();
                let lrefs: Vec<&[Complex64]> = lams.iter().map(|l| l.as_slice()).collect();
                for mc in [0usize, 4] {
                    for axis in [AXIS_X, AXIS_Y, AXIS_Z] {
                        let mut want = vec![0.0f64; n_lam * lanes];
                        for i in (0..dim).filter(|i| i & mc == mc) {
                            for k in 0..lanes {
                                let x = if axis == AXIS_Z {
                                    phi[i * lanes + k]
                                } else {
                                    phi[(i ^ mt) * lanes + k]
                                };
                                let g = match axis {
                                    AXIS_X => x,
                                    AXIS_Y if i & mt != 0 => Complex64::new(-x.im, x.re),
                                    AXIS_Y => Complex64::new(x.im, -x.re),
                                    _ if i & mt != 0 => -x,
                                    _ => x,
                                };
                                for (j, lam) in lams.iter().enumerate() {
                                    let l = lam[i * lanes + k];
                                    want[j * lanes + k] += l.re * g.im - l.im * g.re;
                                }
                            }
                        }
                        for level in levels() {
                            let mut got = vec![0.0f64; n_lam * lanes];
                            simd::force(level);
                            adj_multi(axis, &mut got, &lrefs, &phi, lanes, dim, mt, mc);
                            simd::force(SimdLevel::Scalar);
                            assert_eq!(
                                got, want,
                                "axis {axis}, {n_lam} λ, lanes={lanes}, mc={mc}, {level:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adj_acc_slab_multi_bit_identical_to_per_observable() {
        // Folding three λ in one slab walk must reproduce one-λ calls per
        // observable bit-for-bit, on both dispatch paths.
        let dim = 8;
        let mt = 2usize;
        for lanes in 1..6usize {
            let phi = busy_row(dim * lanes, 0.4);
            let lams: Vec<Vec<Complex64>> = (0..3)
                .map(|j| busy_row(dim * lanes, 1.1 + j as f64))
                .collect();
            let lrefs: Vec<&[Complex64]> = lams.iter().map(|l| l.as_slice()).collect();
            for mc in [0usize, 4] {
                for axis in [AXIS_X, AXIS_Y, AXIS_Z] {
                    for level in levels() {
                        simd::force(level);
                        let mut want = vec![0.0f64; lams.len() * lanes];
                        for (j, lam) in lrefs.iter().enumerate() {
                            let acc = &mut want[j * lanes..(j + 1) * lanes];
                            adj_multi(axis, acc, &[lam], &phi, lanes, dim, mt, mc);
                        }
                        let mut got = vec![0.0f64; lams.len() * lanes];
                        adj_multi(axis, &mut got, &lrefs, &phi, lanes, dim, mt, mc);
                        simd::force(SimdLevel::Scalar);
                        assert_eq!(got, want, "axis {axis} (lanes={lanes}, mc={mc}, {level:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn slab_kernels_match_apply_kernels_per_lane() {
        // Every slab kernel, at several lane counts and on both dispatch
        // levels, must leave each lane bit-identical to its `apply`
        // kernel run on that lane alone. Lanes = 1 is the one-lane arm
        // itself; wider slabs prove the row walks visit exactly the pair
        // kernels' pairs with their arithmetic.
        use crate::apply::*;
        use crate::gate::Gate2;
        let dim = 16;
        let (s, c) = (1.17_f64).sin_cos();
        let g = Gate1::u3(0.9, -0.4, 1.2);
        let g2 = Gate2::crx(0.83);
        let (lo, hi) = ((0.6, -0.8), (-0.28, 0.96));
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            if level == SimdLevel::Avx2 && !simd::wide_supported() {
                continue;
            }
            for lanes in [1usize, 2, 3, 5, 8] {
                let trig = lane_trig(lanes);
                let zlo: Vec<(f64, f64)> = trig.iter().map(|&(s, c)| (c, -s)).collect();
                let zhi: Vec<(f64, f64)> = trig.iter().map(|&(s, c)| (c, s)).collect();
                // (slab kernel, the same gate on lane `l` alone).
                type SlabOp<'a> = Box<dyn Fn(&mut Slab<'_>) + 'a>;
                type LaneOp<'a> = Box<dyn Fn(&mut [Complex64], usize) + 'a>;
                let mut cases: Vec<(String, SlabOp<'_>, LaneOp<'_>)> = Vec::new();
                for (t, ctl) in [(0usize, None), (3, Some(1usize)), (1, Some(3))] {
                    let (mt, mc) = (1usize << t, ctl.map_or(0, |q| 1usize << q));
                    let (zlo, zhi, trig) = (&zlo, &zhi, &trig);
                    cases.push((
                        format!("rx t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.rot(RotationAxis::X, mt, mc, s, c)),
                        Box::new(move |a, _| match ctl {
                            None => apply_rx_sc(a, t, s, c),
                            Some(q) => apply_crx_sc(a, q, t, s, c),
                        }),
                    ));
                    cases.push((
                        format!("ry t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.rot(RotationAxis::Y, mt, mc, s, c)),
                        Box::new(move |a, _| match ctl {
                            None => apply_ry_sc(a, t, s, c),
                            Some(q) => apply_cry_sc(a, q, t, s, c),
                        }),
                    ));
                    cases.push((
                        format!("rz t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.rot(RotationAxis::Z, mt, mc, s, c)),
                        Box::new(move |a, _| match ctl {
                            None => apply_rz_sc(a, t, s, c),
                            Some(q) => apply_crz_sc(a, q, t, s, c),
                        }),
                    ));
                    cases.push((
                        format!("phase t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.phase(mt, mc, lo, hi)),
                        Box::new(move |a, _| apply_phases(a, ctl, t, lo, hi)),
                    ));
                    cases.push((
                        format!("rx lanes t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.rot_x_lanes(mt, mc, trig)),
                        Box::new(move |a, l| {
                            let (s, c) = trig[l];
                            match ctl {
                                None => apply_rx_sc(a, t, s, c),
                                Some(q) => apply_crx_sc(a, q, t, s, c),
                            }
                        }),
                    ));
                    cases.push((
                        format!("ry lanes t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.rot_y_lanes(mt, mc, trig)),
                        Box::new(move |a, l| {
                            let (s, c) = trig[l];
                            match ctl {
                                None => apply_ry_sc(a, t, s, c),
                                Some(q) => apply_cry_sc(a, q, t, s, c),
                            }
                        }),
                    ));
                    cases.push((
                        format!("phase lanes t={t} c={ctl:?}"),
                        Box::new(move |sl| sl.phase_lanes(mt, mc, zlo, zhi)),
                        Box::new(move |a, l| apply_phases(a, ctl, t, zlo[l], zhi[l])),
                    ));
                }
                for t in [0usize, 2, 3] {
                    cases.push((
                        format!("gate1 t={t}"),
                        Box::new(move |sl| sl.gate1(1 << t, &g)),
                        Box::new(move |a, _| apply_gate1(a, t, &g)),
                    ));
                }
                for (qa, qb) in [(0usize, 2usize), (3, 1), (1, 0)] {
                    let (ma, mb) = (1usize << qa, 1usize << qb);
                    let g2 = &g2;
                    cases.push((
                        format!("gate2 {qa},{qb}"),
                        Box::new(move |sl| sl.gate2(ma, mb, g2)),
                        Box::new(move |a, _| apply_gate2(a, qa, qb, g2)),
                    ));
                    cases.push((
                        format!("cnot {qa}->{qb}"),
                        Box::new(move |sl| sl.cnot(ma, mb)),
                        Box::new(move |a, _| apply_cnot(a, qa, qb)),
                    ));
                    cases.push((
                        format!("cz {qa},{qb}"),
                        Box::new(move |sl| sl.cz(ma, mb)),
                        Box::new(move |a, _| apply_cz(a, qa, qb)),
                    ));
                }
                for (label, on_slab, on_lane) in &cases {
                    let base = busy_row(dim * lanes, 0.9);
                    simd::force(level);
                    let mut got = base.clone();
                    on_slab(&mut Slab::new(&mut got, lanes));
                    for lane in 0..lanes {
                        let mut want: Vec<Complex64> =
                            (0..dim).map(|i| base[i * lanes + lane]).collect();
                        on_lane(&mut want, lane);
                        let have: Vec<Complex64> =
                            (0..dim).map(|i| got[i * lanes + lane]).collect();
                        assert_eq!(have, want, "{label}: lane {lane}/{lanes}, {level:?}");
                    }
                    simd::force(SimdLevel::Scalar);
                }
            }
        }
    }

    #[test]
    fn slab_kernels_match_per_row_calls() {
        // The slab kernels must visit exactly the per-row pairs: compare a
        // whole-slab rotation with a hand-rolled enumeration that runs each
        // (i0, i0|mt) row pair alone, as a two-row slab.
        let dim = 8;
        let lanes = 3;
        let (s, c) = (0.63_f64).sin_cos();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            if level == SimdLevel::Avx2 && !simd::wide_supported() {
                continue;
            }
            simd::force(level);
            for axis in [RotationAxis::X, RotationAxis::Y, RotationAxis::Z] {
                for (mt, mc) in [(1usize, 0usize), (2, 4)] {
                    let base = busy_row(dim * lanes, 0.7);
                    let mut got = base.clone();
                    Slab::new(&mut got, lanes).rot(axis, mt, mc, s, c);
                    let mut want = base.clone();
                    for i0 in 0..dim {
                        if i0 & mt != 0 || i0 & mc != mc {
                            continue;
                        }
                        let i1 = i0 | mt;
                        let mut pair: Vec<Complex64> = want[i0 * lanes..(i0 + 1) * lanes]
                            .iter()
                            .chain(&want[i1 * lanes..(i1 + 1) * lanes])
                            .copied()
                            .collect();
                        Slab::new(&mut pair, lanes).rot(axis, 1, 0, s, c);
                        want[i0 * lanes..(i0 + 1) * lanes].copy_from_slice(&pair[..lanes]);
                        want[i1 * lanes..(i1 + 1) * lanes].copy_from_slice(&pair[lanes..]);
                    }
                    assert_eq!(
                        got, want,
                        "{axis:?} slab enumeration (mt={mt}, mc={mc}, {level:?})"
                    );
                }
            }
        }
        simd::force(SimdLevel::Scalar);
    }

    #[test]
    fn row_kernels_match_pair_kernel_formulas() {
        // A two-row slab runs the row kernel on its row pair; it must agree
        // with the statevector pair kernel it mirrors: build a 1-qubit
        // state per lane and compare.
        let (s, c) = (1.17_f64).sin_cos();
        let n = 5;
        let r0 = busy_row(n, 0.2);
        let r1 = busy_row(n, 1.9);
        simd::force(SimdLevel::Scalar);
        let refs: Vec<[Complex64; 2]> = r0
            .iter()
            .zip(&r1)
            .map(|(&a0, &a1)| {
                let mut amps = vec![a0, a1];
                crate::apply::apply_rx_sc(&mut amps, 0, s, c);
                [amps[0], amps[1]]
            })
            .collect();
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            if level == SimdLevel::Avx2 && !simd::wide_supported() {
                continue;
            }
            simd::force(level);
            let mut rows: Vec<Complex64> = r0.iter().chain(&r1).copied().collect();
            Slab::new(&mut rows, n).rot(RotationAxis::X, 1, 0, s, c);
            simd::force(SimdLevel::Scalar);
            for (k, r) in refs.iter().enumerate() {
                assert_eq!(rows[k], r[0], "lane {k} row 0, {level:?}");
                assert_eq!(rows[n + k], r[1], "lane {k} row 1, {level:?}");
            }
        }
    }
}
