//! Gate kernels over lane slabs: the simulator's one kernel family.
//!
//! The runtime's lane-slab executors store `L` statevectors transposed —
//! `slab[amp · L + lane]` — and a single statevector is the one-lane case
//! `slab[amp]`. [`Slab`] is a checked view of such a block and its
//! methods are the gate kernels; the wire-index functions of
//! [`crate::apply`] are one-lane calls into them. Each kernel has one
//! portable scalar body and one AVX2 body, dispatched through
//! [`crate::simd::level`] and **bit-identical** by the argument given
//! there (separate multiply and add, the same expression per element, the
//! same association order).
//!
//! ## Runs
//!
//! In the layout `slab[amp · L + lane]` the rows of one target-clear (and
//! control-set) block are contiguous. A gate on target mask `mt` with
//! control mask `mc` therefore walks pairs of contiguous *runs*: each run
//! holds `lo · L` amplitudes, `lo` being the smaller of `mt` and `mc`
//! (`mt` alone when uncontrolled), and its partner run starts `mt · L`
//! amplitudes later. A two-qubit gate walks quads of runs the same way.
//! One run enumeration serves every kernel at every lane count; at
//! `L = 1` it is the statevector block walk. The AVX2 bodies step two
//! amplitudes per 256-bit register and finish an odd run (odd `L`) with a
//! 128-bit step. A one-lane uncontrolled gate on wire 0, whose pairs are
//! adjacent amplitudes, instead runs each pair inside one register.
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
//! for input-dependent rotations, and walk the same runs row by row.

use crate::complex::Complex64;
use crate::gate::{Gate1, Gate2, RotationAxis};
use crate::simd::{self, SimdLevel};

/// `true` when the AVX2 bodies should run.
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

/// The mask of wire `q` in a register of `dim` amplitudes: the one place
/// a wire index becomes a mask. Checked in every build profile, because
/// an unchecked `1 << q` wraps its shift in release builds and would land
/// wire 64 on wire 0.
///
/// # Panics
///
/// Unless `q < usize::BITS` and `1 << q < dim`.
#[inline]
pub(crate) fn wire_mask(q: usize, dim: usize) -> usize {
    assert!(
        q < usize::BITS as usize && 1usize << q < dim,
        "wire {q} out of range for {dim} amplitudes"
    );
    1 << q
}

// ---------------------------------------------------------------------
// Scalar bodies: the reference arithmetic of every kernel, over runs.
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

    /// Each output rebuilds through a `mul_acc` chain from zero in column
    /// order.
    #[inline(always)]
    pub(super) fn gate2(rows: [&mut [Complex64]; 4], m: &[[Complex64; 4]; 4]) {
        let [r0, r1, r2, r3] = rows;
        for l in 0..r0.len() {
            let x = [r0[l], r1[l], r2[l], r3[l]];
            let mut y = [Complex64::ZERO; 4];
            for (acc, row) in y.iter_mut().zip(m) {
                for (&e, &xc) in row.iter().zip(&x) {
                    *acc = e.mul_acc(xc, *acc);
                }
            }
            [r0[l], r1[l], r2[l], r3[l]] = y;
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
// The run walk: where one gate's amplitudes lie in a slab.
// ---------------------------------------------------------------------

/// The runs of one gate over a slab of `len` amplitudes: blocks of `span`
/// amplitudes repeating every `2·span`, and inside each block, starting
/// `first` amplitudes in, runs of `run` amplitudes repeating every
/// `2·run`. Built by [`Slab`] from masks it has checked, so every run and
/// its partners lie inside the slab.
#[derive(Clone, Copy, Debug)]
struct Runs {
    len: usize,
    run: usize,
    span: usize,
    first: usize,
}

impl Runs {
    /// The runs of rows with both single-bit masks `a` and `b` clear,
    /// moved onto the rows with `set` set (`0`, `a` or `b`), over `dim`
    /// rows of `lanes` amplitudes.
    #[inline]
    fn new(lanes: usize, dim: usize, a: usize, b: usize, set: usize) -> Runs {
        Runs {
            len: dim * lanes,
            run: a.min(b) * lanes,
            span: a.max(b) * lanes,
            first: set * lanes,
        }
    }

    /// Calls `f` with the start of every run, ascending.
    #[inline(always)]
    fn each(self, mut f: impl FnMut(usize)) {
        if self.span == self.len {
            // One block (an uncontrolled gate): a single run loop keeps
            // the frequent one-lane rotations as lean as a plain
            // statevector loop.
            let mut i = self.first;
            while i < self.len {
                f(i);
                i += 2 * self.run;
            }
            return;
        }
        let mut block = self.first;
        while block < self.len {
            let end = block + self.span;
            let mut i = block;
            while i < end {
                f(i);
                i += 2 * self.run;
            }
            block += 2 * self.span;
        }
    }

    /// `true` when the pairs at partner offset `off` are the adjacent
    /// amplitudes of a whole one-lane slab: an uncontrolled gate on wire 0
    /// at `L = 1`, the case the AVX2 bodies run inside one register.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn adjacent(self, off: usize) -> bool {
        off == 1 && self.span == self.len
    }
}

/// Hands every run and its partner `off` amplitudes later to `f` as two
/// disjoint slices.
#[inline(always)]
fn pair_runs(
    amps: &mut [Complex64],
    runs: Runs,
    off: usize,
    mut f: impl FnMut(&mut [Complex64], &mut [Complex64]),
) {
    let n = runs.run;
    runs.each(|i| {
        let (head, tail) = amps.split_at_mut(i + off);
        f(&mut head[i..i + n], &mut tail[..n]);
    });
}

/// Hands every quad of runs `{i, i+oa, i+ob, i+oa+ob}` to `f` as four
/// disjoint slices in 4×4 index order (bit 0 ↔ `oa`, bit 1 ↔ `ob`).
#[inline(always)]
fn quad_runs(
    amps: &mut [Complex64],
    runs: Runs,
    oa: usize,
    ob: usize,
    mut f: impl FnMut([&mut [Complex64]; 4]),
) {
    let n = runs.run;
    let (olo, ohi) = (oa.min(ob), oa.max(ob));
    runs.each(|i| {
        // Offsets ascend: i < i+olo < i+ohi < i+olo+ohi.
        let (head, rest) = amps.split_at_mut(i + olo);
        let (lo, rest) = rest.split_at_mut(ohi - olo);
        let (hi, both) = rest.split_at_mut(olo);
        let (base, lo, hi, both) = (
            &mut head[i..i + n],
            &mut lo[..n],
            &mut hi[..n],
            &mut both[..n],
        );
        f(if oa == olo {
            [base, lo, hi, both]
        } else {
            [base, hi, lo, both]
        });
    });
}

/// A checked lane slab: `dim` rows of `lanes` amplitudes,
/// `slab[amp · lanes + lane]`, with `dim` a power of two.
///
/// The AVX2 bodies derive raw pointers from the gate's runs with no
/// further bounds checks. The facts that keep them in bounds are asserted
/// at this safe boundary in every build profile, not as `debug_assert!`s
/// that vanish in release builds: [`Slab::new`] checks the geometry once
/// per view, and each gate method checks its own masks. A power-of-two
/// `dim` with every mask a distinct single bit below it keeps each
/// enumerated row (target-clear, control-set or both-clear, and its
/// partners) below `dim`, and `len == dim · lanes` keeps every such row
/// inside the slab. A walk of many small gates builds one view and so
/// pays the geometry checks once; the gate methods a walk calls are
/// `#[inline(always)]`.
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
        // Lane counts are mostly powers of two (one lane included); those
        // skip the division.
        let dim = if lanes.is_power_of_two() {
            amps.len() >> lanes.trailing_zeros()
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

    /// Checks one gate's masks for the run walks: `mt` a single bit below
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

    /// The checked runs of a pair gate on target mask `mt` where control
    /// mask `mc` is set, and the offset of each run's partner.
    #[inline(always)]
    fn pairs(&self, mt: usize, mc: usize) -> (Runs, usize) {
        self.check(mt, mc);
        let hi = if mc == 0 { self.dim } else { mc };
        (Runs::new(self.lanes, self.dim, mt, hi, mc), mt * self.lanes)
    }

    /// The checked runs of the both-clear rows of a two-wire kernel on
    /// masks `ma` and `mb`.
    #[inline(always)]
    fn quads(&self, ma: usize, mb: usize) -> Runs {
        self.check(ma, mb);
        assert_ne!(mb, 0, "a two-wire kernel needs two masks");
        Runs::new(self.lanes, self.dim, ma, mb, 0)
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
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `pairs` built the runs from checked masks.
            return unsafe { avx::rot_x(self.amps, runs, off, s, c) };
        }
        pair_runs(self.amps, runs, off, |r0, r1| scalar::rot_x(r0, r1, s, c));
    }

    /// Y-rotation pair update (all-real coefficients):
    /// `a0' = c·a0 − s·a1`, `a1' = s·a0 + c·a1`.
    #[inline(always)]
    fn rot_y(&mut self, mt: usize, mc: usize, s: f64, c: f64) {
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `pairs` built the runs from checked masks.
            return unsafe { avx::rot_y(self.amps, runs, off, s, c) };
        }
        pair_runs(self.amps, runs, off, |r0, r1| scalar::rot_y(r0, r1, s, c));
    }

    /// Diagonal update: multiplies target-clear rows by `lo` and
    /// target-set rows by `hi` (as `(pr, pi)` phases,
    /// `a' = (a.re·pr − a.im·pi, a.re·pi + a.im·pr)`), skipping
    /// control-clear rows. The phases are independent of each other.
    #[inline(always)]
    pub fn phase(&mut self, mt: usize, mc: usize, lo: (f64, f64), hi: (f64, f64)) {
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `pairs` built the runs from checked masks.
            return unsafe { avx::phase(self.amps, runs, off, lo, hi) };
        }
        pair_runs(self.amps, runs, off, |r0, r1| {
            scalar::phase(r0, lo.0, lo.1);
            scalar::phase(r1, hi.0, hi.1);
        });
    }

    /// X rotation with one `(sin θ/2, cos θ/2)` pair per lane.
    #[inline]
    pub fn rot_x_lanes(&mut self, mt: usize, mc: usize, trig: &[(f64, f64)]) {
        assert_eq!(self.lanes, trig.len(), "one trig pair per lane");
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`,
            // `pairs` built the runs from checked masks, and `trig` holds
            // one pair per lane.
            return unsafe { avx::rot_x_lanes(self.amps, runs, off, trig) };
        }
        let lanes = self.lanes;
        pair_runs(self.amps, runs, off, |r0, r1| {
            for (a, b) in r0.chunks_exact_mut(lanes).zip(r1.chunks_exact_mut(lanes)) {
                scalar::rot_x_lanes(a, b, trig);
            }
        });
    }

    /// Y rotation with one `(sin θ/2, cos θ/2)` pair per lane.
    #[inline]
    pub fn rot_y_lanes(&mut self, mt: usize, mc: usize, trig: &[(f64, f64)]) {
        assert_eq!(self.lanes, trig.len(), "one trig pair per lane");
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`,
            // `pairs` built the runs from checked masks, and `trig` holds
            // one pair per lane.
            return unsafe { avx::rot_y_lanes(self.amps, runs, off, trig) };
        }
        let lanes = self.lanes;
        pair_runs(self.amps, runs, off, |r0, r1| {
            for (a, b) in r0.chunks_exact_mut(lanes).zip(r1.chunks_exact_mut(lanes)) {
                scalar::rot_y_lanes(a, b, trig);
            }
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
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`,
            // `pairs` built the runs from checked masks, and both phase
            // tables hold one pair per lane.
            return unsafe { avx::phase_lanes(self.amps, runs, off, zlo, zhi) };
        }
        let lanes = self.lanes;
        pair_runs(self.amps, runs, off, |r0, r1| {
            for (a, b) in r0.chunks_exact_mut(lanes).zip(r1.chunks_exact_mut(lanes)) {
                scalar::phase_lanes(a, zlo);
                scalar::phase_lanes(b, zhi);
            }
        });
    }

    /// Generic 2×2 pair update with one unitary for every lane, on target
    /// mask `mt` where control mask `mc` is set:
    /// `a0' = m00·a0 + m01·a1`, `a1' = m10·a0 + m11·a1`.
    #[inline(always)]
    pub fn gate1(&mut self, mt: usize, mc: usize, gate: &Gate1) {
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `pairs` built the runs from checked masks.
            return unsafe { avx::gate1(self.amps, runs, off, gate) };
        }
        pair_runs(self.amps, runs, off, |r0, r1| scalar::gate1(r0, r1, gate));
    }

    /// A two-qubit gate, `ma` ↔ bit 0 and `mb` ↔ bit 1 of the matrix
    /// index: for every both-clear base row, each lane's four amplitudes
    /// rebuild through a `mul_acc` chain from zero in column order. This
    /// is the fused schedule's entangler product; see [`Slab::dense4`]
    /// for the superoperator kernel, which associates its sums
    /// differently.
    #[inline(always)]
    pub fn gate2(&mut self, ma: usize, mb: usize, gate: &Gate2) {
        let runs = self.quads(ma, mb);
        let (oa, ob) = (ma * self.lanes, mb * self.lanes);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `quads` built the runs from checked, distinct masks.
            return unsafe { avx::gate2(self.amps, runs, oa, ob, gate.matrix()) };
        }
        quad_runs(self.amps, runs, oa, ob, |rows| {
            scalar::gate2(rows, gate.matrix())
        });
    }

    /// Generic two-bit 4×4 update: for every row index with both `ma` and
    /// `mb` clear, the four rows `{i, i|ma, i|mb, i|ma|mb}` transform
    /// together by `m`, with bit 0 of the 4×4 index ↔ `ma` and bit 1 ↔
    /// `mb`, as `y_r = ((m_r0·x0 + m_r1·x1) + m_r2·x2) + m_r3·x3`. The
    /// matrix is **not** required to be unitary: this is the density
    /// backend's superoperator kernel, where the 4×4 is a gate–channel
    /// product acting on a (column-bit, row-bit) pair of vectorized ρ. Its
    /// association differs from [`Slab::gate2`]'s `mul_acc` chain on
    /// purpose, so the two are separate kernels.
    pub fn dense4(&mut self, ma: usize, mb: usize, m: &[[Complex64; 4]; 4]) {
        let runs = self.quads(ma, mb);
        let (oa, ob) = (ma * self.lanes, mb * self.lanes);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `quads` built the runs from checked, distinct masks.
            return unsafe { avx::dense4(self.amps, runs, oa, ob, m) };
        }
        quad_runs(self.amps, runs, oa, ob, |rows| scalar::dense4(rows, m));
    }

    /// CNOT: swaps the target pair of every control-set row.
    #[inline(always)]
    pub fn cnot(&mut self, mc: usize, mt: usize) {
        assert_ne!(mc, 0, "CNOT needs a control");
        let (runs, off) = self.pairs(mt, mc);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `pairs` built the runs from checked masks.
            return unsafe { avx::cnot(self.amps, runs, off) };
        }
        pair_runs(self.amps, runs, off, |r0, r1| {
            for (a0, a1) in r0.iter_mut().zip(r1) {
                core::mem::swap(a0, a1);
            }
        });
    }

    /// CZ: negates every row with both `ma` and `mb` set.
    #[inline(always)]
    pub fn cz(&mut self, ma: usize, mb: usize) {
        assert_ne!(ma, 0, "CZ needs two wires");
        let (runs, off) = self.pairs(mb, ma);
        #[cfg(target_arch = "x86_64")]
        if wide() {
            // SAFETY: `wide()` just verified AVX2 via `simd::level`, and
            // `pairs` built the runs from checked masks.
            return unsafe { avx::cz(self.amps, runs, off) };
        }
        pair_runs(self.amps, runs, off, |_, both| {
            for a in both {
                *a = -*a;
            }
        });
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
    //! The AVX2 bodies. `Complex64` is `#[repr(C)] { re, im }`, so a slab
    //! is viewed as an interleaved `f64` buffer `[re0, im0, re1, im1, …]`:
    //! one 256-bit register holds two adjacent amplitudes, one 128-bit
    //! register holds one.
    //!
    //! Every function requires AVX2 (they are reachable only through
    //! [`super::wide`], which checks [`crate::simd::level`]) and runs
    //! produced by a [`super::Slab`] from its checked masks, which keep
    //! every pointer a walk derives inside the slab.

    use core::arch::x86_64::*;

    use super::Runs;
    use crate::complex::Complex64;
    use crate::gate::Gate1;

    /// One complex coefficient broadcast as `(re, im)` registers.
    type Splat = (__m256d, __m256d);

    /// A 4×4 matrix of [`Splat`]s.
    type Splat4 = [[Splat; 4]; 4];

    /// Splats one complex coefficient into broadcast (re, im) registers.
    ///
    /// # Safety
    ///
    /// Register-only; requires AVX2, which every caller guarantees by
    /// being `#[target_feature(enable = "avx2")]` itself.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(m: Complex64) -> Splat {
        (_mm256_set1_pd(m.re), _mm256_set1_pd(m.im))
    }

    /// Every entry of a 4×4 matrix, splat.
    ///
    /// # Safety
    ///
    /// Register-only; requires AVX2 (callers are `#[target_feature]`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat4(m: &[[Complex64; 4]; 4]) -> Splat4 {
        let mut ms = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 4]; 4];
        for (row, mrow) in ms.iter_mut().zip(m) {
            for (e, &coeff) in row.iter_mut().zip(mrow) {
                *e = splat(coeff);
            }
        }
        ms
    }

    /// Low halves of a splat pair, for 128-bit steps.
    ///
    /// # Safety
    ///
    /// Register-only cast; requires AVX2 (callers are `#[target_feature]`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn halve(m: Splat) -> (__m128d, __m128d) {
        (_mm256_castpd256_pd128(m.0), _mm256_castpd256_pd128(m.1))
    }

    /// `m · v` for two packed complexes, coefficient splat as `(re, im)`:
    /// `addsub(re·v, im·swap(v))` reproduces the scalar
    /// `(m.re·v.re − m.im·v.im, m.re·v.im + m.im·v.re)` bit for bit.
    ///
    /// # Safety
    ///
    /// Register-only; requires AVX2 (callers are `#[target_feature]`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cmul(m: Splat, v: __m256d) -> __m256d {
        let t1 = _mm256_mul_pd(m.0, v);
        let t2 = _mm256_mul_pd(m.1, _mm256_permute_pd(v, 0b0101));
        _mm256_addsub_pd(t1, t2)
    }

    /// 128-bit [`cmul`].
    ///
    /// # Safety
    ///
    /// Register-only; requires AVX2 (callers are `#[target_feature]`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn cmul1(m: (__m128d, __m128d), v: __m128d) -> __m128d {
        let t1 = _mm_mul_pd(m.0, v);
        let t2 = _mm_mul_pd(m.1, _mm_shuffle_pd(v, v, 0b01));
        _mm_addsub_pd(t1, t2)
    }

    // --- the walks -----------------------------------------------------

    /// The pair walk: `two` on every two-amplitude step of each run and
    /// its partner `off` amplitudes later, `one` on an odd run's last
    /// amplitude, each handed the interleaved pointers of the run
    /// amplitude and its partner.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `p` is the interleaved view of the slab `runs` was
    /// built for by a [`super::Slab`], so every handed pointer and the
    /// one or two amplitudes after it lie inside the slab, and a run never
    /// overlaps its partner.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pairs(
        p: *mut f64,
        runs: Runs,
        off: usize,
        mut two: impl FnMut(*mut f64, *mut f64),
        mut one: impl FnMut(*mut f64, *mut f64),
    ) {
        let (n, off) = (runs.run, 2 * off);
        runs.each(|i| {
            let mut a = p.add(2 * i);
            let end = a.add(2 * (n & !1));
            while a < end {
                two(a, a.add(off));
                a = a.add(4);
            }
            if n & 1 != 0 {
                one(a, a.add(off));
            }
        });
    }

    /// The per-lane pair walk: the runs of [`pairs`] row by row, `two` on
    /// every two-lane step of a row and `one` on an odd row's last lane,
    /// each handed the run and partner pointers. A step of lanes `k` and
    /// `k + 1` gets `coef(k)`; `one` gets its lane index. The lanes are
    /// walked in passes over blocks of 16, 8, 4 or 2 of them, each pass
    /// with its block's coefficients built once and held in registers
    /// (see [`LaneWalk::block`]). Every amplitude pair is updated once
    /// with its own lane's coefficients, so the passes cannot change any
    /// value.
    ///
    /// # Safety
    ///
    /// As [`pairs`], with `lanes` the slab's lane count, so each run is a
    /// whole number of rows.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lane_pairs<C: Copy>(
        p: *mut f64,
        runs: Runs,
        off: usize,
        lanes: usize,
        coef: impl Fn(usize) -> C,
        mut two: impl FnMut(*mut f64, *mut f64, C),
        mut one: impl FnMut(*mut f64, *mut f64, usize),
    ) {
        let mut start = 0;
        while start < lanes {
            let walk = LaneWalk {
                p,
                runs,
                off,
                lanes,
                start,
            };
            start += match (lanes - start) / 2 {
                0 => walk.block::<C, 0>(&coef, &mut two, &mut one),
                1 => walk.block::<C, 1>(&coef, &mut two, &mut one),
                2 | 3 => walk.block::<C, 2>(&coef, &mut two, &mut one),
                4..=7 => walk.block::<C, 4>(&coef, &mut two, &mut one),
                _ => walk.block::<C, 8>(&coef, &mut two, &mut one),
            };
        }
    }

    /// One pass of [`lane_pairs`]: lanes `start..` of a slab's runs.
    #[derive(Clone, Copy)]
    struct LaneWalk {
        p: *mut f64,
        runs: Runs,
        off: usize,
        lanes: usize,
        start: usize,
    }

    impl LaneWalk {
        /// Runs the `N` two-lane steps from `start` on every row, and the
        /// row's last lane too when it is the one lane left after them.
        /// Returns the lanes covered.
        ///
        /// # Safety
        ///
        /// As [`lane_pairs`], with `start + 2·N ≤ lanes`.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn block<C: Copy, const N: usize>(
            self,
            coef: &impl Fn(usize) -> C,
            two: &mut impl FnMut(*mut f64, *mut f64, C),
            one: &mut impl FnMut(*mut f64, *mut f64, usize),
        ) -> usize {
            let LaneWalk {
                p,
                runs,
                off,
                lanes,
                start,
            } = self;
            let coefs: [C; N] = std::array::from_fn(|j| coef(start + 2 * j));
            let last = (start + 2 * N + 1 == lanes).then_some(lanes - 1);
            runs.each(|i| {
                let mut row = i + start;
                while row < i + runs.run {
                    for (j, &c) in coefs.iter().enumerate() {
                        let k = row + 2 * j;
                        two(p.add(2 * k), p.add(2 * (k + off)), c);
                    }
                    if let Some(lane) = last {
                        let k = row + 2 * N;
                        one(p.add(2 * k), p.add(2 * (k + off)), lane);
                    }
                    row += lanes;
                }
            });
            2 * N + usize::from(last.is_some())
        }
    }

    /// The quad walk: `two` on every two-amplitude step of each run and
    /// its partners `oa`, `ob` and `oa + ob` later, `one` on an odd run's
    /// last amplitude, each handed the four pointers in 4×4 index order.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `p` is the interleaved view of the slab `runs` was
    /// built for by [`super::Slab::gate2`] or [`super::Slab::dense4`] from
    /// distinct checked masks, so the four rows of a quad are disjoint
    /// and inside the slab.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn quads(
        p: *mut f64,
        runs: Runs,
        oa: usize,
        ob: usize,
        mut two: impl FnMut([*mut f64; 4]),
        mut one: impl FnMut([*mut f64; 4]),
    ) {
        let (n, oa, ob) = (runs.run, 2 * oa, 2 * ob);
        let quad = |a: *mut f64| [a, a.add(oa), a.add(ob), a.add(oa + ob)];
        runs.each(|i| {
            let mut a = p.add(2 * i);
            let end = a.add(2 * (n & !1));
            while a < end {
                two(quad(a));
                a = a.add(4);
            }
            if n & 1 != 0 {
                one(quad(a));
            }
        });
    }

    /// Runs `step` on every adjacent-amplitude pair of a one-lane slab,
    /// one register per pair.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `amps` has even length (a one-lane slab of at least
    /// one qubit).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn adjacent(amps: &mut [Complex64], mut step: impl FnMut(__m256d) -> __m256d) {
        let p = amps.as_mut_ptr() as *mut f64;
        let mut i = 0;
        while i < amps.len() {
            let ptr = p.add(2 * i);
            _mm256_storeu_pd(ptr, step(_mm256_loadu_pd(ptr)));
            i += 2;
        }
    }

    // --- pair steps ----------------------------------------------------

    /// Rx pair step: `a0' = c·a0 + [s, −s]·swap(a1)` and symmetrically,
    /// the scalar `(c·a0.re + s·a1.im, c·a0.im − s·a1.re)` bit for bit.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `pa` and `pb` each valid for two amplitudes, not
    /// overlapping (a walk's run and partner pointers).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rx2(pa: *mut f64, pb: *mut f64, cv: __m256d, sv: __m256d) {
        let a0 = _mm256_loadu_pd(pa);
        let a1 = _mm256_loadu_pd(pb);
        let r0 = _mm256_add_pd(
            _mm256_mul_pd(cv, a0),
            _mm256_mul_pd(sv, _mm256_permute_pd(a1, 0b0101)),
        );
        let r1 = _mm256_add_pd(
            _mm256_mul_pd(cv, a1),
            _mm256_mul_pd(sv, _mm256_permute_pd(a0, 0b0101)),
        );
        _mm256_storeu_pd(pa, r0);
        _mm256_storeu_pd(pb, r1);
    }

    /// 128-bit [`rx2`].
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `pa` and `pb` each valid for one amplitude, distinct.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rx1(pa: *mut f64, pb: *mut f64, cv: __m128d, sv: __m128d) {
        let a0 = _mm_loadu_pd(pa);
        let a1 = _mm_loadu_pd(pb);
        let r0 = _mm_add_pd(
            _mm_mul_pd(cv, a0),
            _mm_mul_pd(sv, _mm_shuffle_pd(a1, a1, 0b01)),
        );
        let r1 = _mm_add_pd(
            _mm_mul_pd(cv, a1),
            _mm_mul_pd(sv, _mm_shuffle_pd(a0, a0, 0b01)),
        );
        _mm_storeu_pd(pa, r0);
        _mm_storeu_pd(pb, r1);
    }

    /// Ry pair step (all-real coefficients): `a0' = c·a0 + (−s)·a1`,
    /// `a1' = s·a0 + c·a1`, elementwise.
    ///
    /// # Safety
    ///
    /// As [`rx2`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ry2(pa: *mut f64, pb: *mut f64, cv: __m256d, nsv: __m256d, psv: __m256d) {
        let a0 = _mm256_loadu_pd(pa);
        let a1 = _mm256_loadu_pd(pb);
        let r0 = _mm256_add_pd(_mm256_mul_pd(cv, a0), _mm256_mul_pd(nsv, a1));
        let r1 = _mm256_add_pd(_mm256_mul_pd(psv, a0), _mm256_mul_pd(cv, a1));
        _mm256_storeu_pd(pa, r0);
        _mm256_storeu_pd(pb, r1);
    }

    /// 128-bit [`ry2`].
    ///
    /// # Safety
    ///
    /// As [`rx1`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ry1(pa: *mut f64, pb: *mut f64, cv: __m128d, nsv: __m128d, psv: __m128d) {
        let a0 = _mm_loadu_pd(pa);
        let a1 = _mm_loadu_pd(pb);
        let r0 = _mm_add_pd(_mm_mul_pd(cv, a0), _mm_mul_pd(nsv, a1));
        let r1 = _mm_add_pd(_mm_mul_pd(psv, a0), _mm_mul_pd(cv, a1));
        _mm_storeu_pd(pa, r0);
        _mm_storeu_pd(pb, r1);
    }

    // --- uniform kernels -----------------------------------------------

    /// Uniform X rotation.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_x(amps: &mut [Complex64], runs: Runs, off: usize, s: f64, c: f64) {
        let cv = _mm256_set1_pd(c);
        let sv = _mm256_setr_pd(s, -s, s, -s);
        if runs.adjacent(off) {
            // A full reverse of the in-register pair supplies both cross
            // terms.
            return adjacent(amps, |v| {
                let rev = _mm256_permute_pd(_mm256_permute2f128_pd(v, v, 0x01), 0b0101);
                _mm256_add_pd(_mm256_mul_pd(cv, v), _mm256_mul_pd(sv, rev))
            });
        }
        let (cv1, sv1) = (_mm256_castpd256_pd128(cv), _mm256_castpd256_pd128(sv));
        let p = amps.as_mut_ptr() as *mut f64;
        pairs(
            p,
            runs,
            off,
            |a, b| rx2(a, b, cv, sv),
            |a, b| rx1(a, b, cv1, sv1),
        );
    }

    /// Uniform Y rotation.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_y(amps: &mut [Complex64], runs: Runs, off: usize, s: f64, c: f64) {
        let cv = _mm256_set1_pd(c);
        if runs.adjacent(off) {
            // A cross-half swap pairs each amplitude with its partner.
            let sv = _mm256_setr_pd(-s, -s, s, s);
            return adjacent(amps, |v| {
                let cross = _mm256_permute2f128_pd(v, v, 0x01);
                _mm256_add_pd(_mm256_mul_pd(cv, v), _mm256_mul_pd(sv, cross))
            });
        }
        let (nsv, psv) = (_mm256_set1_pd(-s), _mm256_set1_pd(s));
        let (cv1, nsv1, psv1) = (
            _mm256_castpd256_pd128(cv),
            _mm256_castpd256_pd128(nsv),
            _mm256_castpd256_pd128(psv),
        );
        let p = amps.as_mut_ptr() as *mut f64;
        pairs(
            p,
            runs,
            off,
            |a, b| ry2(a, b, cv, nsv, psv),
            |a, b| ry1(a, b, cv1, nsv1, psv1),
        );
    }

    /// Uniform two-phase diagonal: `lo` on each run, `hi` on its partner.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn phase(
        amps: &mut [Complex64],
        runs: Runs,
        off: usize,
        lo: (f64, f64),
        hi: (f64, f64),
    ) {
        if runs.adjacent(off) {
            // Phases alternate per amplitude: `lo` on even, `hi` on odd.
            let m = (
                _mm256_setr_pd(lo.0, lo.0, hi.0, hi.0),
                _mm256_setr_pd(lo.1, lo.1, hi.1, hi.1),
            );
            return adjacent(amps, |v| cmul(m, v));
        }
        let mlo = splat(Complex64::new(lo.0, lo.1));
        let mhi = splat(Complex64::new(hi.0, hi.1));
        let p = amps.as_mut_ptr() as *mut f64;
        pairs(
            p,
            runs,
            off,
            |a, b| {
                _mm256_storeu_pd(a, cmul(mlo, _mm256_loadu_pd(a)));
                _mm256_storeu_pd(b, cmul(mhi, _mm256_loadu_pd(b)));
            },
            |a, b| {
                _mm_storeu_pd(a, cmul1(halve(mlo), _mm_loadu_pd(a)));
                _mm_storeu_pd(b, cmul1(halve(mhi), _mm_loadu_pd(b)));
            },
        );
    }

    /// Uniform generic 2×2.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gate1(amps: &mut [Complex64], runs: Runs, off: usize, gate: &Gate1) {
        let m = gate.matrix();
        if runs.adjacent(off) {
            // Duplicate each amplitude across both halves and combine the
            // matrix columns in-register: `m0`/`m1` pack column 0/1 as
            // [row0, row1].
            let m0 = _mm256_setr_pd(m[0][0].re, m[0][0].im, m[1][0].re, m[1][0].im);
            let m1 = _mm256_setr_pd(m[0][1].re, m[0][1].im, m[1][1].re, m[1][1].im);
            let m0s = (_mm256_movedup_pd(m0), _mm256_permute_pd(m0, 0b1111));
            let m1s = (_mm256_movedup_pd(m1), _mm256_permute_pd(m1, 0b1111));
            return adjacent(amps, |v| {
                let lo = _mm256_permute2f128_pd(v, v, 0x00);
                let hi = _mm256_permute2f128_pd(v, v, 0x11);
                _mm256_add_pd(cmul(m0s, lo), cmul(m1s, hi))
            });
        }
        let (m00, m01, m10, m11) = (
            splat(m[0][0]),
            splat(m[0][1]),
            splat(m[1][0]),
            splat(m[1][1]),
        );
        let p = amps.as_mut_ptr() as *mut f64;
        pairs(
            p,
            runs,
            off,
            |a, b| {
                let a0 = _mm256_loadu_pd(a);
                let a1 = _mm256_loadu_pd(b);
                _mm256_storeu_pd(a, _mm256_add_pd(cmul(m00, a0), cmul(m01, a1)));
                _mm256_storeu_pd(b, _mm256_add_pd(cmul(m10, a0), cmul(m11, a1)));
            },
            |a, b| {
                let a0 = _mm_loadu_pd(a);
                let a1 = _mm_loadu_pd(b);
                _mm_storeu_pd(a, _mm_add_pd(cmul1(halve(m00), a0), cmul1(halve(m01), a1)));
                _mm_storeu_pd(b, _mm_add_pd(cmul1(halve(m10), a0), cmul1(halve(m11), a1)));
            },
        );
    }

    /// Uniform two-qubit gate: each output accumulates `cmul` terms from
    /// a zero register in column order, the scalar `mul_acc` chain.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs`, `oa` and `ob` built by [`super::Slab::gate2`]
    /// for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gate2(
        amps: &mut [Complex64],
        runs: Runs,
        oa: usize,
        ob: usize,
        m: &[[Complex64; 4]; 4],
    ) {
        let ms = splat4(m);
        let p = amps.as_mut_ptr() as *mut f64;
        quads(
            p,
            runs,
            oa,
            ob,
            |q| {
                // All four rows load before any store.
                let x = [
                    _mm256_loadu_pd(q[0]),
                    _mm256_loadu_pd(q[1]),
                    _mm256_loadu_pd(q[2]),
                    _mm256_loadu_pd(q[3]),
                ];
                for (row, &out) in ms.iter().zip(&q) {
                    let mut acc = _mm256_setzero_pd();
                    for (&e, &xc) in row.iter().zip(&x) {
                        acc = _mm256_add_pd(cmul(e, xc), acc);
                    }
                    _mm256_storeu_pd(out, acc);
                }
            },
            |q| {
                let x = [
                    _mm_loadu_pd(q[0]),
                    _mm_loadu_pd(q[1]),
                    _mm_loadu_pd(q[2]),
                    _mm_loadu_pd(q[3]),
                ];
                for (row, &out) in ms.iter().zip(&q) {
                    let mut acc = _mm_setzero_pd();
                    for (&e, &xc) in row.iter().zip(&x) {
                        acc = _mm_add_pd(cmul1(halve(e), xc), acc);
                    }
                    _mm_storeu_pd(out, acc);
                }
            },
        );
    }

    /// The superoperator 4×4, with the scalar body's association
    /// `y_r = ((m_r0·x0 + m_r1·x1) + m_r2·x2) + m_r3·x3`.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs`, `oa` and `ob` built by
    /// [`super::Slab::dense4`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense4(
        amps: &mut [Complex64],
        runs: Runs,
        oa: usize,
        ob: usize,
        m: &[[Complex64; 4]; 4],
    ) {
        let ms = splat4(m);
        let p = amps.as_mut_ptr() as *mut f64;
        quads(
            p,
            runs,
            oa,
            ob,
            |q| {
                let x = [
                    _mm256_loadu_pd(q[0]),
                    _mm256_loadu_pd(q[1]),
                    _mm256_loadu_pd(q[2]),
                    _mm256_loadu_pd(q[3]),
                ];
                for (row, &out) in ms.iter().zip(&q) {
                    let y = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cmul(row[0], x[0]), cmul(row[1], x[1])),
                            cmul(row[2], x[2]),
                        ),
                        cmul(row[3], x[3]),
                    );
                    _mm256_storeu_pd(out, y);
                }
            },
            |q| {
                let x = [
                    _mm_loadu_pd(q[0]),
                    _mm_loadu_pd(q[1]),
                    _mm_loadu_pd(q[2]),
                    _mm_loadu_pd(q[3]),
                ];
                for (row, &out) in ms.iter().zip(&q) {
                    let y = _mm_add_pd(
                        _mm_add_pd(
                            _mm_add_pd(cmul1(halve(row[0]), x[0]), cmul1(halve(row[1]), x[1])),
                            cmul1(halve(row[2]), x[2]),
                        ),
                        cmul1(halve(row[3]), x[3]),
                    );
                    _mm_storeu_pd(out, y);
                }
            },
        );
    }

    /// CNOT: swaps each run with its partner.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cnot(amps: &mut [Complex64], runs: Runs, off: usize) {
        let p = amps.as_mut_ptr() as *mut f64;
        pairs(
            p,
            runs,
            off,
            |a, b| {
                let (x, y) = (_mm256_loadu_pd(a), _mm256_loadu_pd(b));
                _mm256_storeu_pd(a, y);
                _mm256_storeu_pd(b, x);
            },
            |a, b| {
                let (x, y) = (_mm_loadu_pd(a), _mm_loadu_pd(b));
                _mm_storeu_pd(a, y);
                _mm_storeu_pd(b, x);
            },
        );
    }

    /// CZ: negates each partner run (both bits set). Flipping the sign
    /// bit is the scalar negation exactly.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cz(amps: &mut [Complex64], runs: Runs, off: usize) {
        let sign = _mm256_set1_pd(-0.0);
        let p = amps.as_mut_ptr() as *mut f64;
        pairs(
            p,
            runs,
            off,
            |_, b| _mm256_storeu_pd(b, _mm256_xor_pd(_mm256_loadu_pd(b), sign)),
            |_, b| {
                let sign = _mm256_castpd256_pd128(sign);
                _mm_storeu_pd(b, _mm_xor_pd(_mm_loadu_pd(b), sign));
            },
        );
    }

    // --- per-lane kernels ----------------------------------------------

    /// Per-lane X rotation: lane `k` rotates by `trig[k]`.
    ///
    /// # Safety
    ///
    /// AVX2 enabled; `runs` and `off` built by [`super::Slab`] for `amps`,
    /// whose lane count `trig.len()` is (`trig` is slice-indexed, so a
    /// short table panics rather than reading out of bounds).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_x_lanes(
        amps: &mut [Complex64],
        runs: Runs,
        off: usize,
        trig: &[(f64, f64)],
    ) {
        let p = amps.as_mut_ptr() as *mut f64;
        lane_pairs(
            p,
            runs,
            off,
            trig.len(),
            |k| {
                let ((s0, c0), (s1, c1)) = (trig[k], trig[k + 1]);
                let cv = _mm256_set_pd(c1, c1, c0, c0);
                (cv, _mm256_set_pd(-s1, s1, -s0, s0))
            },
            |a, b, (cv, sv)| rx2(a, b, cv, sv),
            |a, b, k| {
                let (s, c) = trig[k];
                rx1(a, b, _mm_set1_pd(c), _mm_set_pd(-s, s));
            },
        );
    }

    /// Per-lane Y rotation; see [`rot_x_lanes`].
    ///
    /// # Safety
    ///
    /// As [`rot_x_lanes`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rot_y_lanes(
        amps: &mut [Complex64],
        runs: Runs,
        off: usize,
        trig: &[(f64, f64)],
    ) {
        let p = amps.as_mut_ptr() as *mut f64;
        lane_pairs(
            p,
            runs,
            off,
            trig.len(),
            |k| {
                let ((s0, c0), (s1, c1)) = (trig[k], trig[k + 1]);
                let cv = _mm256_set_pd(c1, c1, c0, c0);
                let nsv = _mm256_set_pd(-s1, -s1, -s0, -s0);
                (cv, nsv, _mm256_set_pd(s1, s1, s0, s0))
            },
            |a, b, (cv, nsv, psv)| ry2(a, b, cv, nsv, psv),
            |a, b, k| {
                let (s, c) = trig[k];
                ry1(a, b, _mm_set1_pd(c), _mm_set1_pd(-s), _mm_set1_pd(s));
            },
        );
    }

    /// Per-lane two-phase diagonal: lane `k` of each run takes `zlo[k]`,
    /// of its partner `zhi[k]`.
    ///
    /// # Safety
    ///
    /// As [`rot_x_lanes`], for both phase tables.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn phase_lanes(
        amps: &mut [Complex64],
        runs: Runs,
        off: usize,
        zlo: &[(f64, f64)],
        zhi: &[(f64, f64)],
    ) {
        /// Lanes `k` and `k + 1` of a phase table as a splat pair.
        ///
        /// # Safety
        ///
        /// Register-only; requires AVX2 (the caller is
        /// `#[target_feature]`). `z` is slice-indexed.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn two_phases(z: &[(f64, f64)], k: usize) -> Splat {
            let ((pr0, pi0), (pr1, pi1)) = (z[k], z[k + 1]);
            (
                _mm256_set_pd(pr1, pr1, pr0, pr0),
                _mm256_set_pd(pi1, pi1, pi0, pi0),
            )
        }
        let p = amps.as_mut_ptr() as *mut f64;
        lane_pairs(
            p,
            runs,
            off,
            zlo.len(),
            |k| (two_phases(zlo, k), two_phases(zhi, k)),
            |a, b, (lo, hi)| {
                _mm256_storeu_pd(a, cmul(lo, _mm256_loadu_pd(a)));
                _mm256_storeu_pd(b, cmul(hi, _mm256_loadu_pd(b)));
            },
            |a, b, k| {
                let one_phase = |(pr, pi): (f64, f64)| (_mm_set1_pd(pr), _mm_set1_pd(pi));
                _mm_storeu_pd(a, cmul1(one_phase(zlo[k]), _mm_loadu_pd(a)));
                _mm_storeu_pd(b, cmul1(one_phase(zhi[k]), _mm_loadu_pd(b)));
            },
        );
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
        // Lanes 1..=9 reach even and odd runs of every short length, and
        // one lane the in-register adjacent-pair path.
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
            assert_slab_parity("gate1", dim, lanes, |sl| {
                Slab::new(sl, lanes).gate1(2, 0, &g)
            });
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

    /// A naive per-lane reference: each kernel's documented per-element
    /// expression, applied index by index to one lane's statevector.
    mod naive {
        use crate::complex::Complex64;

        /// `(i0, i0 | mt)` for every target-clear, control-set `i0 < dim`.
        fn pairs(dim: usize, mt: usize, mc: usize) -> impl Iterator<Item = (usize, usize)> {
            (0..dim)
                .filter(move |i| i & mt == 0 && i & mc == mc)
                .map(move |i| (i, i | mt))
        }

        /// `[i, i|ma, i|mb, i|ma|mb]` for every both-clear `i < dim`.
        fn quads(dim: usize, ma: usize, mb: usize) -> impl Iterator<Item = [usize; 4]> {
            (0..dim)
                .filter(move |i| i & (ma | mb) == 0)
                .map(move |i| [i, i | ma, i | mb, i | ma | mb])
        }

        pub fn rot_x(v: &mut [Complex64], mt: usize, mc: usize, (s, c): (f64, f64)) {
            for (i0, i1) in pairs(v.len(), mt, mc) {
                let (a0, a1) = (v[i0], v[i1]);
                v[i0] = Complex64::new(c * a0.re + s * a1.im, c * a0.im - s * a1.re);
                v[i1] = Complex64::new(s * a0.im + c * a1.re, -s * a0.re + c * a1.im);
            }
        }

        pub fn rot_y(v: &mut [Complex64], mt: usize, mc: usize, (s, c): (f64, f64)) {
            for (i0, i1) in pairs(v.len(), mt, mc) {
                let (a0, a1) = (v[i0], v[i1]);
                v[i0] = Complex64::new(c * a0.re - s * a1.re, c * a0.im - s * a1.im);
                v[i1] = Complex64::new(s * a0.re + c * a1.re, s * a0.im + c * a1.im);
            }
        }

        pub fn phase(v: &mut [Complex64], mt: usize, mc: usize, lo: (f64, f64), hi: (f64, f64)) {
            let ph = |a: Complex64, (pr, pi): (f64, f64)| {
                Complex64::new(a.re * pr - a.im * pi, a.re * pi + a.im * pr)
            };
            for (i0, i1) in pairs(v.len(), mt, mc) {
                v[i0] = ph(v[i0], lo);
                v[i1] = ph(v[i1], hi);
            }
        }

        pub fn gate1(v: &mut [Complex64], mt: usize, mc: usize, m: &[[Complex64; 2]; 2]) {
            for (i0, i1) in pairs(v.len(), mt, mc) {
                let (a0, a1) = (v[i0], v[i1]);
                v[i0] = m[0][0] * a0 + m[0][1] * a1;
                v[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
        }

        /// The `mul_acc` chain from zero, in column order.
        pub fn gate2(v: &mut [Complex64], ma: usize, mb: usize, m: &[[Complex64; 4]; 4]) {
            for idx in quads(v.len(), ma, mb) {
                let x = idx.map(|i| v[i]);
                for (r, &out) in idx.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (col, &xc) in x.iter().enumerate() {
                        acc = m[r][col].mul_acc(xc, acc);
                    }
                    v[out] = acc;
                }
            }
        }

        /// `y_r = ((m_r0·x0 + m_r1·x1) + m_r2·x2) + m_r3·x3`.
        pub fn dense4(v: &mut [Complex64], ma: usize, mb: usize, m: &[[Complex64; 4]; 4]) {
            for idx in quads(v.len(), ma, mb) {
                let x = idx.map(|i| v[i]);
                for (r, &out) in idx.iter().enumerate() {
                    v[out] = ((m[r][0] * x[0] + m[r][1] * x[1]) + m[r][2] * x[2]) + m[r][3] * x[3];
                }
            }
        }

        pub fn cnot(v: &mut [Complex64], mc: usize, mt: usize) {
            for (i0, i1) in pairs(v.len(), mt, mc) {
                v.swap(i0, i1);
            }
        }

        pub fn cz(v: &mut [Complex64], ma: usize, mb: usize) {
            for (_, i1) in pairs(v.len(), mb, ma) {
                v[i1] = -v[i1];
            }
        }
    }

    #[test]
    fn slab_kernels_match_apply_kernels_per_lane() {
        // Every uniform and per-lane slab kernel, on every ordered
        // (target, control) pair of 1–6 qubits, at lane counts that run
        // the one-lane adjacent-pair path, even runs and odd-run
        // remainders, on both dispatch levels: each lane must equal the
        // naive per-lane reference bit for bit, and so must the `apply`
        // kernel run on that lane alone.
        use crate::apply::*;
        let (s, c) = (1.17_f64).sin_cos();
        let g = Gate1::u3(0.9, -0.4, 1.2);
        let g2 = Gate2::crx(0.83);
        let m4 = busy_mat4(0.3);
        let (lo, hi) = ((0.6, -0.8), (-0.28, 0.96));
        type SlabOp<'a> = Box<dyn Fn(&mut Slab<'_>) + 'a>;
        type LaneOp<'a> = Box<dyn Fn(&mut [Complex64], usize) + 'a>;
        for level in levels() {
            for n in 1..=6usize {
                let dim = 1usize << n;
                for lanes in [1usize, 2, 3, 5, 8, 33] {
                    let trig = lane_trig(lanes);
                    let zlo: Vec<(f64, f64)> = trig.iter().map(|&(s, c)| (c, -s)).collect();
                    let zhi: Vec<(f64, f64)> = trig.iter().map(|&(s, c)| (c, s)).collect();
                    let (trig, zlo, zhi) = (&trig, &zlo, &zhi);
                    // (label, slab kernel, naive reference on lane `l`,
                    // the `apply` kernel on lane `l` where one exists).
                    let mut cases: Vec<(String, SlabOp<'_>, LaneOp<'_>, Option<LaneOp<'_>>)> =
                        Vec::new();
                    for t in 0..n {
                        for ctl in std::iter::once(None).chain((0..n).filter(|&q| q != t).map(Some))
                        {
                            let (mt, mc) = (1usize << t, ctl.map_or(0, |q| 1usize << q));
                            cases.push((
                                format!("rx t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.rot(RotationAxis::X, mt, mc, s, c)),
                                Box::new(move |v, _| naive::rot_x(v, mt, mc, (s, c))),
                                Some(Box::new(move |a, _| match ctl {
                                    None => apply_rx_sc(a, t, s, c),
                                    Some(q) => apply_crx_sc(a, q, t, s, c),
                                })),
                            ));
                            cases.push((
                                format!("ry t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.rot(RotationAxis::Y, mt, mc, s, c)),
                                Box::new(move |v, _| naive::rot_y(v, mt, mc, (s, c))),
                                Some(Box::new(move |a, _| match ctl {
                                    None => apply_ry_sc(a, t, s, c),
                                    Some(q) => apply_cry_sc(a, q, t, s, c),
                                })),
                            ));
                            cases.push((
                                format!("rz t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.rot(RotationAxis::Z, mt, mc, s, c)),
                                Box::new(move |v, _| naive::phase(v, mt, mc, (c, -s), (c, s))),
                                Some(Box::new(move |a, _| match ctl {
                                    None => apply_rz_sc(a, t, s, c),
                                    Some(q) => apply_crz_sc(a, q, t, s, c),
                                })),
                            ));
                            cases.push((
                                format!("phase t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.phase(mt, mc, lo, hi)),
                                Box::new(move |v, _| naive::phase(v, mt, mc, lo, hi)),
                                Some(Box::new(move |a, _| apply_phases(a, ctl, t, lo, hi))),
                            ));
                            cases.push((
                                format!("rx lanes t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.rot_x_lanes(mt, mc, trig)),
                                Box::new(move |v, l| naive::rot_x(v, mt, mc, trig[l])),
                                None,
                            ));
                            cases.push((
                                format!("ry lanes t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.rot_y_lanes(mt, mc, trig)),
                                Box::new(move |v, l| naive::rot_y(v, mt, mc, trig[l])),
                                None,
                            ));
                            cases.push((
                                format!("phase lanes t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.phase_lanes(mt, mc, zlo, zhi)),
                                Box::new(move |v, l| naive::phase(v, mt, mc, zlo[l], zhi[l])),
                                None,
                            ));
                            cases.push((
                                format!("gate1 t={t} c={ctl:?}"),
                                Box::new(move |sl| sl.gate1(mt, mc, &g)),
                                Box::new(move |v, _| naive::gate1(v, mt, mc, g.matrix())),
                                Some(Box::new(move |a, _| match ctl {
                                    None => apply_gate1(a, t, &g),
                                    Some(q) => apply_controlled_gate1(a, q, t, &g),
                                })),
                            ));
                            let Some(q) = ctl else {
                                continue;
                            };
                            let g2 = &g2;
                            let m4 = &m4;
                            cases.push((
                                format!("gate2 {q},{t}"),
                                Box::new(move |sl| sl.gate2(mc, mt, g2)),
                                Box::new(move |v, _| naive::gate2(v, mc, mt, g2.matrix())),
                                Some(Box::new(move |a, _| apply_gate2(a, q, t, g2))),
                            ));
                            cases.push((
                                format!("dense4 {q},{t}"),
                                Box::new(move |sl| sl.dense4(mc, mt, m4)),
                                Box::new(move |v, _| naive::dense4(v, mc, mt, m4)),
                                None,
                            ));
                            cases.push((
                                format!("cnot {q}->{t}"),
                                Box::new(move |sl| sl.cnot(mc, mt)),
                                Box::new(move |v, _| naive::cnot(v, mc, mt)),
                                Some(Box::new(move |a, _| apply_cnot(a, q, t))),
                            ));
                            cases.push((
                                format!("cz {q},{t}"),
                                Box::new(move |sl| sl.cz(mc, mt)),
                                Box::new(move |v, _| naive::cz(v, mc, mt)),
                                Some(Box::new(move |a, _| apply_cz(a, q, t))),
                            ));
                        }
                    }
                    let base = busy_row(dim * lanes, 0.9);
                    for (label, on_slab, reference, on_lane) in &cases {
                        let at = format!("{label}: n={n}, lanes={lanes}, {level:?}");
                        simd::force(level);
                        let mut got = base.clone();
                        on_slab(&mut Slab::new(&mut got, lanes));
                        for lane in 0..lanes {
                            let extract = |v: &[Complex64]| -> Vec<Complex64> {
                                (0..dim).map(|i| v[i * lanes + lane]).collect()
                            };
                            let mut want = extract(&base);
                            reference(&mut want, lane);
                            assert_eq!(extract(&got), want, "{at}: lane {lane}");
                            if let Some(on_lane) = on_lane {
                                let mut alone = extract(&base);
                                on_lane(&mut alone, lane);
                                assert_eq!(alone, want, "{at}: apply kernel, lane {lane}");
                            }
                        }
                        simd::force(SimdLevel::Scalar);
                    }
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
        // A two-row slab runs one run pair of `n` lanes; it must agree
        // with the one-lane kernel on each lane's 1-qubit state.
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
