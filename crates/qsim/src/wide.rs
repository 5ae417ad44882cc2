//! AVX2 implementations of the gate kernels (internal, `x86_64` only).
//!
//! Each function is the wide twin of a scalar kernel in [`crate::apply`]
//! and is **bit-identical** to it by construction: the same expression is
//! evaluated per element in the same association order, with separate
//! multiply and add instructions (no FMA contraction), relying only on
//! IEEE-754 identities the scalar code already uses (`x·(−s) ≡ −(x·s)`,
//! `a + (−t) ≡ a − t`, commutativity of `+`/`·`). See [`crate::simd`].
//!
//! `Complex64` is `#[repr(C)] { re, im }`, so an amplitude slice is viewed
//! as an interleaved `f64` buffer `[re0, im0, re1, im1, …]`: one 256-bit
//! register holds two adjacent amplitudes, one 128-bit register holds one.
//! Pair kernels iterate contiguous runs produced by direct block
//! enumeration (no skip-scan); a run of odd length ends with a 128-bit
//! step, so every `(control, target)` combination — including stride-1
//! wires — stays on the vector path.
//!
//! # Safety
//!
//! Every function requires AVX2 (they are only reachable through
//! [`crate::simd::level`], which verifies support at runtime) and valid,
//! distinct, in-range qubit masks (asserted at entry — the pointers handed
//! to the step helpers are derived from those masks).

use core::arch::x86_64::*;

use crate::complex::Complex64;
use crate::gate::{Gate1, Gate2};

/// Splats one complex coefficient into broadcast (re, im) registers.
///
/// # Safety
///
/// Register-only (no memory access); `unsafe` solely because AVX2 must
/// be enabled, which every caller guarantees by being `#[target_feature
/// (enable = "avx2")]` itself and reachable only via [`crate::simd::level`].
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn splat(m: Complex64) -> (__m256d, __m256d) {
    (_mm256_set1_pd(m.re), _mm256_set1_pd(m.im))
}

/// Low halves of a splat pair, for 128-bit remainder steps.
///
/// # Safety
///
/// Register-only cast; requires AVX2 to be enabled (guaranteed by the
/// `#[target_feature]` callers), nothing else.
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn halve(m: (__m256d, __m256d)) -> (__m128d, __m128d) {
    (_mm256_castpd256_pd128(m.0), _mm256_castpd256_pd128(m.1))
}

/// `m · v` for two packed complexes, coefficient pre-splat as `(re, im)`:
/// `addsub(re·v, im·swap(v))` reproduces the scalar
/// `(m.re·v.re − m.im·v.im, m.re·v.im + m.im·v.re)` bit for bit.
///
/// # Safety
///
/// Register-only arithmetic; requires AVX2 to be enabled (guaranteed by
/// the `#[target_feature]` callers), nothing else.
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn cmul(m: (__m256d, __m256d), v: __m256d) -> __m256d {
    let t1 = _mm256_mul_pd(m.0, v);
    let t2 = _mm256_mul_pd(m.1, _mm256_permute_pd(v, 0b0101));
    _mm256_addsub_pd(t1, t2)
}

/// 128-bit [`cmul`], for run remainders.
///
/// # Safety
///
/// Register-only arithmetic; requires AVX2 to be enabled (guaranteed by
/// the `#[target_feature]` callers), nothing else.
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn cmul1(m: (__m128d, __m128d), v: __m128d) -> __m128d {
    let t1 = _mm_mul_pd(m.0, v);
    let t2 = _mm_mul_pd(m.1, _mm_shuffle_pd(v, v, 0b01));
    _mm_addsub_pd(t1, t2)
}

/// Generic 2×2 update of two 2-amplitude rows:
/// `a0' = m00·a0 + m01·a1`, `a1' = m10·a0 + m11·a1`.
///
/// # Safety
///
/// `p` must point into a live interleaved amplitude buffer valid for
/// reads and writes of `f64`s `[2·i0, 2·i0+4)` and `[2·i1, 2·i1+4)`
/// (two amplitudes per row), with `{i0, i0+1} ∩ {i1, i1+1} = ∅` so the
/// two load/store pairs never overlap. Callers derive `i1 = i0 + stride`
/// or `i0 | mt` with `stride/mt ≥ 2` on this path, which guarantees
/// disjointness. AVX2 must be enabled (callers are `#[target_feature]`).
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn g1_step(
    p: *mut f64,
    i0: usize,
    i1: usize,
    m00: (__m256d, __m256d),
    m01: (__m256d, __m256d),
    m10: (__m256d, __m256d),
    m11: (__m256d, __m256d),
) {
    let pa = p.add(2 * i0);
    let pb = p.add(2 * i1);
    let a0 = _mm256_loadu_pd(pa);
    let a1 = _mm256_loadu_pd(pb);
    let r0 = _mm256_add_pd(cmul(m00, a0), cmul(m01, a1));
    let r1 = _mm256_add_pd(cmul(m10, a0), cmul(m11, a1));
    _mm256_storeu_pd(pa, r0);
    _mm256_storeu_pd(pb, r1);
}

/// 128-bit [`g1_step`] (one amplitude per row).
///
/// # Safety
///
/// `p` must be valid for reads and writes of `f64`s `[2·i0, 2·i0+2)`
/// and `[2·i1, 2·i1+2)` with `i0 ≠ i1`. AVX2 must be enabled (callers
/// are `#[target_feature]`).
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn g1_step1(
    p: *mut f64,
    i0: usize,
    i1: usize,
    m00: (__m128d, __m128d),
    m01: (__m128d, __m128d),
    m10: (__m128d, __m128d),
    m11: (__m128d, __m128d),
) {
    let pa = p.add(2 * i0);
    let pb = p.add(2 * i1);
    let a0 = _mm_loadu_pd(pa);
    let a1 = _mm_loadu_pd(pb);
    let r0 = _mm_add_pd(cmul1(m00, a0), cmul1(m01, a1));
    let r1 = _mm_add_pd(cmul1(m10, a0), cmul1(m11, a1));
    _mm_storeu_pd(pa, r0);
    _mm_storeu_pd(pb, r1);
}

/// Rx pair update: `a0' = c·a0 + [s,−s]·swap(a1)` and symmetrically,
/// matching the scalar `(c·a0.re + s·a1.im, c·a0.im − s·a1.re)` form.
///
/// # Safety
///
/// Same contract as [`g1_step`]: `p` valid for reads/writes of two
/// amplitudes at `i0` and two at `i1`, rows disjoint, AVX2 enabled.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn rx_step(p: *mut f64, i0: usize, i1: usize, cv: __m256d, sv: __m256d) {
    let pa = p.add(2 * i0);
    let pb = p.add(2 * i1);
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

/// 128-bit [`rx_step`].
///
/// # Safety
///
/// Same contract as [`g1_step1`]: one amplitude at `i0`, one at `i1`,
/// `i0 ≠ i1`, AVX2 enabled.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn rx_step1(p: *mut f64, i0: usize, i1: usize, cv: __m128d, sv: __m128d) {
    let pa = p.add(2 * i0);
    let pb = p.add(2 * i1);
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

/// Ry pair update (purely real matrix): `a0' = c·a0 + (−s)·a1`,
/// `a1' = s·a0 + c·a1`, elementwise.
///
/// # Safety
///
/// Same contract as [`g1_step`]: `p` valid for reads/writes of two
/// amplitudes at `i0` and two at `i1`, rows disjoint, AVX2 enabled.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn ry_step(p: *mut f64, i0: usize, i1: usize, cv: __m256d, nsv: __m256d, psv: __m256d) {
    let pa = p.add(2 * i0);
    let pb = p.add(2 * i1);
    let a0 = _mm256_loadu_pd(pa);
    let a1 = _mm256_loadu_pd(pb);
    let r0 = _mm256_add_pd(_mm256_mul_pd(cv, a0), _mm256_mul_pd(nsv, a1));
    let r1 = _mm256_add_pd(_mm256_mul_pd(psv, a0), _mm256_mul_pd(cv, a1));
    _mm256_storeu_pd(pa, r0);
    _mm256_storeu_pd(pb, r1);
}

/// 128-bit [`ry_step`].
///
/// # Safety
///
/// Same contract as [`g1_step1`]: one amplitude at `i0`, one at `i1`,
/// `i0 ≠ i1`, AVX2 enabled.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn ry_step1(p: *mut f64, i0: usize, i1: usize, cv: __m128d, nsv: __m128d, psv: __m128d) {
    let pa = p.add(2 * i0);
    let pb = p.add(2 * i1);
    let a0 = _mm_loadu_pd(pa);
    let a1 = _mm_loadu_pd(pb);
    let r0 = _mm_add_pd(_mm_mul_pd(cv, a0), _mm_mul_pd(nsv, a1));
    let r1 = _mm_add_pd(_mm_mul_pd(psv, a0), _mm_mul_pd(cv, a1));
    _mm_storeu_pd(pa, r0);
    _mm_storeu_pd(pb, r1);
}

/// Diagonal phase over a contiguous run of `count` amplitudes:
/// `a' = pr·a + [−pi, pi]·swap(a)`, which is the scalar
/// `(a.re·pr − a.im·pi, a.re·pi + a.im·pr)` bit for bit. `mv` carries the
/// `[−pi, pi]` pattern per amplitude.
///
/// # Safety
///
/// `p` must be valid for reads and writes of `f64`s
/// `[2·start, 2·(start+count))` — the whole run, including the odd
/// 128-bit remainder. In-place diagonal update, so no aliasing concern
/// beyond the run itself. AVX2 enabled (callers are `#[target_feature]`).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn phase_run(p: *mut f64, start: usize, count: usize, prv: __m256d, mv: __m256d) {
    let mut i = start;
    while i + 1 < start + count {
        let ptr = p.add(2 * i);
        let v = _mm256_loadu_pd(ptr);
        let r = _mm256_add_pd(
            _mm256_mul_pd(prv, v),
            _mm256_mul_pd(mv, _mm256_permute_pd(v, 0b0101)),
        );
        _mm256_storeu_pd(ptr, r);
        i += 2;
    }
    if i < start + count {
        let ptr = p.add(2 * i);
        let v = _mm_loadu_pd(ptr);
        let r = _mm_add_pd(
            _mm_mul_pd(_mm256_castpd256_pd128(prv), v),
            _mm_mul_pd(_mm256_castpd256_pd128(mv), _mm_shuffle_pd(v, v, 0b01)),
        );
        _mm_storeu_pd(ptr, r);
    }
}

/// Generic single-qubit gate over qubit `q`.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gate1(amps: &mut [Complex64], q: usize, gate: &Gate1) {
    let len = amps.len();
    let stride = 1usize << q;
    assert!(stride < len, "qubit {q} out of range for {len} amplitudes");
    let m = gate.matrix();
    let p = amps.as_mut_ptr() as *mut f64;
    if stride == 1 {
        // One register holds the whole (a0, a1) pair: duplicate each
        // amplitude across both halves and combine matrix columns
        // in-register. `m0`/`m1` pack column 0/1 as [row0, row1].
        let m0 = _mm256_setr_pd(m[0][0].re, m[0][0].im, m[1][0].re, m[1][0].im);
        let m1 = _mm256_setr_pd(m[0][1].re, m[0][1].im, m[1][1].re, m[1][1].im);
        let m0s = (_mm256_movedup_pd(m0), _mm256_permute_pd(m0, 0b1111));
        let m1s = (_mm256_movedup_pd(m1), _mm256_permute_pd(m1, 0b1111));
        let mut i = 0;
        while i < len {
            let ptr = p.add(2 * i);
            let v = _mm256_loadu_pd(ptr);
            let lo = _mm256_permute2f128_pd(v, v, 0x00);
            let hi = _mm256_permute2f128_pd(v, v, 0x11);
            let r = _mm256_add_pd(cmul(m0s, lo), cmul(m1s, hi));
            _mm256_storeu_pd(ptr, r);
            i += 2;
        }
    } else {
        let (m00, m01, m10, m11) = (
            splat(m[0][0]),
            splat(m[0][1]),
            splat(m[1][0]),
            splat(m[1][1]),
        );
        let mut base = 0;
        while base < len {
            let mut i0 = base;
            while i0 < base + stride {
                g1_step(p, i0, i0 + stride, m00, m01, m10, m11);
                i0 += 2;
            }
            base += stride << 1;
        }
    }
}

/// Generic two-qubit gate; direct block enumeration over `(qa, qb)`-clear
/// indices, runs of the smaller stride.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gate2(amps: &mut [Complex64], qa: usize, qb: usize, gate: &Gate2) {
    let len = amps.len();
    let ma = 1usize << qa;
    let mb = 1usize << qb;
    assert!(ma < len && mb < len && ma != mb, "bad wires ({qa}, {qb})");
    let m = gate.matrix();
    let p = amps.as_mut_ptr() as *mut f64;
    let lo = ma.min(mb);
    let hi = ma.max(mb);
    let mut ms = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 4]; 4];
    for (r, row) in m.iter().enumerate() {
        for (c, &e) in row.iter().enumerate() {
            ms[r][c] = splat(e);
        }
    }
    let mut a = 0;
    while a < len {
        let mut b = a;
        while b < a + hi {
            let mut i = b;
            while i + 1 < b + lo {
                g2_step(p, i, ma, mb, &ms);
                i += 2;
            }
            if i < b + lo {
                g2_step1(p, i, ma, mb, &ms);
            }
            b += lo << 1;
        }
        a += hi << 1;
    }
}

/// One 2-amplitude chunk of a 4×4 update; all four rows are loaded before
/// any store, and each row accumulates from a zero register in column
/// order, matching the scalar `mul_acc` chain exactly.
///
/// # Safety
///
/// `p` must be valid for reads and writes of two amplitudes at each of
/// the four row indices `i00`, `i00|ma`, `i00|mb`, `i00|ma|mb`, which
/// must be pairwise disjoint as 2-amplitude rows — callers pass `i00`
/// with both wire bits clear and `ma ≠ mb` both ≥ 2 on this path (the
/// lane-1 remainders use [`g2_step1`]). All rows are loaded before any
/// store, so in-place update is sound. AVX2 enabled.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn g2_step(
    p: *mut f64,
    i00: usize,
    ma: usize,
    mb: usize,
    ms: &[[(__m256d, __m256d); 4]; 4],
) {
    let idx = [i00, i00 | ma, i00 | mb, i00 | ma | mb];
    let v = [
        _mm256_loadu_pd(p.add(2 * idx[0])),
        _mm256_loadu_pd(p.add(2 * idx[1])),
        _mm256_loadu_pd(p.add(2 * idx[2])),
        _mm256_loadu_pd(p.add(2 * idx[3])),
    ];
    for (row, &out) in idx.iter().enumerate() {
        let mut acc = _mm256_setzero_pd();
        for (col, &vc) in v.iter().enumerate() {
            acc = _mm256_add_pd(cmul(ms[row][col], vc), acc);
        }
        _mm256_storeu_pd(p.add(2 * out), acc);
    }
}

/// 128-bit [`g2_step`] (run remainder).
///
/// # Safety
///
/// Same as [`g2_step`] with single-amplitude rows: `p` valid for one
/// amplitude at each of the four distinct indices. AVX2 enabled.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn g2_step1(
    p: *mut f64,
    i00: usize,
    ma: usize,
    mb: usize,
    ms: &[[(__m256d, __m256d); 4]; 4],
) {
    let idx = [i00, i00 | ma, i00 | mb, i00 | ma | mb];
    let v = [
        _mm_loadu_pd(p.add(2 * idx[0])),
        _mm_loadu_pd(p.add(2 * idx[1])),
        _mm_loadu_pd(p.add(2 * idx[2])),
        _mm_loadu_pd(p.add(2 * idx[3])),
    ];
    for (row, &out) in idx.iter().enumerate() {
        let mut acc = _mm_setzero_pd();
        for (col, &vc) in v.iter().enumerate() {
            acc = _mm_add_pd(cmul1(halve(ms[row][col]), vc), acc);
        }
        _mm_storeu_pd(p.add(2 * out), acc);
    }
}

/// Controlled single-qubit gate: direct enumeration over
/// (control = 1, target = 0) indices.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn controlled_gate1(
    amps: &mut [Complex64],
    control: usize,
    target: usize,
    gate: &Gate1,
) {
    let len = amps.len();
    let mc = 1usize << control;
    let mt = 1usize << target;
    assert!(
        mc < len && mt < len && mc != mt,
        "bad wires ({control}, {target})"
    );
    let m = gate.matrix();
    let p = amps.as_mut_ptr() as *mut f64;
    let lo = mc.min(mt);
    let hi = mc.max(mt);
    let (m00, m01, m10, m11) = (
        splat(m[0][0]),
        splat(m[0][1]),
        splat(m[1][0]),
        splat(m[1][1]),
    );
    let mut a = 0;
    while a < len {
        let mut b = a;
        while b < a + hi {
            let mut i = b;
            while i + 1 < b + lo {
                let i0 = i | mc;
                g1_step(p, i0, i0 | mt, m00, m01, m10, m11);
                i += 2;
            }
            if i < b + lo {
                let i0 = i | mc;
                g1_step1(
                    p,
                    i0,
                    i0 | mt,
                    halve(m00),
                    halve(m01),
                    halve(m10),
                    halve(m11),
                );
            }
            b += lo << 1;
        }
        a += hi << 1;
    }
}

/// Rx rotation with precomputed `(sin, cos)` of the half angle.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn rx_sc(amps: &mut [Complex64], q: usize, s: f64, c: f64) {
    let len = amps.len();
    let stride = 1usize << q;
    assert!(stride < len, "qubit {q} out of range for {len} amplitudes");
    let p = amps.as_mut_ptr() as *mut f64;
    let cv = _mm256_set1_pd(c);
    let sv = _mm256_setr_pd(s, -s, s, -s);
    if stride == 1 {
        // Full reverse of the in-register pair supplies both cross terms.
        let mut i = 0;
        while i < len {
            let ptr = p.add(2 * i);
            let v = _mm256_loadu_pd(ptr);
            let rev = _mm256_permute_pd(_mm256_permute2f128_pd(v, v, 0x01), 0b0101);
            let r = _mm256_add_pd(_mm256_mul_pd(cv, v), _mm256_mul_pd(sv, rev));
            _mm256_storeu_pd(ptr, r);
            i += 2;
        }
    } else {
        let mut base = 0;
        while base < len {
            let mut i0 = base;
            while i0 < base + stride {
                rx_step(p, i0, i0 + stride, cv, sv);
                i0 += 2;
            }
            base += stride << 1;
        }
    }
}

/// Ry rotation with precomputed `(sin, cos)` of the half angle.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn ry_sc(amps: &mut [Complex64], q: usize, s: f64, c: f64) {
    let len = amps.len();
    let stride = 1usize << q;
    assert!(stride < len, "qubit {q} out of range for {len} amplitudes");
    let p = amps.as_mut_ptr() as *mut f64;
    let cv = _mm256_set1_pd(c);
    if stride == 1 {
        // Cross-half swap pairs each amplitude with its partner.
        let sv = _mm256_setr_pd(-s, -s, s, s);
        let mut i = 0;
        while i < len {
            let ptr = p.add(2 * i);
            let v = _mm256_loadu_pd(ptr);
            let cross = _mm256_permute2f128_pd(v, v, 0x01);
            let r = _mm256_add_pd(_mm256_mul_pd(cv, v), _mm256_mul_pd(sv, cross));
            _mm256_storeu_pd(ptr, r);
            i += 2;
        }
    } else {
        let nsv = _mm256_set1_pd(-s);
        let psv = _mm256_set1_pd(s);
        let mut base = 0;
        while base < len {
            let mut i0 = base;
            while i0 < base + stride {
                ry_step(p, i0, i0 + stride, cv, nsv, psv);
                i0 += 2;
            }
            base += stride << 1;
        }
    }
}

/// Controlled Rx with precomputed trig.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn crx_sc(amps: &mut [Complex64], control: usize, target: usize, s: f64, c: f64) {
    let len = amps.len();
    let mc = 1usize << control;
    let mt = 1usize << target;
    assert!(
        mc < len && mt < len && mc != mt,
        "bad wires ({control}, {target})"
    );
    let p = amps.as_mut_ptr() as *mut f64;
    let lo = mc.min(mt);
    let hi = mc.max(mt);
    let cv = _mm256_set1_pd(c);
    let sv = _mm256_setr_pd(s, -s, s, -s);
    let cv1 = _mm256_castpd256_pd128(cv);
    let sv1 = _mm256_castpd256_pd128(sv);
    let mut a = 0;
    while a < len {
        let mut b = a;
        while b < a + hi {
            let mut i = b;
            while i + 1 < b + lo {
                let i0 = i | mc;
                rx_step(p, i0, i0 | mt, cv, sv);
                i += 2;
            }
            if i < b + lo {
                let i0 = i | mc;
                rx_step1(p, i0, i0 | mt, cv1, sv1);
            }
            b += lo << 1;
        }
        a += hi << 1;
    }
}

/// Controlled Ry with precomputed trig.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every pointer handed
/// to the step helpers is derived from those asserted masks, so it
/// stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn cry_sc(amps: &mut [Complex64], control: usize, target: usize, s: f64, c: f64) {
    let len = amps.len();
    let mc = 1usize << control;
    let mt = 1usize << target;
    assert!(
        mc < len && mt < len && mc != mt,
        "bad wires ({control}, {target})"
    );
    let p = amps.as_mut_ptr() as *mut f64;
    let lo = mc.min(mt);
    let hi = mc.max(mt);
    let cv = _mm256_set1_pd(c);
    let nsv = _mm256_set1_pd(-s);
    let psv = _mm256_set1_pd(s);
    let mut a = 0;
    while a < len {
        let mut b = a;
        while b < a + hi {
            let mut i = b;
            while i + 1 < b + lo {
                let i0 = i | mc;
                ry_step(p, i0, i0 | mt, cv, nsv, psv);
                i += 2;
            }
            if i < b + lo {
                let i0 = i | mc;
                ry_step1(
                    p,
                    i0,
                    i0 | mt,
                    _mm256_castpd256_pd128(cv),
                    _mm256_castpd256_pd128(nsv),
                    _mm256_castpd256_pd128(psv),
                );
            }
            b += lo << 1;
        }
        a += hi << 1;
    }
}

/// Diagonal two-phase update (the kernel behind Rz): phase `lo` on
/// target-clear and `hi` on target-set amplitudes. `mv` registers carry
/// the `[−pi, pi]` pattern per amplitude.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// The wire mask is asserted in range at entry, and every run handed to
/// [`phase_run`] is derived from it, so it stays within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn phases(amps: &mut [Complex64], target: usize, lo: (f64, f64), hi: (f64, f64)) {
    let len = amps.len();
    let stride = 1usize << target;
    assert!(
        stride < len,
        "qubit {target} out of range for {len} amplitudes"
    );
    let p = amps.as_mut_ptr() as *mut f64;
    if stride == 1 {
        // Phases alternate per amplitude: `lo` on even, `hi` on odd.
        let prv = _mm256_setr_pd(lo.0, lo.0, hi.0, hi.0);
        let mv = _mm256_setr_pd(-lo.1, lo.1, -hi.1, hi.1);
        phase_run(p, 0, len, prv, mv);
    } else {
        let (prv0, mv0) = (
            _mm256_set1_pd(lo.0),
            _mm256_setr_pd(-lo.1, lo.1, -lo.1, lo.1),
        );
        let (prv1, mv1) = (
            _mm256_set1_pd(hi.0),
            _mm256_setr_pd(-hi.1, hi.1, -hi.1, hi.1),
        );
        let mut base = 0;
        while base < len {
            phase_run(p, base, stride, prv0, mv0);
            phase_run(p, base + stride, stride, prv1, mv1);
            base += stride << 1;
        }
    }
}

/// Controlled [`phases`] (the kernel behind CRz): `lo` on the
/// (control = 1, target = 0) runs, `hi` on their partners.
///
/// # Safety
///
/// The CPU must support AVX2 — callers reach this only through the
/// [`crate::simd::level`] dispatch, which verifies support at runtime.
/// Wire masks are asserted in range at entry, and every run handed to
/// [`phase_run`] is derived from those asserted masks, so it stays
/// within `amps`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn controlled_phases(
    amps: &mut [Complex64],
    control: usize,
    target: usize,
    lo: (f64, f64),
    hi: (f64, f64),
) {
    let len = amps.len();
    let mc = 1usize << control;
    let mt = 1usize << target;
    assert!(
        mc < len && mt < len && mc != mt,
        "bad wires ({control}, {target})"
    );
    let p = amps.as_mut_ptr() as *mut f64;
    let lo_mask = mc.min(mt);
    let hi_mask = mc.max(mt);
    let (prv0, mv0) = (
        _mm256_set1_pd(lo.0),
        _mm256_setr_pd(-lo.1, lo.1, -lo.1, lo.1),
    );
    let (prv1, mv1) = (
        _mm256_set1_pd(hi.0),
        _mm256_setr_pd(-hi.1, hi.1, -hi.1, hi.1),
    );
    let mut a = 0;
    while a < len {
        let mut b = a;
        while b < a + hi_mask {
            // Runs may not start 2-aligned relative to each other, so hand
            // whole runs to phase_run (it handles remainders).
            let i0 = b | mc;
            phase_run(p, i0, lo_mask, prv0, mv0);
            phase_run(p, i0 | mt, lo_mask, prv1, mv1);
            b += lo_mask << 1;
        }
        a += hi_mask << 1;
    }
}
