//! Gate application by wire index over one statevector's amplitudes.
//!
//! These free functions are the wire-index face of the gate kernels in
//! [`crate::rows`]: each views its amplitude slice as a one-lane
//! [`Slab`] and makes one call into it, so a single state and a lane slab
//! run the same scalar or AVX2 body (see [`crate::simd`] for the dispatch
//! and the bit-exactness contract). They take `&mut [Complex64]` rather
//! than a state type so that both the statevector backend
//! ([`crate::state::StateVector`]) and the density-matrix backend
//! ([`crate::density::DensityMatrix`], which applies gates row-wise and
//! column-wise) can share them.
//!
//! All functions assume the **little-endian** qubit convention described
//! in [`crate::gate`]: qubit `q` is bit `q` of the basis index. Wire
//! indices are checked in every build profile: a wire outside the
//! register (including `q ≥ usize::BITS`) panics instead of wrapping its
//! shift onto another wire. Toffoli, which no slab executor runs, keeps
//! its own block loop here.

use crate::complex::Complex64;
use crate::gate::{Gate1, Gate2, RotationAxis};
use crate::rows::{wire_mask, Slab};

/// The checked masks of wires `a` and `b` in `amps`.
#[inline]
fn masks(amps: &[Complex64], a: usize, b: usize) -> (usize, usize) {
    (wire_mask(a, amps.len()), wire_mask(b, amps.len()))
}

/// Visits every basis index `i < len` with bits `m0 < m1 < m2` (powers of
/// two) all clear, in ascending order.
#[inline]
fn for_each_clear3(len: usize, m0: usize, m1: usize, m2: usize, mut f: impl FnMut(usize)) {
    debug_assert!(m0 < m1 && m1 < m2);
    let mut a = 0;
    while a < len {
        let mut b = a;
        while b < a + m2 {
            let mut c = b;
            while c < b + m1 {
                for i in c..c + m0 {
                    f(i);
                }
                c += m0 << 1;
            }
            b += m1 << 1;
        }
        a += m2 << 1;
    }
}

/// Applies a single-qubit gate to qubit `q` of an amplitude vector.
///
/// # Panics
///
/// Unless `amps.len()` is a power of two and `q` indexes a bit below it.
#[inline]
pub fn apply_gate1(amps: &mut [Complex64], q: usize, gate: &Gate1) {
    let mt = wire_mask(q, amps.len());
    Slab::new(amps, 1).gate1(mt, 0, gate);
}

/// Applies a two-qubit gate to qubits `(qa, qb)` of an amplitude vector.
///
/// `qa` contributes **bit 0** and `qb` **bit 1** of the 2-bit index into
/// the gate's 4×4 matrix, matching [`Gate2`]'s documented convention (for
/// [`Gate2::cnot`], `qa` is the control and `qb` the target). Each output
/// amplitude rebuilds through a `mul_acc` chain from zero in column order.
#[inline]
pub fn apply_gate2(amps: &mut [Complex64], qa: usize, qb: usize, gate: &Gate2) {
    let (ma, mb) = masks(amps, qa, qb);
    Slab::new(amps, 1).gate2(ma, mb, gate);
}

/// Applies a single-qubit gate to `target`, conditioned on `control` being
/// `|1⟩`, without building the 4×4 matrix.
#[inline]
pub fn apply_controlled_gate1(amps: &mut [Complex64], control: usize, target: usize, gate: &Gate1) {
    let (mc, mt) = masks(amps, control, target);
    Slab::new(amps, 1).gate1(mt, mc, gate);
}

/// Toffoli (CCX) fast path: swaps amplitude pairs where **both** control
/// bits are set.
pub fn apply_toffoli(amps: &mut [Complex64], control1: usize, control2: usize, target: usize) {
    let len = amps.len();
    assert!(
        control1 != control2 && control1 != target && control2 != target,
        "Toffoli needs three distinct wires"
    );
    let mut masks = [
        wire_mask(control1, len),
        wire_mask(control2, len),
        wire_mask(target, len),
    ];
    let (mc, mt) = (masks[0] | masks[1], masks[2]);
    masks.sort_unstable();
    for_each_clear3(len, masks[0], masks[1], masks[2], |i| {
        let i0 = i | mc;
        amps.swap(i0, i0 | mt);
    });
}

/// Specialised Rx kernel: `Rx(θ) = [[c, −is], [−is, c]]` with
/// `c = cos(θ/2)`, `s = sin(θ/2)`. Avoids the generic complex 2×2
/// product — the batched runtime's hot path for encoder layers.
pub fn apply_rx(amps: &mut [Complex64], q: usize, theta: f64) {
    let (s, c) = (theta / 2.0).sin_cos();
    apply_rx_sc(amps, q, s, c);
}

/// [`apply_rx`] with the half-angle sine/cosine precomputed, so a
/// rotation's trig is evaluated once per parameter set instead of once
/// per run. `(s, c)` must be `(sin(θ/2), cos(θ/2))` (the `sin_cos()`
/// order).
#[inline]
pub fn apply_rx_sc(amps: &mut [Complex64], q: usize, s: f64, c: f64) {
    let mt = wire_mask(q, amps.len());
    Slab::new(amps, 1).rot(RotationAxis::X, mt, 0, s, c);
}

/// Specialised Ry kernel: `Ry(θ) = [[c, −s], [s, c]]` is purely real, so
/// each amplitude pair needs 8 real multiplies instead of the generic 16.
pub fn apply_ry(amps: &mut [Complex64], q: usize, theta: f64) {
    let (s, c) = (theta / 2.0).sin_cos();
    apply_ry_sc(amps, q, s, c);
}

/// [`apply_ry`] with the half-angle sine/cosine precomputed (see
/// [`apply_rx_sc`]).
#[inline]
pub fn apply_ry_sc(amps: &mut [Complex64], q: usize, s: f64, c: f64) {
    let mt = wire_mask(q, amps.len());
    Slab::new(amps, 1).rot(RotationAxis::Y, mt, 0, s, c);
}

/// Specialised Rz kernel: `Rz(θ) = diag(e^{−iθ/2}, e^{iθ/2})` is
/// diagonal — one complex multiply per amplitude, no pairing.
pub fn apply_rz(amps: &mut [Complex64], q: usize, theta: f64) {
    let (s, c) = (theta / 2.0).sin_cos();
    apply_rz_sc(amps, q, s, c);
}

/// [`apply_rz`] with the half-angle sine/cosine precomputed (see
/// [`apply_rx_sc`]): the phases `(c, −s)` on bit-clear and `(c, s)` on
/// bit-set amplitudes.
#[inline]
pub fn apply_rz_sc(amps: &mut [Complex64], q: usize, s: f64, c: f64) {
    apply_phases(amps, None, q, (c, -s), (c, s));
}

/// Diagonal two-phase kernel: multiplies every amplitude whose `target`
/// bit is clear by `lo` and every amplitude whose `target` bit is set by
/// `hi`, each an `(re, im)` phase applied as
/// `a' = (a.re·pr − a.im·pi, a.re·pi + a.im·pr)`. With a `control`, only
/// control-set amplitudes change. The two phases are independent, so a
/// caller may pass phases that are not each other's conjugates (an
/// inverse rotation whose phases were each built from their own angle).
#[inline]
pub fn apply_phases(
    amps: &mut [Complex64],
    control: Option<usize>,
    target: usize,
    lo: (f64, f64),
    hi: (f64, f64),
) {
    let mt = wire_mask(target, amps.len());
    let mc = control.map_or(0, |q| wire_mask(q, amps.len()));
    Slab::new(amps, 1).phase(mt, mc, lo, hi);
}

/// Controlled variant of [`apply_rx`]: the rotation acts on `target` only
/// where the `control` bit is set.
pub fn apply_crx(amps: &mut [Complex64], control: usize, target: usize, theta: f64) {
    let (s, c) = (theta / 2.0).sin_cos();
    apply_crx_sc(amps, control, target, s, c);
}

/// [`apply_crx`] with the half-angle sine/cosine precomputed (see
/// [`apply_rx_sc`]).
#[inline]
pub fn apply_crx_sc(amps: &mut [Complex64], control: usize, target: usize, s: f64, c: f64) {
    let (mc, mt) = masks(amps, control, target);
    Slab::new(amps, 1).rot(RotationAxis::X, mt, mc, s, c);
}

/// Controlled variant of [`apply_ry`].
pub fn apply_cry(amps: &mut [Complex64], control: usize, target: usize, theta: f64) {
    let (s, c) = (theta / 2.0).sin_cos();
    apply_cry_sc(amps, control, target, s, c);
}

/// [`apply_cry`] with the half-angle sine/cosine precomputed (see
/// [`apply_rx_sc`]).
#[inline]
pub fn apply_cry_sc(amps: &mut [Complex64], control: usize, target: usize, s: f64, c: f64) {
    let (mc, mt) = masks(amps, control, target);
    Slab::new(amps, 1).rot(RotationAxis::Y, mt, mc, s, c);
}

/// Controlled variant of [`apply_rz`] (diagonal: phase only, applied to
/// control-set amplitudes).
pub fn apply_crz(amps: &mut [Complex64], control: usize, target: usize, theta: f64) {
    let (s, c) = (theta / 2.0).sin_cos();
    apply_crz_sc(amps, control, target, s, c);
}

/// [`apply_crz`] with the half-angle sine/cosine precomputed (see
/// [`apply_rx_sc`]).
#[inline]
pub fn apply_crz_sc(amps: &mut [Complex64], control: usize, target: usize, s: f64, c: f64) {
    apply_phases(amps, Some(control), target, (c, -s), (c, s));
}

/// CZ fast path: the gate is diagonal — flip the sign where both bits
/// are set.
#[inline]
pub fn apply_cz(amps: &mut [Complex64], qa: usize, qb: usize) {
    let (ma, mb) = masks(amps, qa, qb);
    Slab::new(amps, 1).cz(ma, mb);
}

/// CNOT fast path: swaps amplitude pairs where the control bit is set.
#[inline]
pub fn apply_cnot(amps: &mut [Complex64], control: usize, target: usize) {
    let (mc, mt) = masks(amps, control, target);
    Slab::new(amps, 1).cnot(mc, mt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate1;
    use crate::simd;

    fn zero_state(n: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; 1 << n];
        v[0] = Complex64::ONE;
        v
    }

    fn norm(amps: &[Complex64]) -> f64 {
        amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// A deterministic non-trivial state: rotate every qubit.
    fn busy_state(n: usize) -> Vec<Complex64> {
        let mut amps = zero_state(n);
        for w in 0..n {
            apply_gate1(&mut amps, w, &Gate1::u3(0.5 + 0.3 * w as f64, 0.3, -0.8));
        }
        for w in 1..n {
            apply_cnot(&mut amps, w - 1, w);
        }
        amps
    }

    #[test]
    fn x_on_each_qubit_flips_the_right_bit() {
        for n in 1..=4 {
            for q in 0..n {
                let mut amps = zero_state(n);
                apply_gate1(&mut amps, q, &Gate1::pauli_x());
                for (i, a) in amps.iter().enumerate() {
                    let expect = if i == 1 << q { 1.0 } else { 0.0 };
                    assert!((a.re - expect).abs() < 1e-15, "n={n} q={q} i={i}");
                    assert!(a.im.abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn hadamard_preserves_norm() {
        let mut amps = zero_state(3);
        for q in 0..3 {
            apply_gate1(&mut amps, q, &Gate1::hadamard());
        }
        assert!((norm(&amps) - 1.0).abs() < 1e-12);
        // Uniform superposition: every |amp|² = 1/8.
        for a in &amps {
            assert!((a.norm_sqr() - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn cnot_builds_bell_pair() {
        let mut amps = zero_state(2);
        apply_gate1(&mut amps, 0, &Gate1::hadamard());
        apply_cnot(&mut amps, 0, 1);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((amps[0b00].re - h).abs() < 1e-12);
        assert!((amps[0b11].re - h).abs() < 1e-12);
        assert!(amps[0b01].abs() < 1e-15);
        assert!(amps[0b10].abs() < 1e-15);
    }

    #[test]
    fn cnot_matrix_and_fast_path_agree() {
        let mut a = zero_state(3);
        let mut b = zero_state(3);
        // Prepare a non-trivial state first.
        for q in 0..3 {
            apply_gate1(&mut a, q, &Gate1::rx(0.3 + q as f64));
            apply_gate1(&mut b, q, &Gate1::rx(0.3 + q as f64));
        }
        apply_cnot(&mut a, 2, 0);
        apply_gate2(&mut b, 2, 0, &crate::gate::Gate2::cnot());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn controlled_gate_fast_path_matches_gate2() {
        let g = Gate1::ry(1.234);
        let mut a = zero_state(3);
        let mut b = zero_state(3);
        for q in 0..3 {
            apply_gate1(&mut a, q, &Gate1::hadamard());
            apply_gate1(&mut b, q, &Gate1::hadamard());
        }
        apply_controlled_gate1(&mut a, 1, 2, &g);
        apply_gate2(&mut b, 1, 2, &crate::gate::Gate2::controlled(&g));
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn two_qubit_gate_preserves_norm() {
        let mut amps = zero_state(4);
        for q in 0..4 {
            apply_gate1(&mut amps, q, &Gate1::ry(0.2 * (q + 1) as f64));
        }
        apply_gate2(&mut amps, 1, 3, &crate::gate::Gate2::crx(0.9));
        assert!((norm(&amps) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn specialised_rotation_kernels_match_generic_matrices() {
        for theta in [0.0, 0.37, -1.2, 2.9, -3.1] {
            for q in 0..3 {
                let mut amps = zero_state(3);
                for w in 0..3 {
                    apply_gate1(&mut amps, w, &Gate1::u3(0.5 + w as f64, 0.3, -0.8));
                }
                let mut reference = amps.clone();

                apply_rx(&mut amps, q, theta);
                apply_gate1(&mut reference, q, &Gate1::rx(theta));
                for (a, b) in amps.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-14, "rx q={q} θ={theta}");
                }

                apply_ry(&mut amps, q, theta);
                apply_gate1(&mut reference, q, &Gate1::ry(theta));
                for (a, b) in amps.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-14, "ry q={q} θ={theta}");
                }

                apply_rz(&mut amps, q, theta);
                apply_gate1(&mut reference, q, &Gate1::rz(theta));
                for (a, b) in amps.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-14, "rz q={q} θ={theta}");
                }
            }
        }
    }

    #[test]
    fn specialised_controlled_kernels_match_generic() {
        for theta in [0.61, -2.3] {
            for (ctl, tgt) in [(0usize, 2usize), (2, 0), (1, 2)] {
                let mut amps = zero_state(3);
                for w in 0..3 {
                    apply_gate1(&mut amps, w, &Gate1::u3(0.9 * w as f64 + 0.2, -0.4, 1.1));
                }
                let mut reference = amps.clone();

                apply_crx(&mut amps, ctl, tgt, theta);
                apply_controlled_gate1(&mut reference, ctl, tgt, &Gate1::rx(theta));
                for (a, b) in amps.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-14, "crx {ctl}->{tgt}");
                }

                apply_cry(&mut amps, ctl, tgt, theta);
                apply_controlled_gate1(&mut reference, ctl, tgt, &Gate1::ry(theta));
                for (a, b) in amps.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-14, "cry {ctl}->{tgt}");
                }

                apply_crz(&mut amps, ctl, tgt, theta);
                apply_controlled_gate1(&mut reference, ctl, tgt, &Gate1::rz(theta));
                for (a, b) in amps.iter().zip(&reference) {
                    assert!((*a - *b).abs() < 1e-14, "crz {ctl}->{tgt}");
                }
            }
        }
    }

    #[test]
    fn precomputed_trig_kernels_are_bit_identical() {
        // The `_sc` variants must be *bit*-identical to the θ variants
        // (the prebound runtime path relies on it), not merely close.
        for theta in [0.0f64, 0.37, -1.2, 2.9] {
            let (s, c) = (theta / 2.0).sin_cos();
            let prepared = || {
                let mut amps = zero_state(3);
                for w in 0..3 {
                    apply_gate1(&mut amps, w, &Gate1::u3(0.5 + w as f64, 0.3, -0.8));
                }
                amps
            };
            type ThetaKernel = fn(&mut [Complex64], usize, f64);
            type ScKernel = fn(&mut [Complex64], usize, f64, f64);
            let singles: [(ThetaKernel, ScKernel); 3] = [
                (apply_rx, apply_rx_sc),
                (apply_ry, apply_ry_sc),
                (apply_rz, apply_rz_sc),
            ];
            for (full, sc) in singles {
                for q in 0..3 {
                    let mut a = prepared();
                    let mut b = a.clone();
                    full(&mut a, q, theta);
                    sc(&mut b, q, s, c);
                    assert_eq!(a, b, "q={q} θ={theta}");
                }
            }
            type CThetaKernel = fn(&mut [Complex64], usize, usize, f64);
            type CScKernel = fn(&mut [Complex64], usize, usize, f64, f64);
            let controlled: [(CThetaKernel, CScKernel); 3] = [
                (apply_crx, apply_crx_sc),
                (apply_cry, apply_cry_sc),
                (apply_crz, apply_crz_sc),
            ];
            for (full, sc) in controlled {
                let mut a = prepared();
                let mut b = a.clone();
                full(&mut a, 0, 2, theta);
                sc(&mut b, 0, 2, s, c);
                assert_eq!(a, b, "controlled θ={theta}");
            }
        }
    }

    #[test]
    fn cz_kernel_matches_gate2() {
        let mut a = zero_state(3);
        let mut b = zero_state(3);
        for q in 0..3 {
            apply_gate1(&mut a, q, &Gate1::u3(0.4 * q as f64 + 0.1, 0.2, 0.9));
            apply_gate1(&mut b, q, &Gate1::u3(0.4 * q as f64 + 0.1, 0.2, 0.9));
        }
        apply_cz(&mut a, 0, 2);
        apply_gate2(&mut b, 0, 2, &crate::gate::Gate2::cz());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-14);
        }
    }

    #[test]
    fn gate_on_nonadjacent_qubits_only_touches_them() {
        // Start in |q3 q2 q1 q0⟩ = |0100⟩, CNOT(control=2, target=0).
        let mut amps = vec![Complex64::ZERO; 16];
        amps[0b0100] = Complex64::ONE;
        apply_cnot(&mut amps, 2, 0);
        assert!((amps[0b0101].re - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "wire 3 out of range for 8 amplitudes")]
    fn wire_at_register_width_panics() {
        apply_rx_sc(&mut zero_state(3), 3, 0.6, 0.8);
    }

    #[test]
    #[should_panic(expected = "wire 64 out of range for 8 amplitudes")]
    fn wire_at_usize_bits_panics() {
        // An unchecked `1 << 64` wraps to `1` in release builds, which
        // would rotate wire 0 instead of panicking.
        apply_rx_sc(&mut zero_state(3), 64, 0.6, 0.8);
    }

    /// The skip-scan enumerations, kept as the reference the direct
    /// block enumeration is tested against.
    mod skip_scan {
        use super::*;

        pub fn cnot(amps: &mut [Complex64], control: usize, target: usize) {
            let mc = 1usize << control;
            let mt = 1usize << target;
            for i in 0..amps.len() {
                if i & mc == 0 || i & mt != 0 {
                    continue;
                }
                amps.swap(i, i | mt);
            }
        }

        pub fn cz(amps: &mut [Complex64], qa: usize, qb: usize) {
            let mask = (1usize << qa) | (1usize << qb);
            for (i, a) in amps.iter_mut().enumerate() {
                if i & mask == mask {
                    *a = -*a;
                }
            }
        }

        pub fn toffoli(amps: &mut [Complex64], c1: usize, c2: usize, t: usize) {
            let mc = (1usize << c1) | (1usize << c2);
            let mt = 1usize << t;
            for i in 0..amps.len() {
                if i & mc != mc || i & mt != 0 {
                    continue;
                }
                amps.swap(i, i | mt);
            }
        }

        pub fn gate2(amps: &mut [Complex64], qa: usize, qb: usize, gate: &Gate2) {
            let m = gate.matrix();
            let ma = 1usize << qa;
            let mb = 1usize << qb;
            for i in 0..amps.len() {
                if i & ma != 0 || i & mb != 0 {
                    continue;
                }
                let idxs = [i, i | ma, i | mb, i | ma | mb];
                let v = idxs.map(|k| amps[k]);
                for (row, &idx) in idxs.iter().enumerate() {
                    let mut acc = Complex64::ZERO;
                    for (col, &vc) in v.iter().enumerate() {
                        acc = m[row][col].mul_acc(vc, acc);
                    }
                    amps[idx] = acc;
                }
            }
        }

        pub fn controlled_gate1(
            amps: &mut [Complex64],
            control: usize,
            target: usize,
            gate: &Gate1,
        ) {
            let m = gate.matrix();
            let mc = 1usize << control;
            let mt = 1usize << target;
            for i in 0..amps.len() {
                if i & mc == 0 || i & mt != 0 {
                    continue;
                }
                let i1 = i | mt;
                let a0 = amps[i];
                let a1 = amps[i1];
                amps[i] = m[0][0] * a0 + m[0][1] * a1;
                amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    /// Direct block enumeration must visit exactly the indices the old
    /// skip-scan visited: states must come out bit-identical under the
    /// forced-scalar path (and, by the wide parity suite, under AVX2 too).
    #[test]
    fn direct_enumeration_matches_skip_scan() {
        let before = simd::level();
        simd::force(simd::SimdLevel::Scalar);
        for n in 2..=6usize {
            for qa in 0..n {
                for qb in 0..n {
                    if qa == qb {
                        continue;
                    }
                    let base = busy_state(n);

                    let mut a = base.clone();
                    let mut b = base.clone();
                    apply_cnot(&mut a, qa, qb);
                    skip_scan::cnot(&mut b, qa, qb);
                    assert_eq!(a, b, "cnot n={n} {qa}->{qb}");

                    let mut a = base.clone();
                    let mut b = base.clone();
                    apply_cz(&mut a, qa, qb);
                    skip_scan::cz(&mut b, qa, qb);
                    assert_eq!(a, b, "cz n={n} ({qa},{qb})");

                    let g2 = crate::gate::Gate2::crx(0.83);
                    let mut a = base.clone();
                    let mut b = base.clone();
                    apply_gate2(&mut a, qa, qb, &g2);
                    skip_scan::gate2(&mut b, qa, qb, &g2);
                    assert_eq!(a, b, "gate2 n={n} ({qa},{qb})");

                    let g1 = Gate1::u3(0.7, -0.2, 1.3);
                    let mut a = base.clone();
                    let mut b = base.clone();
                    apply_controlled_gate1(&mut a, qa, qb, &g1);
                    skip_scan::controlled_gate1(&mut b, qa, qb, &g1);
                    assert_eq!(a, b, "cgate1 n={n} {qa}->{qb}");

                    for qc in 0..n {
                        if qc == qa || qc == qb {
                            continue;
                        }
                        let mut a = base.clone();
                        let mut b = base.clone();
                        apply_toffoli(&mut a, qa, qb, qc);
                        skip_scan::toffoli(&mut b, qa, qb, qc);
                        assert_eq!(a, b, "toffoli n={n} ({qa},{qb})->{qc}");
                    }
                }
            }
        }
        simd::force(before);
    }
}
