//! Finite-shot measurement: estimating expectations from samples.
//!
//! Real quantum hardware never returns exact expectation values — it
//! returns `n_shots` computational-basis samples, and `⟨Z_q⟩` is estimated
//! as the mean of `±1` outcomes. Everything downstream (policies, values,
//! gradients) then carries *shot noise* of magnitude `O(1/√shots)`. This
//! module provides the sampled readout path used by the shot-budget
//! ablation; the exact path in [`crate::measure`] is the
//! `shots → ∞` limit.
//!
//! # The sampling kernel
//!
//! Every entry point — [`measure_shots`], [`measure_shots_density`],
//! [`measure_shots_probs`] and the allocation-free
//! [`with_state_histogram`] / [`with_density_histogram`] — bins its shots
//! through one kernel. Shot `j` draws `r_j = gen::<f64>() · acc`, with
//! `acc` the total mass, and lands on basis state `i` whose CDF interval
//! `[c_{i−1}, c_i)` holds it: the number of CDF entries `c_k ≤ r_j`. The
//! `≤` keeps every zero-mass state (an empty interval) out of reach, and
//! a draw that rounds up to `acc` itself folds onto the last
//! positive-mass state.
//!
//! Draws are taken in blocks of `BLOCK` (64) into a stack buffer, in stream
//! order, and each block is binned by **threshold passes**: for each CDF
//! entry, count the block's draws with `c_k ≤ r`. The CDF is monotone,
//! so consecutive counts difference into the histogram. A pass is a
//! compare-and-add the compiler vectorises (built for AVX2 where
//! [`crate::simd`] selects it), with no branch on the draw.
//!
//! Passes cost `2ⁿ` compares per draw, so they win on narrow registers
//! and lose on wide ones. Best µs per 128-shot [`measure_shots`] over
//! 6 × 25 batches on a 2-vCPU AVX2 host, against the per-shot
//! `partition_point` this kernel replaced and a select-based binary
//! search (`n` halving steps per draw):
//!
//! | qubits | per-shot `partition_point` | binary search | threshold passes |
//! |---|---|---|---|
//! | 2 | 0.59 | 0.57 | 0.29 |
//! | 4 | 0.93 | 0.89 | 0.46 |
//! | 6 | 2.10 | 1.52 | 1.26 |
//! | 8 | 4.26 | 3.35 | 4.77 |
//! | 10 | 10.36 | 7.45 | 16.16 |
//!
//! Every sampled register the training workloads use has 16 states,
//! where the search gains nothing: on the `sampled-sweep` benchmark it
//! ran 41% slower end to end than the passes. The passes are slower
//! than the old per-shot search from 256 states (8 qubits). No workload
//! samples a register that wide, so the kernel has one arm; a search
//! arm above a measured crossover belongs with a workload that runs it.
//! The AVX2 build of the passes is worth 13% of `sampled-sweep` wall
//! time over the SSE2 build of the same body.
//!
//! The passes give the histogram a per-draw `partition_point` would,
//! bit for bit. The distribution, its CDF and the histogram live in
//! per-thread scratch, so a histogram readout allocates nothing.

use std::cell::Cell;

use rand::Rng;

use crate::density::DensityMatrix;
use crate::error::QsimError;
use crate::state::StateVector;

/// Draws binned together: one block sits in a stack buffer while the
/// threshold passes run over it.
const BLOCK: usize = 64;

/// A batch of computational-basis measurement outcomes.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShotRecord {
    counts: Vec<(usize, usize)>,
    shots: usize,
    n_qubits: usize,
}

impl ShotRecord {
    /// Total number of shots taken.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// `(basis index, count)` pairs, sorted by basis index; zero-count
    /// outcomes are omitted.
    pub fn counts(&self) -> &[(usize, usize)] {
        &self.counts
    }

    /// The empirical probability of a basis outcome.
    pub fn frequency(&self, index: usize) -> f64 {
        self.counts
            .iter()
            .find(|(i, _)| *i == index)
            .map_or(0.0, |(_, c)| *c as f64 / self.shots as f64)
    }

    /// The shot-estimated `⟨Z_q⟩`: mean of `+1` (bit clear) / `−1`
    /// (bit set) over the recorded outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn expectation_z(&self, q: usize) -> Result<f64, QsimError> {
        z_estimate(self.counts.iter().copied(), q, self.n_qubits, self.shots)
    }

    /// Shot-estimated `⟨Z⟩` on every wire. One sample batch serves all
    /// wires because the `Z_q` all commute.
    pub fn expectation_z_all(&self) -> Vec<f64> {
        (0..self.n_qubits)
            .map(|q| {
                self.expectation_z(q)
                    .expect("wire in range by construction")
            })
            .collect()
    }
}

/// A shot histogram borrowed from the sampler's per-thread scratch: the
/// dense counterpart of a [`ShotRecord`], handed to the closure of
/// [`with_state_histogram`] / [`with_density_histogram`].
#[derive(Debug, Clone, Copy)]
pub struct Histogram<'a> {
    bins: &'a [usize],
    shots: usize,
    n_qubits: usize,
}

impl Histogram<'_> {
    /// The shot-estimated `⟨Z_q⟩`, bit-identical to
    /// [`ShotRecord::expectation_z`] on the same shots.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for an invalid wire.
    pub fn expectation_z(&self, q: usize) -> Result<f64, QsimError> {
        z_estimate(
            self.bins.iter().copied().enumerate(),
            q,
            self.n_qubits,
            self.shots,
        )
    }

    /// The sparse record of these shots (zero-count outcomes omitted).
    pub fn to_record(&self) -> ShotRecord {
        let mut counts = Vec::with_capacity(self.bins.iter().filter(|&&c| c > 0).count());
        counts.extend(
            self.bins
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, c)| c > 0),
        );
        ShotRecord {
            counts,
            shots: self.shots,
            n_qubits: self.n_qubits,
        }
    }
}

/// `⟨Z_q⟩` from `(basis index, count)` pairs: the exact `i64` sum of
/// `+count` (bit `q` clear) and `−count` (bit set), over `shots`.
fn z_estimate(
    counts: impl Iterator<Item = (usize, usize)>,
    q: usize,
    n_qubits: usize,
    shots: usize,
) -> Result<f64, QsimError> {
    if q >= n_qubits {
        return Err(QsimError::QubitOutOfRange { qubit: q, n_qubits });
    }
    let mask = 1usize << q;
    let acc: i64 = counts
        .map(|(i, c)| if i & mask == 0 { c as i64 } else { -(c as i64) })
        .sum();
    Ok(acc as f64 / shots as f64)
}

/// Measures `shots` computational-basis samples from a state.
///
/// # Errors
///
/// Returns [`QsimError::InvalidProbability`] when `shots == 0`.
pub fn measure_shots<R: Rng + ?Sized>(
    state: &StateVector,
    shots: usize,
    rng: &mut R,
) -> Result<ShotRecord, QsimError> {
    with_state_histogram(state, shots, rng, |h| h.to_record())
}

/// Measures `shots` computational-basis samples from a mixed state: the
/// density-matrix twin of [`measure_shots`], sampling the diagonal of
/// `ρ` — the finite-shot readout of noisy hardware execution.
///
/// # Errors
///
/// Returns [`QsimError::InvalidProbability`] when `shots == 0` or a
/// diagonal entry is NaN or infinite.
pub fn measure_shots_density<R: Rng + ?Sized>(
    rho: &DensityMatrix,
    shots: usize,
    rng: &mut R,
) -> Result<ShotRecord, QsimError> {
    with_density_histogram(rho, shots, rng, |h| h.to_record())
}

/// Measures `shots` samples from an explicit computational-basis
/// distribution.
///
/// # Errors
///
/// Returns [`QsimError::InvalidProbability`] when `shots == 0` or any
/// entry is negative/non-finite, [`QsimError::InvalidDimension`]
/// when the distribution does not cover an `n_qubits` register, and
/// [`QsimError::NotNormalized`] when it has no mass.
pub fn measure_shots_probs<R: Rng + ?Sized>(
    probs: &[f64],
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Result<ShotRecord, QsimError> {
    sample(probs.iter().copied(), n_qubits, shots, rng, |h| {
        h.to_record()
    })
}

/// Samples `shots` outcomes of `state` into per-thread scratch and hands
/// the histogram to `f` — [`measure_shots`] without building a record.
///
/// # Errors
///
/// As [`measure_shots`].
pub fn with_state_histogram<R: Rng + ?Sized, T>(
    state: &StateVector,
    shots: usize,
    rng: &mut R,
    f: impl FnOnce(Histogram<'_>) -> T,
) -> Result<T, QsimError> {
    let probs = state.amplitudes().iter().map(|a| a.norm_sqr());
    sample(probs, state.n_qubits(), shots, rng, f)
}

/// Samples `shots` outcomes of the mixed state `rho` into per-thread
/// scratch and hands the histogram to `f` — [`measure_shots_density`]
/// without building a record.
///
/// Kraus arithmetic can leave the diagonal a rounding error below zero,
/// so finite negative entries clamp to zero and physical states always
/// sample. NaN and infinite entries are not clamped: they are rejected.
///
/// # Errors
///
/// As [`measure_shots_density`].
pub fn with_density_histogram<R: Rng + ?Sized, T>(
    rho: &DensityMatrix,
    shots: usize,
    rng: &mut R,
    f: impl FnOnce(Histogram<'_>) -> T,
) -> Result<T, QsimError> {
    let probs = (0..rho.dim()).map(|i| {
        let p = rho.element(i, i).re;
        if p.is_finite() {
            p.max(0.0)
        } else {
            p
        }
    });
    sample(probs, rho.n_qubits(), shots, rng, f)
}

/// The sampler's per-thread buffers: distribution, CDF and histogram.
#[derive(Default)]
struct Scratch {
    probs: Vec<f64>,
    cdf: Vec<f64>,
    bins: Vec<usize>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            probs: Vec::new(),
            cdf: Vec::new(),
            bins: Vec::new(),
        })
    };
}

/// Loads `probs` into this thread's scratch, samples it and hands the
/// histogram to `f`. The buffers are moved out of the thread-local for
/// the call, so a nested call finds empty ones and allocates its own
/// instead of aliasing.
fn sample<R: Rng + ?Sized, T>(
    probs: impl Iterator<Item = f64>,
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
    f: impl FnOnce(Histogram<'_>) -> T,
) -> Result<T, QsimError> {
    let mut scratch = SCRATCH.with(Cell::take);
    scratch.probs.clear();
    scratch.probs.extend(probs);
    let out = sample_histogram(&mut scratch, n_qubits, shots, rng).map(f);
    SCRATCH.with(|s| s.set(scratch));
    out
}

/// The sampling kernel (see the module docs): validates the scratch
/// distribution, builds its CDF and bins `shots` draws from `rng`.
fn sample_histogram<'s, R: Rng + ?Sized>(
    scratch: &'s mut Scratch,
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Result<Histogram<'s>, QsimError> {
    let Scratch { probs, cdf, bins } = scratch;
    let probs = &probs[..];
    if shots == 0 {
        return Err(QsimError::InvalidProbability { value: 0.0 });
    }
    if probs.len() != 1usize << n_qubits {
        return Err(QsimError::InvalidDimension { len: probs.len() });
    }
    if let Some(&bad) = probs.iter().find(|p| !p.is_finite() || **p < 0.0) {
        return Err(QsimError::InvalidProbability { value: bad });
    }
    cdf.clear();
    let mut acc = 0.0;
    for p in probs {
        acc += p;
        cdf.push(acc);
    }
    // A zero-mass distribution has no state to sample; rejecting it here
    // keeps the sampler's no-zero-probability-outcome guarantee total.
    if acc <= 0.0 {
        return Err(QsimError::NotNormalized { norm: 0.0 });
    }
    // One bin per basis state plus a spill bin for draws with `r ≥ acc`.
    bins.clear();
    bins.resize(probs.len() + 1, 0);
    // A short last block pads with NaN, which passes no `c ≤ r` test, so
    // every pass runs a fixed-length loop (faster than a slice of the
    // block's draws).
    let mut block = [f64::NAN; BLOCK];
    let mut left = shots;
    while left > 0 {
        let taken = left.min(BLOCK);
        for r in &mut block[..taken] {
            *r = rng.gen::<f64>() * acc;
        }
        block[taken..].fill(f64::NAN);
        bin_by_passes(cdf, &block, taken, bins);
        left -= taken;
    }
    // `gen::<f64>() * acc` can round up to `acc` itself; fold the
    // boundary onto the last positive-mass state.
    let spill = bins.pop().unwrap_or(0);
    if spill > 0 {
        let last = probs.iter().rposition(|&p| p > 0.0).unwrap_or(0);
        bins[last] += spill;
    }
    debug_assert!(
        bins.iter().zip(probs).all(|(&c, &p)| c == 0 || p > 0.0),
        "sampled a zero-probability state"
    );
    Ok(Histogram {
        bins,
        shots,
        n_qubits,
    })
}

/// Threshold passes over one block holding `taken` draws: `past`, the
/// number of draws with `c_k ≤ r`, is the number landing beyond bin `k`,
/// so bin `k` gains the previous entry's count minus this one's, and the
/// spill bin gains the last entry's.
fn bin_by_passes(cdf: &[f64], block: &[f64; BLOCK], taken: usize, bins: &mut [usize]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::level() == crate::simd::SimdLevel::Avx2 {
        // SAFETY: the dispatcher selects AVX2 only on CPUs that have it.
        unsafe { passes_avx2(cdf, block, taken, bins) };
        return;
    }
    passes(cdf, block, taken, bins);
}

/// [`passes`] compiled for AVX2, so each pass counts four draws per
/// compare. Integer counts, so every dispatch level gives the same bins.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn passes_avx2(cdf: &[f64], block: &[f64; BLOCK], taken: usize, bins: &mut [usize]) {
    passes(cdf, block, taken, bins);
}

/// The body of [`bin_by_passes`], shared by every dispatch level.
#[inline(always)]
fn passes(cdf: &[f64], block: &[f64; BLOCK], taken: usize, bins: &mut [usize]) {
    let mut reached = taken;
    for (bin, &c) in bins.iter_mut().zip(cdf) {
        let past: usize = block.iter().map(|&r| usize::from(c <= r)).sum();
        *bin += reached - past;
        reached = past;
    }
    bins[cdf.len()] += reached;
}

/// The standard error of a shot-estimated `⟨Z⟩` with true value `z`:
/// `√((1 − z²) / shots)`.
pub fn z_standard_error(z: f64, shots: usize) -> f64 {
    ((1.0 - z * z).max(0.0) / shots as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate1;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn basis_state_measures_deterministically() {
        let s = StateVector::basis(3, 0b101).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let rec = measure_shots(&s, 100, &mut rng).unwrap();
        assert_eq!(rec.shots(), 100);
        assert_eq!(rec.counts(), &[(0b101, 100)]);
        assert_eq!(rec.frequency(0b101), 1.0);
        assert_eq!(rec.frequency(0b000), 0.0);
        assert_eq!(rec.expectation_z(0).unwrap(), -1.0);
        assert_eq!(rec.expectation_z(1).unwrap(), 1.0);
    }

    #[test]
    fn estimates_converge_to_exact() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &Gate1::ry(0.9)).unwrap();
        s.apply_cnot(0, 1).unwrap();
        let exact = crate::measure::expectation_z_all(&s);
        let mut rng = StdRng::seed_from_u64(5);
        let rec = measure_shots(&s, 200_000, &mut rng).unwrap();
        for (q, &e) in exact.iter().enumerate() {
            let est = rec.expectation_z(q).unwrap();
            assert!((est - e).abs() < 0.01, "wire {q}: {est} vs {e}");
        }
    }

    #[test]
    fn error_shrinks_with_shot_count() {
        let mut s = StateVector::zero(1);
        s.apply_gate1(0, &Gate1::hadamard()).unwrap(); // ⟨Z⟩ = 0, max variance
        let spread = |shots: usize| -> f64 {
            let mut errs = Vec::new();
            for seed in 0..30 {
                let mut rng = StdRng::seed_from_u64(seed);
                let rec = measure_shots(&s, shots, &mut rng).unwrap();
                errs.push(rec.expectation_z(0).unwrap().abs());
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let coarse = spread(16);
        let fine = spread(4096);
        assert!(
            fine < coarse / 3.0,
            "shot noise must shrink ~1/√shots: {coarse} vs {fine}"
        );
    }

    #[test]
    fn one_batch_serves_all_wires() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply_gate1(q, &Gate1::ry(0.4 + q as f64)).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(9);
        let rec = measure_shots(&s, 10_000, &mut rng).unwrap();
        let all = rec.expectation_z_all();
        assert_eq!(all.len(), 3);
        for (q, est) in all.iter().enumerate() {
            let exact = crate::measure::expectation_z(&s, q).unwrap();
            assert!((est - exact).abs() < 0.05, "wire {q}");
        }
    }

    #[test]
    fn zero_shots_rejected_and_bad_wire() {
        let s = StateVector::zero(2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(measure_shots(&s, 0, &mut rng).is_err());
        let rec = measure_shots(&s, 10, &mut rng).unwrap();
        assert!(rec.expectation_z(5).is_err());
    }

    #[test]
    fn seeded_measurement_is_reproducible() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(1, &Gate1::ry(1.2)).unwrap();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            measure_shots(&s, 500, &mut rng).unwrap()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn standard_error_formula() {
        assert!((z_standard_error(0.0, 100) - 0.1).abs() < 1e-12);
        assert_eq!(z_standard_error(1.0, 100), 0.0);
        assert!((z_standard_error(0.6, 400) - (0.64f64 / 400.0).sqrt()).abs() < 1e-12);
    }

    /// An RNG that always returns 0, forcing `r == 0.0` in the sampler.
    struct ZeroRng;
    impl rand::RngCore for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn zero_probability_prefix_is_never_sampled() {
        // Amplitude 0 is *exactly* zero: |ψ⟩ = |1⟩ on one wire. The old
        // `partition_point(|&c| c < r)` selected basis state 0 whenever
        // r == 0.0 because the zero-mass prefix entry satisfies `c < 0.0`
        // for no c but `partition_point` returns index 0.
        let s = StateVector::basis(1, 1).unwrap();
        let mut zero = ZeroRng;
        let rec = measure_shots(&s, 50, &mut zero).unwrap();
        assert_eq!(rec.counts(), &[(1, 50)], "r == 0.0 must skip P=0 states");

        // The same holds for interior flat CDF segments.
        let probs = [0.5, 0.0, 0.5, 0.0];
        let mut rng = StdRng::seed_from_u64(3);
        let rec = measure_shots_probs(&probs, 2, 4096, &mut rng).unwrap();
        assert_eq!(rec.frequency(1), 0.0, "flat CDF segment must be skipped");
        assert!(rec.frequency(0) > 0.3 && rec.frequency(2) > 0.3);
    }

    #[test]
    fn explicit_distributions_are_validated() {
        let mut rng = StdRng::seed_from_u64(1);
        // Length must cover the claimed register.
        assert!(matches!(
            measure_shots_probs(&[0.5, 0.5, 0.0], 1, 10, &mut rng),
            Err(QsimError::InvalidDimension { len: 3 })
        ));
        // Negative and non-finite masses are rejected, not silently
        // folded into the CDF.
        assert!(measure_shots_probs(&[1.5, -0.5], 1, 10, &mut rng).is_err());
        assert!(measure_shots_probs(&[f64::NAN, 1.0], 1, 10, &mut rng).is_err());
        // Zero total mass leaves nothing to sample.
        assert!(matches!(
            measure_shots_probs(&[0.0, 0.0], 1, 10, &mut rng),
            Err(QsimError::NotNormalized { .. })
        ));
        assert!(measure_shots_probs(&[0.5, 0.5], 1, 10, &mut rng).is_ok());
    }

    #[test]
    fn density_shots_match_pure_state_distribution() {
        let mut s = StateVector::zero(2);
        s.apply_gate1(0, &Gate1::ry(0.9)).unwrap();
        s.apply_cnot(0, 1).unwrap();
        let rho = crate::density::DensityMatrix::from_state_vector(&s);
        let mut rng = StdRng::seed_from_u64(7);
        let rec = measure_shots_density(&rho, 100_000, &mut rng).unwrap();
        for q in 0..2 {
            let exact = crate::measure::expectation_z(&s, q).unwrap();
            let est = rec.expectation_z(q).unwrap();
            assert!((est - exact).abs() < 0.02, "wire {q}: {est} vs {exact}");
        }
        assert!(measure_shots_density(&rho, 0, &mut rng).is_err());
    }

    #[test]
    fn density_shots_skip_zero_probability_rows() {
        // A rank-one mixed state whose diagonal has exact zeros —
        // including a zero *prefix* and interior flat CDF segments. The
        // shared inverse-CDF sampler must never land on a zero-mass row,
        // whatever the rounding of the running sum.
        use crate::complex::Complex64;
        let dim = 8usize;
        let mut flat = vec![Complex64::ZERO; dim * dim];
        // diag = [0, 0.25, 0, 0, 0.5, 0, 0.25, 0]: zero prefix, two
        // interior flat segments, zero tail.
        for (i, p) in [(1usize, 0.25), (4, 0.5), (6, 0.25)] {
            flat[i * dim + i] = Complex64::from_real(p);
        }
        let rho = crate::density::DensityMatrix::from_flat(3, flat);
        let mut rng = StdRng::seed_from_u64(11);
        let rec = measure_shots_density(&rho, 50_000, &mut rng).unwrap();
        for &(idx, count) in rec.counts() {
            assert!(
                matches!(idx, 1 | 4 | 6),
                "sampled zero-probability outcome {idx} ({count} times)"
            );
        }
        assert!((rec.frequency(4) - 0.5).abs() < 0.02);
        assert_eq!(rec.frequency(0), 0.0);
        assert_eq!(rec.frequency(7), 0.0);
    }

    #[test]
    fn density_shots_clamp_negative_rounding_noise() {
        // Kraus arithmetic can leave diagonal entries a rounding error
        // below zero; the density entry point clamps them before the
        // positivity check so physical states always sample.
        use crate::complex::Complex64;
        let dim = 4usize;
        let mut flat = vec![Complex64::ZERO; dim * dim];
        flat[0] = Complex64::from_real(-1e-17);
        flat[5] = Complex64::from_real(1.0);
        let rho = crate::density::DensityMatrix::from_flat(2, flat);
        let mut rng = StdRng::seed_from_u64(3);
        let rec = measure_shots_density(&rho, 1000, &mut rng).unwrap();
        assert_eq!(rec.counts(), &[(1, 1000)]);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply_gate1(q, &Gate1::hadamard()).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(17);
        let rec = measure_shots(&s, 4096, &mut rng).unwrap();
        let total: f64 = (0..8).map(|i| rec.frequency(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    /// The per-shot `partition_point` sampler the kernel replaced: the
    /// oracle its histograms must match bit for bit.
    fn reference_counts<R: Rng + ?Sized>(
        probs: &[f64],
        shots: usize,
        rng: &mut R,
    ) -> Vec<(usize, usize)> {
        let mut cdf = Vec::with_capacity(probs.len());
        let mut acc = 0.0;
        for p in probs {
            acc += p;
            cdf.push(acc);
        }
        let mut histogram = vec![0usize; probs.len()];
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * acc;
            let mut idx = cdf.partition_point(|&c| c <= r);
            if idx >= probs.len() {
                idx = probs.iter().rposition(|&p| p > 0.0).unwrap_or(0);
            }
            histogram[idx] += 1;
        }
        histogram
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .collect()
    }

    /// Unnormalised masses over `2^n` states; `holes` zeroes a prefix, a
    /// suffix and every third interior entry.
    fn masses(n_qubits: usize, holes: bool, seed: u64) -> Vec<f64> {
        let dim = 1usize << n_qubits;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..dim)
            .map(|i| {
                let zero = i == 0 || (dim > 2 && (i == dim - 1 || i % 3 == 1));
                if holes && zero {
                    0.0
                } else {
                    rng.gen::<f64>() + 1e-3
                }
            })
            .collect()
    }

    #[test]
    fn kernel_matches_partition_point_reference() {
        // Narrow and wide registers, and block edges.
        let (qubits, shot_counts): (Vec<usize>, &[usize]) = if cfg!(miri) {
            (vec![1, 2, 4, 5], &[1, 64, 65])
        } else {
            ((1..=10).collect(), &[1, 63, 64, 65, 1000])
        };
        for n in qubits {
            for holes in [false, true] {
                let probs = masses(n, holes, n as u64);
                for &shots in shot_counts {
                    let seed = 1000 * n as u64 + shots as u64;
                    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let rec = measure_shots_probs(&probs, n, shots, &mut a).unwrap();
                    let reference = reference_counts(&probs, shots, &mut b);
                    assert_eq!(
                        rec.counts(),
                        &reference[..],
                        "n={n} holes={holes} shots={shots}"
                    );
                    // Same number of draws taken from the stream.
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>());
                }
            }
        }
    }

    /// An RNG that always returns `u64::MAX`, the largest draw.
    struct MaxRng;
    impl rand::RngCore for MaxRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn draws_rounding_up_to_the_total_fold_onto_the_last_positive_state() {
        // With a subnormal total mass, the largest draw `(1 − 2⁻⁵³)·acc`
        // rounds to `acc` itself and lands past every CDF entry.
        let tiny = f64::from_bits(1);
        for n in [2usize, 6] {
            let dim = 1usize << n;
            let mut probs = vec![0.0; dim];
            probs[0] = tiny;
            probs[dim / 2] = tiny;
            let acc = 2.0 * tiny;
            assert_eq!(MaxRng.gen::<f64>() * acc, acc, "precondition: r == acc");
            let rec = measure_shots_probs(&probs, n, 65, &mut MaxRng).unwrap();
            assert_eq!(rec.counts(), &[(dim / 2, 65)], "n={n}");
            assert_eq!(rec.counts(), &reference_counts(&probs, 65, &mut MaxRng)[..]);
        }
    }

    #[test]
    fn histogram_z_matches_the_record() {
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            s.apply_gate1(q, &Gate1::ry(0.3 + q as f64)).unwrap();
        }
        let rec = measure_shots(&s, 257, &mut StdRng::seed_from_u64(4)).unwrap();
        let z = with_state_histogram(&s, 257, &mut StdRng::seed_from_u64(4), |h| {
            assert_eq!(h.to_record(), rec);
            (0..3)
                .map(|q| h.expectation_z(q).unwrap())
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(z, rec.expectation_z_all());
    }

    #[test]
    fn density_shots_reject_non_finite_diagonals() {
        // A NaN or infinite diagonal entry is an error, never clamped to
        // zero mass and silently skipped.
        use crate::complex::Complex64;
        let diag = |entries: [f64; 2]| {
            let mut flat = vec![Complex64::ZERO; 4];
            flat[0] = Complex64::from_real(entries[0]);
            flat[3] = Complex64::from_real(entries[1]);
            crate::density::DensityMatrix::from_flat(1, flat)
        };
        let mut rng = StdRng::seed_from_u64(5);
        for (entries, nan) in [
            ([f64::NAN, 1.0], true),
            ([f64::NAN, f64::NAN], true),
            ([f64::NEG_INFINITY, 1.0], false),
            ([0.5, f64::INFINITY], false),
        ] {
            match measure_shots_density(&diag(entries), 10, &mut rng) {
                Err(QsimError::InvalidProbability { value }) => {
                    assert_eq!(value.is_nan(), nan, "{entries:?}");
                    assert!(!value.is_finite(), "{entries:?}");
                }
                other => panic!("{entries:?}: expected InvalidProbability, got {other:?}"),
            }
        }
    }
}
