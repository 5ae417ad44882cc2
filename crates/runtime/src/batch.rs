//! The batched executor: B statevectors over one shared schedule.
//!
//! Policy evaluation over a replay minibatch, per-agent evaluation at one
//! timestep, and the parameter-shift rule's ±π/2 fan-out are all "run the
//! same compiled schedule under many bindings". [`BatchExecutor`] turns
//! each of those into a flat work queue drained by the shared
//! [`qmarl_qsim::par`] scheduler:
//!
//! * [`BatchExecutor::expectation_batch_prebound`] /
//!   [`BatchExecutor::forward_and_jacobian_batch_prebound`] — forward
//!   and adjoint batches over parameter-prebound lane slabs, grouped by
//!   parameter set (N agents with identical circuit shape but private
//!   weights: the rollout tick and the update sweep),
//! * [`BatchExecutor::expectation_batch_backend`] — one model's forward
//!   batch under an [`ExecutionBackend`]. `Ideal` prebinds the fused
//!   schedule once and runs the batch as one group of prebound lane
//!   slabs (a single request is a one-lane slab); `Sampled` runs each
//!   item as a one-lane slab of the same walker before sampling it;
//!   `Noisy` runs density lane slabs on the same lane-chunk queue,
//! * [`BatchExecutor::forward_and_jacobian_batch_backend`] — the
//!   gradient path of every backend. `Ideal`, `Sampled` and `Noisy` run
//!   a **prefix-shared shift walk** per item over the raw schedule,
//!   prebound once per batch. Each ±shift evaluation forks from the
//!   register just before its occurrence and runs only the suffix, so
//!   the prefix is computed once per item instead of once per
//!   evaluation. The register is a one-lane statevector slab of the
//!   prebound walker, or for `Noisy` the vectorized ρ of the density
//!   walk. A task is one item; when the batch has fewer items than
//!   workers, each item splits into contiguous occurrence chunks, so
//!   even a one-item gradient keeps every core busy.
//!
//! Results are folded in deterministic (input, occurrence) order, so
//! batched outputs are bit-identical to their serial counterparts.

use std::ops::Range;

use qmarl_qsim::density::DensityMatrix;
use qmarl_qsim::par;
use qmarl_qsim::state::StateVector;
use qmarl_vqc::grad::{shift_rule, Jacobian};
use qmarl_vqc::observable::Readout;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::ExecutionBackend;
use crate::compile::{CGate, CompiledCircuit, Occurrence};
use crate::error::RuntimeError;
use crate::exec::check_bindings;
use crate::prebound::{
    prebind, prebind_raw, readouts_from_slab, run_adjoint_slab, run_prebound,
    run_prebound_slab_raw, PreboundAdjoint, PreboundCircuit, ShiftSchedule, ShiftWalk,
};
use crate::superop::{extract_lane, prebind_density, run_density, run_density_slab};
use crate::trajectory::{prebind_trajectory, run_trajectory_adjoint, trajectory_outputs};

/// One shared-parameter group of a prebound batch: a frozen schedule plus
/// the input vectors to run under it.
#[derive(Debug)]
pub struct PreboundGroup<'a> {
    /// The parameter-prebound schedule (see [`crate::prebound::prebind`]).
    pub circuit: &'a PreboundCircuit,
    /// Input vectors, as slices into caller-owned storage.
    pub inputs: Vec<&'a [f64]>,
}

/// One prebound group's `(n_qubits, n_inputs, input lanes)`, as the
/// shared lane-chunk queue sees it.
type LaneShape<'a> = (usize, usize, &'a [&'a [f64]]);

/// Per-group, per-item `(raw readout vector, circuit-parameter Jacobian)`
/// results of a prebound adjoint batch.
pub type AdjointBatchResults = Vec<Vec<(Vec<f64>, Jacobian)>>;

/// One shared-parameter group of a prebound **adjoint** batch: a frozen
/// adjoint schedule plus the input vectors to differentiate under it.
#[derive(Debug)]
pub struct AdjointGroup<'a> {
    /// The adjoint-prebound schedule (see
    /// [`crate::prebound::prebind_adjoint`]).
    pub circuit: &'a PreboundAdjoint,
    /// Input vectors, as slices into caller-owned storage.
    pub inputs: Vec<&'a [f64]>,
}

/// Evaluates compiled schedules over batches of bindings in parallel.
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    workers: usize,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        BatchExecutor {
            workers: par::default_workers(),
        }
    }
}

impl BatchExecutor {
    /// An executor with an explicit worker count (`0` = auto-detect).
    ///
    /// `workers` is how many threads may drain one batch: the calling
    /// thread plus up to `workers - 1` helpers of the process-wide
    /// [`par`] pool. The pool caps it at `par::default_workers()`, so a
    /// larger value costs nothing and gains nothing; `1` runs every
    /// batch inline on the caller.
    pub fn new(workers: usize) -> Self {
        BatchExecutor {
            workers: if workers == 0 {
                par::default_workers()
            } else {
                workers
            },
        }
    }

    /// A strictly serial executor (the property-test reference).
    pub fn serial() -> Self {
        BatchExecutor { workers: 1 }
    }

    /// The worker count used for every batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Batched forward pass over **prebound** schedules, grouped by
    /// parameter set — the vectorized rollout tick. Each group's frozen
    /// parameters were resolved once by [`crate::prebound::prebind`]
    /// (hoisting all parameter-only trig); a task runs a contiguous lane
    /// chunk of one group through a single slab schedule walk, and the
    /// whole tick's chunks form one flat work queue. Outputs come back
    /// per group, per item, bit-identical to a one-lane walk of the same
    /// bindings (lanes are independent, so chunking cannot change any
    /// value).
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn expectation_batch_prebound(
        &self,
        readout: &Readout,
        groups: &[PreboundGroup<'_>],
    ) -> Result<Vec<Vec<Vec<f64>>>, RuntimeError> {
        // Chunks of up to 64 lanes: big enough to amortise the slab walk,
        // small enough to fill every worker. Validation already ran, so
        // the per-task work is infallible: walk the chunk's slab once,
        // then fold each lane's readout straight off it.
        let shapes: Vec<LaneShape<'_>> = groups
            .iter()
            .map(|g| {
                (
                    g.circuit.n_qubits(),
                    g.circuit.n_inputs(),
                    g.inputs.as_slice(),
                )
            })
            .collect();
        self.lane_chunks(readout, &shapes, 64, |g, lanes| {
            let inputs = &groups[g].inputs[lanes];
            let slab = run_prebound_slab_raw(groups[g].circuit, inputs);
            readouts_from_slab(readout, &slab, inputs.len())
        })
    }

    /// Batched **prebound adjoint** forward + Jacobian, grouped by
    /// parameter set — the update-sweep hot path. Each group's frozen
    /// parameters were resolved once by
    /// [`crate::prebound::prebind_adjoint`] (hoisting every
    /// parameter-only rotation's forward *and* inverse trig); a task runs
    /// a contiguous lane chunk of one group through a single
    /// forward-walk-plus-reverse-sweep pair, and the whole batch's chunks
    /// form one flat work queue. Per lane the result is **bit-identical**
    /// to the interpreter oracle's adjoint
    /// (`Vqc::forward_with_jacobian(…, GradMethod::Adjoint)` before the
    /// output head) — lanes are independent, so neither chunking nor the
    /// worker count can change any value.
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn forward_and_jacobian_batch_prebound(
        &self,
        readout: &Readout,
        groups: &[AdjointGroup<'_>],
    ) -> Result<AdjointBatchResults, RuntimeError> {
        // Chunks of up to 32 lanes: the adjoint walk keeps (2 + outputs)
        // slabs live, so chunks stay small enough for cache while still
        // amortising the per-walk dispatch.
        let shapes: Vec<LaneShape<'_>> = groups
            .iter()
            .map(|g| {
                (
                    g.circuit.n_qubits(),
                    g.circuit.n_inputs(),
                    g.inputs.as_slice(),
                )
            })
            .collect();
        self.lane_chunks(readout, &shapes, 32, |g, lanes| {
            run_adjoint_slab(groups[g].circuit, readout, &groups[g].inputs[lanes])
        })
    }

    /// The shared queue of the two prebound batches. Validates the
    /// readout and every group's input lengths, then runs `run(group,
    /// lanes)` over contiguous lane chunks of at most `cap` lanes, sized
    /// to fill every worker, as one flat work queue, and regroups the
    /// per-lane results in input order. Lanes are independent, so the
    /// chunking cannot change any value.
    fn lane_chunks<T: Send>(
        &self,
        readout: &Readout,
        groups: &[LaneShape<'_>],
        cap: usize,
        run: impl Fn(usize, Range<usize>) -> Vec<T> + Sync,
    ) -> Result<Vec<Vec<T>>, RuntimeError> {
        for &(n_qubits, n_inputs, inputs) in groups {
            readout.validate(n_qubits)?;
            if let Some(bad) = inputs.iter().find(|lane| lane.len() != n_inputs) {
                return Err(RuntimeError::InputLenMismatch {
                    expected: n_inputs,
                    actual: bad.len(),
                });
            }
        }
        let total_items: usize = groups.iter().map(|&(_, _, inputs)| inputs.len()).sum();
        let chunk = (total_items / self.workers.max(1)).clamp(1, cap);
        let tasks: Vec<(usize, Range<usize>)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, &(_, _, inputs))| {
                (0..inputs.len())
                    .step_by(chunk)
                    .map(move |start| (g, start..(start + chunk).min(inputs.len())))
            })
            .collect();
        let results =
            par::parallel_map(&tasks, self.workers, |_, (g, lanes)| run(*g, lanes.clone()));
        let mut out: Vec<Vec<T>> = groups
            .iter()
            .map(|&(_, _, inputs)| Vec::with_capacity(inputs.len()))
            .collect();
        for ((g, _), chunk_results) in tasks.iter().zip(results) {
            out[*g].extend(chunk_results);
        }
        Ok(out)
    }

    /// Batched forward pass under an [`ExecutionBackend`]: one readout
    /// vector per input vector. The stochastic backends are worker-count
    /// invariant by the content-addressed seed derivation (see
    /// [`crate::backend`]).
    ///
    /// * `Ideal` prebinds the fused schedule once
    ///   ([`crate::prebound::prebind`]) and runs the batch as one group of
    ///   [`BatchExecutor::expectation_batch_prebound`] lane slabs; a single
    ///   item is a one-lane slab.
    /// * `Sampled` prebinds the same way and runs one task per item: the
    ///   item's final state (a one-lane slab walk), then `shots` samples
    ///   from its own stream.
    /// * `Noisy` prebinds the superoperator schedule once and runs the
    ///   batch as lane **chunks** of one density slab walk per task, on
    ///   the shared lane-chunk queue (lanes are independent, so chunking
    ///   cannot change any value).
    /// * `Trajectory` runs one task per item — a trajectory evaluation
    ///   already fills a slab with its samples.
    ///
    /// # Errors
    ///
    /// Returns binding-length, readout- or backend-validation errors.
    pub fn expectation_batch_backend(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
        backend: &ExecutionBackend,
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        backend.validate()?;
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        match backend {
            ExecutionBackend::Ideal => {
                let pb = prebind(compiled, params)?;
                let group = PreboundGroup {
                    circuit: &pb,
                    inputs: inputs.iter().map(Vec::as_slice).collect(),
                };
                let groups = self.expectation_batch_prebound(readout, &[group])?;
                Ok(groups.into_iter().flatten().collect())
            }
            ExecutionBackend::Sampled { shots, seed } => {
                let pb = prebind(compiled, params)?;
                par::try_parallel_map(inputs, self.workers, |_, item| {
                    let state = run_prebound(&pb, item)?;
                    let stream = ExecutionBackend::eval_seed(*seed, item, params, 0);
                    sampled_readout(&state, readout, *shots, stream)
                })
            }
            ExecutionBackend::Noisy { model, shots, seed } => {
                let pb = prebind_density(compiled, params, model)?;
                let items: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
                let shape = (compiled.n_qubits(), compiled.n_inputs(), items.as_slice());
                // The chunk cap stays small: an 8-qubit density lane is
                // 65 536 amplitudes, so 16 lanes keep the slab around
                // cache-friendly sizes.
                let outs = self.lane_chunks(readout, &[shape], 16, |_, lanes| {
                    let chunk = &items[lanes];
                    let slab = run_density_slab(&pb, chunk);
                    let n = compiled.n_qubits();
                    let rho =
                        |lane| DensityMatrix::from_flat(n, extract_lane(&slab, chunk.len(), lane));
                    let stream = |item| ExecutionBackend::eval_seed(*seed, item, params, 0);
                    (chunk.iter().enumerate())
                        .map(|(lane, item)| {
                            density_readout(&rho(lane), readout, *shots, stream(item))
                        })
                        .collect()
                })?;
                outs.into_iter().flatten().collect()
            }
            ExecutionBackend::Trajectory {
                model,
                samples,
                seed,
            } => {
                let pb = prebind_trajectory(compiled, params, model)?;
                Ok(par::parallel_map(inputs, self.workers, |_, item| {
                    let eval_seed = ExecutionBackend::eval_seed(*seed, item, params, 0);
                    trajectory_outputs(&pb, readout, item, *samples, eval_seed)
                }))
            }
        }
    }

    /// Batched forward **and** Jacobian under an [`ExecutionBackend`]:
    ///
    /// * `Ideal`, `Sampled` and `Noisy` run the **prefix-shared shift
    ///   walk**. The raw schedule is prebound once per batch
    ///   (parameter-only trig hoisted; for `Noisy`, with its
    ///   superoperators); a task walks one item's raw schedule a single
    ///   time and, at each trainable occurrence, forks the ±shift
    ///   evaluations from the shared prefix, so an occurrence at raw
    ///   index `k` costs `2·(G − k)` gate applications (four terms for
    ///   controlled rotations) instead of `2·G`. `Ideal` and `Sampled`
    ///   fork a statevector, `Noisy` the vectorized ρ. The forward pass
    ///   runs in the item's first task: the prebound fused schedule, or
    ///   for `Noisy` the whole density walk. `Sampled` (and `Noisy` with
    ///   shots) samples every evaluation from its own content-addressed
    ///   stream, so the gradients carry exactly the noise hardware
    ///   execution would.
    /// * `Trajectory` runs one **per-trajectory adjoint** task per
    ///   minibatch item (exact gradient of the sampled estimator — the
    ///   jump draws are parameter-independent).
    ///
    /// A shift-walk task is one item while the batch alone fills every
    /// worker; otherwise each item splits into contiguous occurrence
    /// chunks of about equal gate work, each re-walking its own prefix,
    /// so a one-item call still uses every worker. Shift-walk outputs are
    /// bit-identical to running the full raw schedule per shifted angle,
    /// folded in (item, occurrence) order whatever the chunking.
    ///
    /// # Errors
    ///
    /// Returns binding-length, readout- or backend-validation errors.
    pub fn forward_and_jacobian_batch_backend(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
        backend: &ExecutionBackend,
    ) -> Result<(Vec<Vec<f64>>, Vec<Jacobian>), RuntimeError> {
        backend.validate()?;
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        match backend {
            ExecutionBackend::Ideal => {
                let (fused, raw) = (prebind(compiled, params)?, prebind_raw(compiled, params)?);
                let forward = |item: &[f64]| run_prebound(&fused, item);
                self.shift_walk_batch(compiled, readout, inputs, &raw, forward, |_| {
                    |state: &StateVector, _| readout.evaluate(state).map_err(RuntimeError::from)
                })
            }
            ExecutionBackend::Sampled { shots, seed } => {
                let (fused, raw) = (prebind(compiled, params)?, prebind_raw(compiled, params)?);
                let forward = |item: &[f64]| run_prebound(&fused, item);
                self.shift_walk_batch(compiled, readout, inputs, &raw, forward, |item| {
                    let stream = item_streams(*seed, item, params);
                    move |state: &StateVector, at| {
                        sampled_readout(state, readout, *shots, stream(at))
                    }
                })
            }
            ExecutionBackend::Noisy { model, shots, seed } => {
                let pb = prebind_density(compiled, params, model)?;
                let forward = |item: &[f64]| run_density(&pb, item);
                self.shift_walk_batch(compiled, readout, inputs, &pb, forward, |item| {
                    let stream = item_streams(*seed, item, params);
                    move |rho: &DensityMatrix, at| density_readout(rho, readout, *shots, stream(at))
                })
            }
            // Each evaluation's exact Jacobian comes from one
            // per-trajectory adjoint sweep, with the forward outputs
            // bit-identical to the plain forward pass (same walk, same
            // streams).
            ExecutionBackend::Trajectory {
                model,
                samples,
                seed,
            } => {
                let pb = prebind_trajectory(compiled, params, model)?;
                let results = par::parallel_map(inputs, self.workers, |_, item| {
                    let eval_seed = ExecutionBackend::eval_seed(*seed, item, params, 0);
                    run_trajectory_adjoint(&pb, readout, item, *samples, eval_seed)
                });
                Ok(results.into_iter().unzip())
            }
        }
    }

    /// The shared body of the shift paths over the raw binding `raw`.
    /// `forward(item)` is the item's unshifted final register, and
    /// `reader(item)` builds the item's readout: it reads one final
    /// register out under the overridden `(raw index, angle)`, `None` for
    /// the forward pass. Bindings and readout are validated by the caller.
    fn shift_walk_batch<S, F, R, E>(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        raw: &S,
        forward: F,
        reader: R,
    ) -> Result<(Vec<Vec<f64>>, Vec<Jacobian>), RuntimeError>
    where
        S: ShiftSchedule + Sync,
        F: Fn(&[f64]) -> Result<S::Register, RuntimeError> + Sync,
        R: Fn(&[f64]) -> E + Sync,
        E: Fn(&S::Register, Option<(usize, f64)>) -> Result<Vec<f64>, RuntimeError>,
    {
        let params = raw.params();
        let occurrences = compiled.occurrences();
        let parts = if inputs.len() >= self.workers {
            1
        } else {
            self.workers.div_ceil(inputs.len().max(1))
        };
        let chunks = occurrence_chunks(compiled, parts);
        let tasks: Vec<(usize, usize)> = (0..inputs.len())
            .flat_map(|b| (0..chunks.len()).map(move |c| (b, c)))
            .collect();
        let results = par::try_parallel_map(&tasks, self.workers, |_, &(b, c)| {
            let item = inputs[b].as_slice();
            let eval = reader(item);
            let forward = if c == 0 {
                Some(eval(&forward(item)?, None)?)
            } else {
                None
            };
            let mut walk = ShiftWalk::new(raw, item);
            let mut grads = Vec::with_capacity(chunks[c].len());
            for occ in &occurrences[chunks[c].clone()] {
                walk.advance_to(occ.raw_idx)?;
                let theta = occurrence_angle(compiled, *occ, item, params)?;
                grads.push(shift_rule(theta, occ.controlled, |t| {
                    eval(walk.shifted(t)?, Some((occ.raw_idx, t)))
                })?);
            }
            Ok::<_, RuntimeError>((forward, grads))
        })?;

        let mut outputs = vec![Vec::new(); inputs.len()];
        let mut jacobians =
            vec![Jacobian::zeros(readout.output_len(), compiled.n_params()); inputs.len()];
        for (&(b, c), (forward, grads)) in tasks.iter().zip(results) {
            if let Some(out) = forward {
                outputs[b] = out;
            }
            for (occ, g) in occurrences[chunks[c].clone()].iter().zip(grads) {
                for (j, v) in g.into_iter().enumerate() {
                    *jacobians[b].get_mut(j, occ.param) += v;
                }
            }
        }
        Ok((outputs, jacobians))
    }
}

/// Splits the occurrence table into at most `parts` contiguous chunks of
/// about equal shift-walk work: an occurrence at raw index `k` forks
/// 2 (or 4, controlled) suffix runs of `G − k` gates. Always returns at
/// least one chunk, so a circuit without occurrences still gets its
/// forward task.
fn occurrence_chunks(compiled: &CompiledCircuit, parts: usize) -> Vec<Range<usize>> {
    let occurrences = compiled.occurrences();
    let gates = compiled.raw_schedule().len();
    let work = |occ: &Occurrence| (if occ.controlled { 4 } else { 2 }) * (gates - occ.raw_idx);
    let total: usize = occurrences.iter().map(work).sum();
    let parts = parts.clamp(1, occurrences.len().max(1));
    let mut chunks = Vec::with_capacity(parts);
    let (mut start, mut done) = (0, 0);
    for (o, occ) in occurrences.iter().enumerate() {
        done += work(occ);
        if chunks.len() + 1 < parts && done * parts >= total * (chunks.len() + 1) {
            chunks.push(start..o + 1);
            start = o + 1;
        }
    }
    chunks.push(start..occurrences.len());
    chunks
}

/// The sample-stream salt of an evaluation: 0 for the plain forward pass,
/// a mix of the overridden gate index and angle bits for shift
/// evaluations, so each distinct circuit instance draws its own stream.
fn override_salt(override_angle: Option<(usize, f64)>) -> u64 {
    match override_angle {
        None => 0,
        Some((idx, theta)) => (idx as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(theta.to_bits()),
    }
}

/// The sample-stream seeds of one item's evaluations: every evaluation
/// hashes the same bindings, so they are hashed once, and each
/// evaluation salts them with [`override_salt`].
fn item_streams(seed: u64, item: &[f64], params: &[f64]) -> impl Fn(Option<(usize, f64)>) -> u64 {
    let bindings = ExecutionBackend::bindings_hash(item, params);
    move |at| ExecutionBackend::salted_seed(seed, bindings, override_salt(at))
}

/// The `Sampled` readout of one final state: `shots` samples drawn from
/// the evaluation's content-addressed stream, seeded by `stream`
/// ([`ExecutionBackend::eval_seed`]).
fn sampled_readout(
    state: &StateVector,
    readout: &Readout,
    shots: usize,
    stream: u64,
) -> Result<Vec<f64>, RuntimeError> {
    let mut rng = StdRng::seed_from_u64(stream);
    readout
        .evaluate_shots(state, shots, &mut rng)
        .map_err(RuntimeError::from)
}

/// The `Noisy` readout of one final density matrix: exact, or `shots`
/// samples from the evaluation's content-addressed stream, seeded by
/// `stream` ([`ExecutionBackend::eval_seed`]).
fn density_readout(
    rho: &DensityMatrix,
    readout: &Readout,
    shots: Option<usize>,
    stream: u64,
) -> Result<Vec<f64>, RuntimeError> {
    match shots {
        None => readout.evaluate_density(rho),
        Some(s) => {
            let mut rng = StdRng::seed_from_u64(stream);
            readout.evaluate_shots_density(rho, s, &mut rng)
        }
    }
    .map_err(RuntimeError::from)
}

/// The base (unshifted) angle of an occurrence under the given bindings.
/// Compilation only records rotations as occurrences; any other gate is
/// reported as a typed error rather than trusted.
fn occurrence_angle(
    compiled: &CompiledCircuit,
    occ: Occurrence,
    inputs: &[f64],
    params: &[f64],
) -> Result<f64, RuntimeError> {
    match compiled.raw_schedule().get(occ.raw_idx) {
        Some(CGate::Rot { angle, .. } | CGate::CRot { angle, .. }) => {
            Ok(angle.value(inputs, params))
        }
        other => Err(RuntimeError::InvalidConfig(format!(
            "trainable occurrence at raw gate {} is not a rotation: {other:?}",
            occ.raw_idx
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use qmarl_qsim::noise::NoiseModel;
    use qmarl_vqc::ansatz::{init_params, layered_ansatz};
    use qmarl_vqc::encoder::layered_angle_encoder;
    use qmarl_vqc::grad::jacobian_parameter_shift;

    fn paper_circuit() -> qmarl_vqc::ir::Circuit {
        let mut c = layered_angle_encoder(4, 4).unwrap();
        c.append_shifted(&layered_ansatz(4, 20).unwrap()).unwrap();
        c
    }

    fn batch_inputs(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|b| (0..4).map(|i| 0.1 * (b * 4 + i) as f64 - 0.7).collect())
            .collect()
    }

    const IDEAL: ExecutionBackend = ExecutionBackend::Ideal;

    /// The `Ideal` forward batch.
    fn ideal_forward(
        ex: &BatchExecutor,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Vec<Vec<f64>> {
        let outs = ex.expectation_batch_backend(compiled, readout, inputs, params, &IDEAL);
        outs.unwrap()
    }

    /// The `Ideal` forward + parameter-shift Jacobian batch.
    fn ideal_shift(
        ex: &BatchExecutor,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> (Vec<Vec<f64>>, Vec<Jacobian>) {
        let outs = ex.forward_and_jacobian_batch_backend(compiled, readout, inputs, params, &IDEAL);
        outs.unwrap()
    }

    #[test]
    fn batch_matches_serial_interpreter() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 3);
        let inputs = batch_inputs(7);
        let readout = Readout::z_all(4);
        for workers in [1usize, 4] {
            let outs = ideal_forward(
                &BatchExecutor::new(workers),
                &compiled,
                &readout,
                &inputs,
                &params,
            );
            assert_eq!(outs.len(), inputs.len());
            for (item, out) in inputs.iter().zip(&outs) {
                let state = qmarl_vqc::exec::run(&circuit, item, &params).unwrap();
                for (a, b) in out.iter().zip(&readout.evaluate(&state).unwrap()) {
                    assert!((a - b).abs() < 1e-12, "workers {workers}");
                }
            }
        }
    }

    #[test]
    fn expectation_batch_matches_readout() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 5);
        let inputs = batch_inputs(5);
        let ex = BatchExecutor::new(3);
        for readout in [
            Readout::mean_z(4),
            Readout::WeightedZSum {
                weights: vec![0.4, -1.2, 0.1, 0.9],
            },
        ] {
            let outs = ideal_forward(&ex, &compiled, &readout, &inputs, &params);
            for (item, out) in inputs.iter().zip(&outs) {
                let reference = readout
                    .evaluate(&qmarl_vqc::exec::run(&circuit, item, &params).unwrap())
                    .unwrap();
                for (a, b) in out.iter().zip(&reference) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn adjoint_batch_prebound_matches_serial_adjoint_bit_exactly() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let readout = Readout::z_all(4);
        let param_sets: Vec<Vec<f64>> = (0..3).map(|g| init_params(20, 80 + g as u64)).collect();
        let inputs = batch_inputs(5);
        let prebound: Vec<_> = param_sets
            .iter()
            .map(|p| crate::prebound::prebind_adjoint(&compiled, p).unwrap())
            .collect();
        let groups: Vec<AdjointGroup<'_>> = prebound
            .iter()
            .map(|pa| AdjointGroup {
                circuit: pa,
                inputs: inputs.iter().map(|v| v.as_slice()).collect(),
            })
            .collect();
        for workers in [1usize, 4] {
            let ex = BatchExecutor::new(workers);
            let out = ex
                .forward_and_jacobian_batch_prebound(&readout, &groups)
                .unwrap();
            for (g, params) in param_sets.iter().enumerate() {
                assert_eq!(out[g].len(), inputs.len());
                for (item, (fwd, jac)) in inputs.iter().zip(&out[g]) {
                    let state = qmarl_vqc::exec::run(&circuit, item, params).unwrap();
                    let fwd_ref = readout.evaluate(&state).unwrap();
                    let jac_ref =
                        qmarl_vqc::grad::jacobian_adjoint(&circuit, &readout, item, params)
                            .unwrap();
                    assert_eq!(*fwd, fwd_ref, "group {g} workers {workers}");
                    assert_eq!(*jac, jac_ref, "group {g} workers {workers}");
                }
            }
        }
        // Arity errors are typed, not panics.
        let short = [0.0; 2];
        let bad = vec![AdjointGroup {
            circuit: &prebound[0],
            inputs: vec![&short],
        }];
        assert!(matches!(
            BatchExecutor::serial().forward_and_jacobian_batch_prebound(&readout, &bad),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
        let bad_readout = Readout::ZPerQubit { qubits: vec![9] };
        assert!(BatchExecutor::serial()
            .forward_and_jacobian_batch_prebound(&bad_readout, &groups)
            .is_err());
    }

    #[test]
    fn jacobian_batch_matches_vqc_parameter_shift() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 7);
        let inputs = batch_inputs(3);
        let readout = Readout::z_all(4);
        let (_, jacs) = ideal_shift(
            &BatchExecutor::new(4),
            &compiled,
            &readout,
            &inputs,
            &params,
        );
        for (item, jac) in inputs.iter().zip(&jacs) {
            let reference = jacobian_parameter_shift(&circuit, &readout, item, &params).unwrap();
            assert!(jac.max_abs_diff(&reference) < 1e-12);
        }
    }

    /// A circuit exercising every corner of the shift walk: an occurrence
    /// at raw index 0, controlled rotations (four-term rule) on two axes,
    /// parameters 0 and 2 each driving two occurrences, input rotations
    /// between occurrences, and an occurrence as the last gate.
    fn shift_corner_circuit() -> qmarl_vqc::ir::Circuit {
        use qmarl_qsim::gate::RotationAxis as Ax;
        use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId, ParamId};
        let mut c = Circuit::new(3);
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.rot(1, Ax::X, Angle::Input(InputId(0))).unwrap();
        c.fixed(2, FixedGate::H).unwrap();
        c.controlled_rot(0, 1, Ax::X, Angle::Param(ParamId(1)))
            .unwrap();
        c.cnot(1, 2).unwrap();
        c.rot(2, Ax::Z, Angle::Param(ParamId(2))).unwrap();
        c.cz(0, 2).unwrap();
        c.controlled_rot(2, 0, Ax::Z, Angle::Param(ParamId(3)))
            .unwrap();
        c.rot(1, Ax::Y, Angle::Input(InputId(1))).unwrap();
        c.rot(0, Ax::Y, Angle::Param(ParamId(0))).unwrap();
        c.rot(2, Ax::X, Angle::Param(ParamId(2))).unwrap();
        c
    }

    /// Input rotations and constants only: no trainable occurrence.
    fn untrainable_circuit() -> qmarl_vqc::ir::Circuit {
        use qmarl_qsim::gate::RotationAxis as Ax;
        use qmarl_vqc::ir::{Angle, Circuit, FixedGate, InputId};
        let mut c = Circuit::new(2);
        c.rot(0, Ax::Y, Angle::Input(InputId(0))).unwrap();
        c.fixed(1, FixedGate::H).unwrap();
        c.cnot(0, 1).unwrap();
        c.rot(1, Ax::Z, Angle::Const(0.3)).unwrap();
        c.rot(0, Ax::X, Angle::Input(InputId(1))).unwrap();
        c
    }

    fn inputs_for(compiled: &CompiledCircuit, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|b| {
                (0..compiled.n_inputs())
                    .map(|i| 0.37 * (b * 3 + i) as f64 - 1.1)
                    .collect()
            })
            .collect()
    }

    /// The naive reference of the shift paths: the forward pass on the
    /// prebound fused schedule, and every shifted angle run through the
    /// **full** raw schedule from `|0…0⟩`, folded in occurrence order.
    fn naive_shift_reference(
        compiled: &CompiledCircuit,
        readout: &Readout,
        item: &[f64],
        params: &[f64],
        eval: impl Fn(&StateVector, Option<(usize, f64)>) -> Vec<f64>,
    ) -> (Vec<f64>, Jacobian) {
        let fused = crate::prebound::run_prebound(&prebind(compiled, params).unwrap(), item);
        let forward = eval(&fused.unwrap(), None);
        let mut jac = Jacobian::zeros(readout.output_len(), compiled.n_params());
        for &occ in compiled.occurrences() {
            let theta = occurrence_angle(compiled, occ, item, params).unwrap();
            let grads = shift_rule(theta, occ.controlled, |t| {
                let state =
                    crate::prebound::run_raw_with_override(compiled, item, params, occ.raw_idx, t);
                Ok::<_, RuntimeError>(eval(&state, Some((occ.raw_idx, t))))
            })
            .unwrap();
            for (j, g) in grads.into_iter().enumerate() {
                *jac.get_mut(j, occ.param) += g;
            }
        }
        (forward, jac)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn jac_bits(jac: &Jacobian) -> Vec<u64> {
        (0..jac.n_outputs())
            .flat_map(|j| bits(jac.row(j)))
            .collect()
    }

    #[test]
    fn sampled_shift_walk_is_bit_identical_to_full_raw_runs() {
        let backend = ExecutionBackend::Sampled {
            shots: 64,
            seed: 21,
        };
        let paper = paper_circuit();
        let cases = [
            (shift_corner_circuit(), vec![0.4, -0.8, 1.7, 0.3]),
            (untrainable_circuit(), Vec::new()),
            (paper, init_params(20, 43)),
        ];
        for (circuit, params) in &cases {
            let compiled = compile(circuit);
            let n = compiled.n_qubits();
            for readout in [
                Readout::z_all(n),
                Readout::WeightedZSum {
                    weights: (0..n).map(|q| 0.5 - 0.3 * q as f64).collect(),
                },
            ] {
                for batch in [1usize, 7] {
                    let inputs = inputs_for(&compiled, batch);
                    let reference: Vec<(Vec<f64>, Jacobian)> = inputs
                        .iter()
                        .map(|item| {
                            naive_shift_reference(&compiled, &readout, item, params, |state, at| {
                                let stream = ExecutionBackend::eval_seed(
                                    21,
                                    item,
                                    params,
                                    override_salt(at),
                                );
                                sampled_readout(state, &readout, 64, stream).unwrap()
                            })
                        })
                        .collect();
                    for workers in [1usize, 2, 4] {
                        let (outs, jacs) = BatchExecutor::new(workers)
                            .forward_and_jacobian_batch_backend(
                                &compiled, &readout, &inputs, params, &backend,
                            )
                            .unwrap();
                        for (b, ((out, jac), (out_ref, jac_ref))) in
                            outs.iter().zip(&jacs).zip(&reference).enumerate()
                        {
                            let at = format!(
                                "{} occurrences, batch {batch}, workers {workers}, item {b}",
                                compiled.occurrences().len()
                            );
                            assert_eq!(bits(out), bits(out_ref), "forward: {at}");
                            assert_eq!(jac_bits(jac), jac_bits(jac_ref), "jacobian: {at}");
                        }
                    }
                }
            }
        }
    }

    /// The naive reference of the `Noisy` gradient: one full density walk
    /// per forward pass and per ±shift evaluation (op `k` rebound), folded
    /// in occurrence order.
    fn naive_noisy_reference(
        compiled: &CompiledCircuit,
        readout: &Readout,
        item: &[f64],
        params: &[f64],
        (model, shots, seed): (&NoiseModel, Option<usize>, u64),
    ) -> (Vec<f64>, Jacobian) {
        let pb = prebind_density(compiled, params, model).unwrap();
        let eval = |at: Option<(usize, f64)>| {
            let rho = match at {
                None => run_density(&pb, item),
                Some((k, t)) => crate::superop::run_density_rebound(&pb, item, k, t),
            };
            let stream = ExecutionBackend::eval_seed(seed, item, params, override_salt(at));
            density_readout(&rho.unwrap(), readout, shots, stream).unwrap()
        };
        let mut jac = Jacobian::zeros(readout.output_len(), compiled.n_params());
        for &occ in compiled.occurrences() {
            let theta = occurrence_angle(compiled, occ, item, params).unwrap();
            let grads = shift_rule(theta, occ.controlled, |t| {
                Ok::<_, RuntimeError>(eval(Some((occ.raw_idx, t))))
            })
            .unwrap();
            for (j, g) in grads.into_iter().enumerate() {
                *jac.get_mut(j, occ.param) += g;
            }
        }
        (eval(None), jac)
    }

    #[test]
    fn noisy_shift_walk_is_bit_identical_to_full_density_runs() {
        let model = NoiseModel::depolarizing(0.01, 0.02).unwrap();
        let cases = [
            (shift_corner_circuit(), vec![0.4, -0.8, 1.7, 0.3]),
            (untrainable_circuit(), Vec::new()),
            (paper_circuit(), init_params(20, 47)),
        ];
        for shots in [None, Some(64)] {
            let backend = ExecutionBackend::Noisy {
                model,
                shots,
                seed: 13,
            };
            for (circuit, params) in &cases {
                let compiled = compile(circuit);
                let n = compiled.n_qubits();
                for readout in [
                    Readout::z_all(n),
                    Readout::WeightedZSum {
                        weights: (0..n).map(|q| 0.5 - 0.3 * q as f64).collect(),
                    },
                ] {
                    for batch in [1usize, 3] {
                        let inputs = inputs_for(&compiled, batch);
                        let reference: Vec<(Vec<f64>, Jacobian)> = inputs
                            .iter()
                            .map(|item| {
                                let noise = (&model, shots, 13);
                                naive_noisy_reference(&compiled, &readout, item, params, noise)
                            })
                            .collect();
                        for workers in [1usize, 2, 4] {
                            let (outs, jacs) = BatchExecutor::new(workers)
                                .forward_and_jacobian_batch_backend(
                                    &compiled, &readout, &inputs, params, &backend,
                                )
                                .unwrap();
                            for (b, ((out, jac), (out_ref, jac_ref))) in
                                outs.iter().zip(&jacs).zip(&reference).enumerate()
                            {
                                let at = format!(
                                    "shots {shots:?}, {} occurrences, batch {batch}, \
                                     workers {workers}, item {b}",
                                    compiled.occurrences().len()
                                );
                                assert_eq!(bits(out), bits(out_ref), "forward: {at}");
                                assert_eq!(jac_bits(jac), jac_bits(jac_ref), "jacobian: {at}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn noisy_shot_gradients_are_worker_count_invariant() {
        // One item splits into occurrence chunks across workers; three
        // items do not (at four workers) — both must fold identically.
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 53);
        let readout = Readout::z_all(4);
        let backend = ExecutionBackend::Noisy {
            model: NoiseModel::depolarizing(0.01, 0.02).unwrap(),
            shots: Some(128),
            seed: 9,
        };
        for batch in [1usize, 3] {
            let inputs = batch_inputs(batch);
            let run = |ex: BatchExecutor| {
                ex.forward_and_jacobian_batch_backend(
                    &compiled, &readout, &inputs, &params, &backend,
                )
                .unwrap()
            };
            let (fwd_serial, jac_serial) = run(BatchExecutor::serial());
            let (fwd_par, jac_par) = run(BatchExecutor::new(4));
            assert_eq!(fwd_serial.len(), batch);
            for (a, b) in fwd_serial.iter().zip(&fwd_par) {
                assert_eq!(bits(a), bits(b), "forward, batch {batch}");
            }
            for (a, b) in jac_serial.iter().zip(&jac_par) {
                assert_eq!(jac_bits(a), jac_bits(b), "jacobian, batch {batch}");
            }
        }
    }

    #[test]
    fn ideal_shift_walk_matches_full_raw_runs_and_vqc_parameter_shift() {
        let cases = [
            (shift_corner_circuit(), vec![0.4, -0.8, 1.7, 0.3]),
            (untrainable_circuit(), Vec::new()),
        ];
        for (circuit, params) in &cases {
            let compiled = compile(circuit);
            let readout = Readout::z_all(compiled.n_qubits());
            for batch in [1usize, 7] {
                let inputs = inputs_for(&compiled, batch);
                for workers in [1usize, 2, 4] {
                    let ex = BatchExecutor::new(workers);
                    let (outs, jacs) = ideal_shift(&ex, &compiled, &readout, &inputs, params);
                    for (b, item) in inputs.iter().enumerate() {
                        let (out_ref, jac_ref) =
                            naive_shift_reference(&compiled, &readout, item, params, |state, _| {
                                readout.evaluate(state).unwrap()
                            });
                        let at = format!("batch {batch}, workers {workers}, item {b}");
                        assert_eq!(bits(&outs[b]), bits(&out_ref), "forward: {at}");
                        assert_eq!(jac_bits(&jacs[b]), jac_bits(&jac_ref), "jacobian: {at}");
                        let vqc =
                            jacobian_parameter_shift(circuit, &readout, item, params).unwrap();
                        assert!(jacs[b].max_abs_diff(&vqc) < 1e-12, "vqc oracle: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn occurrence_chunks_cover_the_table_contiguously() {
        let compiled = compile(&paper_circuit());
        let occurrences = compiled.occurrences().len();
        for parts in [1usize, 2, 3, 4, 8, occurrences, 10 * occurrences] {
            let chunks = occurrence_chunks(&compiled, parts);
            assert_eq!(chunks.len(), parts.min(occurrences), "parts {parts}");
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks.last().unwrap().end, occurrences);
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "parts {parts}");
            }
        }
        let none = compile(&untrainable_circuit());
        assert_eq!(occurrence_chunks(&none, 4), vec![0..0]);
    }

    #[test]
    fn forward_and_jacobian_fused_queue() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 9);
        let inputs = batch_inputs(4);
        let readout = Readout::mean_z(4);
        let ex = BatchExecutor::new(4);
        let (outs, jacs) = ideal_shift(&ex, &compiled, &readout, &inputs, &params);
        // The shift walk's single-state forward pass and the slab forward
        // batch read the same prebound schedule out bit for bit.
        assert_eq!(
            outs,
            ideal_forward(&ex, &compiled, &readout, &inputs, &params)
        );
        for (item, jac) in inputs.iter().zip(&jacs) {
            let (_, single) = ideal_shift(
                &ex,
                &compiled,
                &readout,
                std::slice::from_ref(item),
                &params,
            );
            assert!(
                jac.max_abs_diff(&single[0]) == 0.0,
                "same fold order must be bit-identical"
            );
        }
    }

    #[test]
    fn serial_and_parallel_executors_agree_exactly() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 11);
        let inputs = batch_inputs(6);
        let readout = Readout::z_all(4);
        let serial = BatchExecutor::serial();
        let parallel = BatchExecutor::new(8);
        assert_eq!(
            ideal_forward(&serial, &compiled, &readout, &inputs, &params),
            ideal_forward(&parallel, &compiled, &readout, &inputs, &params),
        );
        let (_, js) = ideal_shift(&serial, &compiled, &readout, &inputs, &params);
        let (_, jp) = ideal_shift(&parallel, &compiled, &readout, &inputs, &params);
        for (a, b) in js.iter().zip(&jp) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn sampled_backend_is_worker_count_invariant() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 17);
        let inputs = batch_inputs(6);
        let readout = Readout::z_all(4);
        let backend = ExecutionBackend::Sampled {
            shots: 256,
            seed: 5,
        };
        let reference = BatchExecutor::serial()
            .expectation_batch_backend(&compiled, &readout, &inputs, &params, &backend)
            .unwrap();
        let (fwd_ref, jac_ref) = BatchExecutor::serial()
            .forward_and_jacobian_batch_backend(&compiled, &readout, &inputs, &params, &backend)
            .unwrap();
        for workers in [4usize, 8] {
            let ex = BatchExecutor::new(workers);
            assert_eq!(
                ex.expectation_batch_backend(&compiled, &readout, &inputs, &params, &backend)
                    .unwrap(),
                reference,
                "workers={workers}"
            );
            let (fwd, jac) = ex
                .forward_and_jacobian_batch_backend(&compiled, &readout, &inputs, &params, &backend)
                .unwrap();
            assert_eq!(fwd, fwd_ref, "workers={workers}");
            for (a, b) in jac.iter().zip(&jac_ref) {
                assert_eq!(a.max_abs_diff(b), 0.0, "workers={workers}");
            }
        }
        // The sampled expectations really are noisy, not exact.
        let exact = ideal_forward(
            &BatchExecutor::serial(),
            &compiled,
            &readout,
            &inputs,
            &params,
        );
        assert_ne!(reference, exact);
        // A different root seed draws a different stream.
        let reseeded = BatchExecutor::serial()
            .expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Sampled {
                    shots: 256,
                    seed: 6,
                },
            )
            .unwrap();
        assert_ne!(reference, reseeded);
    }

    #[test]
    fn sampled_backend_converges_to_ideal() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 19);
        let inputs = batch_inputs(3);
        let readout = Readout::z_all(4);
        let ex = BatchExecutor::default();
        let exact = ideal_forward(&ex, &compiled, &readout, &inputs, &params);
        let shots = 100_000;
        let sampled = ex
            .expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Sampled { shots, seed: 3 },
            )
            .unwrap();
        for (b, (est, reference)) in sampled.iter().zip(&exact).enumerate() {
            for (q, (a, e)) in est.iter().zip(reference).enumerate() {
                let se = qmarl_qsim::shots::z_standard_error(*e, shots).max(1e-4);
                assert!(
                    (a - e).abs() < 6.0 * se,
                    "sample {b} wire {q}: {a} vs {e} (6σ = {})",
                    6.0 * se
                );
            }
        }
    }

    #[test]
    fn noisy_backend_matches_vqc_run_noisy() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 23);
        let inputs = batch_inputs(3);
        let readout = Readout::z_all(4);
        let noise = qmarl_qsim::noise::NoiseModel::depolarizing(0.002, 0.005).unwrap();
        let backend = ExecutionBackend::Noisy {
            model: noise,
            shots: None,
            seed: 0,
        };
        let ex = BatchExecutor::new(4);
        let outs = ex
            .expectation_batch_backend(&compiled, &readout, &inputs, &params, &backend)
            .unwrap();
        for (item, out) in inputs.iter().zip(&outs) {
            let rho = qmarl_vqc::exec::run_noisy(&circuit, item, &params, &noise).unwrap();
            let reference = readout.evaluate_density(&rho).unwrap();
            for (a, b) in out.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-12);
            }
        }
        // Noisy parameter-shift gradients exist and deviate from ideal.
        let (_, jacs) = ex
            .forward_and_jacobian_batch_backend(&compiled, &readout, &inputs, &params, &backend)
            .unwrap();
        let (_, ideal_jacs) = ideal_shift(&ex, &compiled, &readout, &inputs, &params);
        assert!(jacs
            .iter()
            .zip(&ideal_jacs)
            .any(|(a, b)| a.max_abs_diff(b) > 1e-6));
        // Noisy + shots is deterministic under the derived-seed contract.
        let with_shots = ExecutionBackend::Noisy {
            model: noise,
            shots: Some(128),
            seed: 11,
        };
        let a = ex
            .expectation_batch_backend(&compiled, &readout, &inputs, &params, &with_shots)
            .unwrap();
        let b = BatchExecutor::serial()
            .expectation_batch_backend(&compiled, &readout, &inputs, &params, &with_shots)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trajectory_backend_is_worker_count_invariant_and_deterministic() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 29);
        let inputs = batch_inputs(4);
        let readout = Readout::z_all(4);
        let noise = qmarl_qsim::noise::NoiseModel::depolarizing(0.01, 0.02).unwrap();
        let backend = ExecutionBackend::Trajectory {
            model: noise,
            samples: 24,
            seed: 3,
        };
        let reference = BatchExecutor::serial()
            .expectation_batch_backend(&compiled, &readout, &inputs, &params, &backend)
            .unwrap();
        let (fwd_ref, jac_ref) = BatchExecutor::serial()
            .forward_and_jacobian_batch_backend(&compiled, &readout, &inputs, &params, &backend)
            .unwrap();
        for workers in [4usize, 8] {
            let ex = BatchExecutor::new(workers);
            assert_eq!(
                ex.expectation_batch_backend(&compiled, &readout, &inputs, &params, &backend)
                    .unwrap(),
                reference,
                "workers={workers}"
            );
            let (fwd, jac) = ex
                .forward_and_jacobian_batch_backend(&compiled, &readout, &inputs, &params, &backend)
                .unwrap();
            assert_eq!(fwd, fwd_ref, "workers={workers}");
            for (a, b) in jac.iter().zip(&jac_ref) {
                assert_eq!(a.max_abs_diff(b), 0.0, "workers={workers}");
            }
        }
        // A different root seed draws different error streams.
        let reseeded = BatchExecutor::serial()
            .expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Trajectory {
                    model: noise,
                    samples: 24,
                    seed: 4,
                },
            )
            .unwrap();
        assert_ne!(reference, reseeded);
    }

    #[test]
    fn noiseless_trajectory_backend_matches_ideal() {
        // With no channels every trajectory is the pure state, so even a
        // tiny sample count reproduces the ideal expectations exactly.
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 31);
        let inputs = batch_inputs(3);
        let readout = Readout::z_all(4);
        let ex = BatchExecutor::new(4);
        let traj = ex
            .expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Trajectory {
                    model: qmarl_qsim::noise::NoiseModel::noiseless(),
                    samples: 3,
                    seed: 0,
                },
            )
            .unwrap();
        let ideal = ideal_forward(&ex, &compiled, &readout, &inputs, &params);
        for (a, b) in traj.iter().flatten().zip(ideal.iter().flatten()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trajectory_backend_converges_to_the_noisy_density() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 37);
        let inputs = batch_inputs(2);
        let readout = Readout::z_all(4);
        let noise = qmarl_qsim::noise::NoiseModel::depolarizing(0.01, 0.02).unwrap();
        let ex = BatchExecutor::default();
        let exact = ex
            .expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Noisy {
                    model: noise,
                    shots: None,
                    seed: 0,
                },
            )
            .unwrap();
        let samples = 4096;
        let traj = ex
            .expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Trajectory {
                    model: noise,
                    samples,
                    seed: 13,
                },
            )
            .unwrap();
        for (b, (est, reference)) in traj.iter().zip(&exact).enumerate() {
            for (q, (a, e)) in est.iter().zip(reference).enumerate() {
                let se = qmarl_qsim::shots::z_standard_error(*e, samples).max(1e-4);
                assert!(
                    (a - e).abs() < 6.0 * se,
                    "sample {b} wire {q}: {a} vs {e} (6σ = {})",
                    6.0 * se
                );
            }
        }
    }

    #[test]
    fn backend_queue_validates_bindings() {
        let compiled = compile(&paper_circuit());
        let readout = Readout::z_all(4);
        let ex = BatchExecutor::default();
        let backend = ExecutionBackend::Sampled { shots: 8, seed: 0 };
        let bad = vec![vec![0.0; 3]];
        assert!(ex
            .expectation_batch_backend(&compiled, &readout, &bad, &init_params(20, 0), &backend)
            .is_err());
        let good = vec![vec![0.0; 4]];
        assert!(ex
            .forward_and_jacobian_batch_backend(&compiled, &readout, &good, &[0.0; 3], &backend)
            .is_err());
    }

    #[test]
    fn bad_bindings_rejected() {
        let compiled = compile(&paper_circuit());
        let ex = BatchExecutor::default();
        let (readout, ideal) = (Readout::z_all(4), IDEAL);
        let params = init_params(20, 0);
        let bad = vec![vec![0.0; 3]];
        assert!(matches!(
            ex.expectation_batch_backend(&compiled, &readout, &bad, &params, &ideal),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
        let good = vec![vec![0.0; 4]];
        assert!(matches!(
            ex.expectation_batch_backend(&compiled, &readout, &good, &[0.0; 19], &ideal),
            Err(RuntimeError::ParamLenMismatch { .. })
        ));
        let bad_readout = Readout::ZPerQubit { qubits: vec![7] };
        assert!(ex
            .expectation_batch_backend(&compiled, &bad_readout, &good, &params, &ideal)
            .is_err());
        assert!(ex
            .forward_and_jacobian_batch_backend(&compiled, &bad_readout, &good, &params, &ideal)
            .is_err());
        // The prebound queue types its arity errors too.
        let pb = prebind(&compiled, &params).unwrap();
        let short = [0.0; 2];
        let group = PreboundGroup {
            circuit: &pb,
            inputs: vec![&short],
        };
        assert!(matches!(
            ex.expectation_batch_prebound(&readout, &[group]),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
    }

    #[test]
    fn executor_worker_configuration() {
        assert_eq!(BatchExecutor::serial().workers(), 1);
        assert!(BatchExecutor::new(0).workers() >= 1);
        assert_eq!(BatchExecutor::new(5).workers(), 5);
    }
}
