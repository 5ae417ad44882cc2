//! The batched executor: B statevectors over one shared schedule.
//!
//! Policy evaluation over a replay minibatch, per-agent evaluation at one
//! timestep, and the parameter-shift rule's ±π/2 fan-out are all "run the
//! same compiled schedule under many bindings". [`BatchExecutor`] turns
//! each of those into a flat work queue drained by the shared
//! [`qmarl_qsim::par`] scheduler:
//!
//! * [`BatchExecutor::run_batch`] — final states for B input vectors
//!   under shared parameters,
//! * [`BatchExecutor::run_batch_with_params`] — per-item parameters too
//!   (N agents with identical circuit shape but private weights),
//! * [`BatchExecutor::expectation_batch`] — readout vectors instead of
//!   raw states,
//! * [`BatchExecutor::jacobian_batch`] /
//!   [`BatchExecutor::forward_and_jacobian_batch`] — the batched
//!   parameter-shift path: **every** shift evaluation of every minibatch
//!   sample is one task in a single queue, so a 4-sample × 48-parameter
//!   gradient sweep keeps every core busy instead of parallelising only
//!   within one sample.
//!
//! Results are folded in deterministic (input, occurrence) order, so
//! batched outputs are bit-identical to their serial counterparts.

use qmarl_qsim::par;
use qmarl_qsim::state::StateVector;
use qmarl_vqc::grad::Jacobian;
use qmarl_vqc::observable::Readout;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::ExecutionBackend;
use crate::compile::{CGate, CompiledCircuit, Occurrence};
use crate::error::RuntimeError;
use crate::exec::{check_bindings, run_raw_with_override, run_schedule_unchecked};
use crate::prebound::{
    readouts_from_slab, run_adjoint_slab, run_prebound_slab_raw, PreboundAdjoint, PreboundCircuit,
};
use crate::superop::{
    extract_lane, prebind_density, run_density, run_density_slab, DensityPrebound,
};
use crate::trajectory::{
    prebind_trajectory, run_trajectory_adjoint, trajectory_outputs, TrajPrebound,
};
use qmarl_qsim::density::DensityMatrix;

/// One shared-parameter group of a prebound batch: a frozen schedule plus
/// the input vectors to run under it.
#[derive(Debug)]
pub struct PreboundGroup<'a> {
    /// The parameter-prebound schedule (see [`crate::prebound::prebind`]).
    pub circuit: &'a PreboundCircuit,
    /// Input vectors, as slices into caller-owned storage.
    pub inputs: Vec<&'a [f64]>,
}

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

    /// Runs the fused schedule for every input vector under shared
    /// parameters, returning final states in input order.
    ///
    /// # Errors
    ///
    /// Returns a binding-length error naming the first offending item.
    pub fn run_batch(
        &self,
        compiled: &CompiledCircuit,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<StateVector>, RuntimeError> {
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        Ok(par::parallel_map(inputs, self.workers, |_, item| {
            run_schedule_unchecked(compiled.n_qubits(), compiled.fused_schedule(), item, params)
        }))
    }

    /// Runs the fused schedule for every `(inputs, params)` pair — the
    /// multi-agent case: one circuit shape, per-agent weights.
    ///
    /// # Errors
    ///
    /// Returns a binding-length error naming the first offending pair.
    pub fn run_batch_with_params(
        &self,
        compiled: &CompiledCircuit,
        bindings: &[(Vec<f64>, Vec<f64>)],
    ) -> Result<Vec<StateVector>, RuntimeError> {
        for (inputs, params) in bindings {
            check_bindings(compiled, inputs, params)?;
        }
        Ok(par::parallel_map(
            bindings,
            self.workers,
            |_, (inputs, params)| {
                run_schedule_unchecked(
                    compiled.n_qubits(),
                    compiled.fused_schedule(),
                    inputs,
                    params,
                )
            },
        ))
    }

    /// Batched forward pass through a readout: one output vector per
    /// input vector.
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn expectation_batch(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        par::try_parallel_map(inputs, self.workers, |_, item| {
            let state = run_schedule_unchecked(
                compiled.n_qubits(),
                compiled.fused_schedule(),
                item,
                params,
            );
            readout.evaluate(&state).map_err(RuntimeError::from)
        })
    }

    /// Batched forward pass through a readout with **per-item parameters
    /// by reference** — the vectorized rollout hot path, where one tick
    /// contributes `lanes × agents` circuit evaluations whose inputs and
    /// parameters are slices into caller-owned slabs (no per-item
    /// allocation or parameter cloning).
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn expectation_batch_with_params(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        bindings: &[(&[f64], &[f64])],
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        readout.validate(compiled.n_qubits())?;
        for (inputs, params) in bindings {
            check_bindings(compiled, inputs, params)?;
        }
        par::try_parallel_map(bindings, self.workers, |_, &(inputs, params)| {
            let state = run_schedule_unchecked(
                compiled.n_qubits(),
                compiled.fused_schedule(),
                inputs,
                params,
            );
            readout.evaluate(&state).map_err(RuntimeError::from)
        })
    }

    /// Batched forward pass over **prebound** schedules, grouped by
    /// parameter set — the vectorized rollout tick. Each group's frozen
    /// parameters were resolved once by [`crate::prebound::prebind`]
    /// (hoisting all parameter-only trig); a task runs a contiguous lane
    /// chunk of one group through a single slab schedule walk, and the
    /// whole tick's chunks form one flat work queue. Outputs come back
    /// per group, per item, bit-identical to
    /// [`BatchExecutor::expectation_batch`] under the same bindings
    /// (lanes are independent, so chunking cannot change any value).
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn expectation_batch_prebound(
        &self,
        readout: &Readout,
        groups: &[PreboundGroup<'_>],
    ) -> Result<Vec<Vec<Vec<f64>>>, RuntimeError> {
        let mut total_items = 0usize;
        for group in groups {
            readout.validate(group.circuit.n_qubits())?;
            total_items += group.inputs.len();
            for inputs in &group.inputs {
                if inputs.len() != group.circuit.n_inputs() {
                    return Err(RuntimeError::InputLenMismatch {
                        expected: group.circuit.n_inputs(),
                        actual: inputs.len(),
                    });
                }
            }
        }
        // One task per (group, lane chunk): big enough to amortise the
        // slab walk, small enough to fill every worker.
        let chunk = (total_items / self.workers.max(1)).clamp(1, 64);
        let tasks: Vec<(usize, usize, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| {
                (0..group.inputs.len())
                    .step_by(chunk)
                    .map(move |start| (g, start, (start + chunk).min(group.inputs.len())))
            })
            .collect();
        // Readout validation already ran, so the per-task work is
        // infallible: walk the chunk's slab once, then fold each lane's
        // readout straight off it.
        let results: Vec<Vec<Vec<f64>>> =
            par::parallel_map(&tasks, self.workers, |_, &(g, start, end)| {
                let chunk_inputs = &groups[g].inputs[start..end];
                let slab = run_prebound_slab_raw(groups[g].circuit, chunk_inputs);
                readouts_from_slab(readout, &slab, chunk_inputs.len())
            });
        let mut out: Vec<Vec<Vec<f64>>> = groups
            .iter()
            .map(|group| Vec::with_capacity(group.inputs.len()))
            .collect();
        for (&(g, _, _), chunk_results) in tasks.iter().zip(results) {
            out[g].extend(chunk_results);
        }
        Ok(out)
    }

    /// Batched **prebound adjoint** forward + Jacobian, grouped by
    /// parameter set — the update-sweep hot path. Each group's frozen
    /// parameters were resolved once by
    /// [`crate::prebound::prebind_adjoint`] (hoisting every
    /// parameter-only rotation's forward *and* inverse trig); a task runs
    /// a contiguous lane chunk of one group through a single
    /// forward-walk-plus-reverse-sweep pair, and the whole batch's chunks
    /// form one flat work queue. Per lane the result is **bit-identical**
    /// to the serial model-path adjoint
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
        let mut total_items = 0usize;
        for group in groups {
            readout.validate(group.circuit.n_qubits())?;
            total_items += group.inputs.len();
            for inputs in &group.inputs {
                if inputs.len() != group.circuit.n_inputs() {
                    return Err(RuntimeError::InputLenMismatch {
                        expected: group.circuit.n_inputs(),
                        actual: inputs.len(),
                    });
                }
            }
        }
        // One task per (group, lane chunk): the adjoint walk keeps
        // (2 + outputs) slabs live, so chunks stay small enough for cache
        // while still amortising the per-walk dispatch.
        let chunk = (total_items / self.workers.max(1)).clamp(1, 32);
        let tasks: Vec<(usize, usize, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| {
                (0..group.inputs.len())
                    .step_by(chunk)
                    .map(move |start| (g, start, (start + chunk).min(group.inputs.len())))
            })
            .collect();
        let results: Vec<Vec<(Vec<f64>, Jacobian)>> =
            par::parallel_map(&tasks, self.workers, |_, &(g, start, end)| {
                run_adjoint_slab(groups[g].circuit, readout, &groups[g].inputs[start..end])
            });
        let mut out: AdjointBatchResults = groups
            .iter()
            .map(|group| Vec::with_capacity(group.inputs.len()))
            .collect();
        for (&(g, _, _), chunk_results) in tasks.iter().zip(results) {
            out[g].extend(chunk_results);
        }
        Ok(out)
    }

    /// Batched forward pass under an [`ExecutionBackend`]: one readout
    /// vector per input vector. `Ideal` delegates to
    /// [`BatchExecutor::expectation_batch`] and is bit-identical to it;
    /// the stochastic backends are worker-count invariant by the
    /// content-addressed seed derivation (see [`crate::backend`]).
    ///
    /// `Noisy` prebinds the superoperator schedule once and runs the
    /// batch as lane **chunks** of one density slab walk per task
    /// (lanes are independent, so chunking cannot change any value);
    /// `Sampled` and `Trajectory` evaluations are one task each — a
    /// trajectory evaluation already fills a slab with its samples.
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
        if backend.is_ideal() {
            return self.expectation_batch(compiled, readout, inputs, params);
        }
        backend.validate()?;
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        let prep = BackendPrep::new(compiled, params, backend)?;
        if let (ExecutionBackend::Noisy { shots, seed, .. }, BackendPrep::Density(pb)) =
            (backend, &prep)
        {
            // Lane-chunked slab walk. The chunk cap stays small: an
            // 8-qubit density lane is 65 536 amplitudes, so 16 lanes keep
            // the slab around cache-friendly sizes.
            let chunk = (inputs.len() / self.workers.max(1)).clamp(1, 16);
            let tasks: Vec<(usize, usize)> = (0..inputs.len())
                .step_by(chunk)
                .map(|start| (start, (start + chunk).min(inputs.len())))
                .collect();
            let results = par::try_parallel_map(&tasks, self.workers, |_, &(start, end)| {
                let lane_inputs: Vec<&[f64]> =
                    inputs[start..end].iter().map(|v| v.as_slice()).collect();
                let lanes = lane_inputs.len();
                let slab = run_density_slab(pb, &lane_inputs, None);
                let mut out = Vec::with_capacity(lanes);
                for lane in 0..lanes {
                    let rho = DensityMatrix::from_flat(
                        compiled.n_qubits(),
                        extract_lane(&slab, lanes, lane),
                    );
                    let vals = match shots {
                        None => readout.evaluate_density(&rho)?,
                        Some(s) => {
                            let mut rng = StdRng::seed_from_u64(ExecutionBackend::eval_seed(
                                *seed,
                                &inputs[start + lane],
                                params,
                                0,
                            ));
                            readout.evaluate_shots_density(&rho, *s, &mut rng)?
                        }
                    };
                    out.push(vals);
                }
                Ok::<_, RuntimeError>(out)
            })?;
            return Ok(results.into_iter().flatten().collect());
        }
        par::try_parallel_map(inputs, self.workers, |_, item| {
            backend_eval(compiled, readout, item, params, backend, &prep, None)
        })
    }

    /// Batched forward **and** Jacobian under an [`ExecutionBackend`] —
    /// the gradient path of the stochastic backends. Under
    /// `Sampled`/`Noisy`, every forward and every ±shift evaluation of
    /// the whole minibatch is one parameter-shift task, so the resulting
    /// gradients carry exactly the noise hardware execution would.
    /// `Trajectory` instead runs one **per-trajectory adjoint** task per
    /// minibatch item (exact gradient of the sampled estimator — the jump
    /// draws are parameter-independent). `Ideal` delegates to
    /// [`BatchExecutor::forward_and_jacobian_batch`] and is bit-identical
    /// to it.
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
        if backend.is_ideal() {
            return self.forward_and_jacobian_batch(compiled, readout, inputs, params);
        }
        backend.validate()?;
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        let prep = BackendPrep::new(compiled, params, backend)?;
        // Trajectory gradients skip the shift queue entirely: the jump
        // draws are parameter-independent, so each evaluation's exact
        // Jacobian comes from one per-trajectory adjoint sweep
        // ([`crate::trajectory::run_trajectory_adjoint`]) — one task per
        // minibatch item, with the forward outputs bit-identical to the
        // plain forward pass (same walk, same streams).
        if let (ExecutionBackend::Trajectory { samples, seed, .. }, BackendPrep::Traj(pb)) =
            (backend, &prep)
        {
            let results = par::try_parallel_map(inputs, self.workers, |_, item| {
                let eval_seed = ExecutionBackend::eval_seed(*seed, item, params, 0);
                Ok::<_, RuntimeError>(run_trajectory_adjoint(
                    pb, readout, item, *samples, eval_seed,
                ))
            })?;
            return Ok(results.into_iter().unzip());
        }
        let occurrences = compiled.occurrences();
        // Task id: b * (occurrences + 1); offset 0 = forward pass.
        let per_sample = occurrences.len() + 1;
        let tasks: Vec<usize> = (0..inputs.len() * per_sample).collect();
        let results = par::try_parallel_map(&tasks, self.workers, |_, &t| {
            let b = t / per_sample;
            let slot = t % per_sample;
            if slot == 0 {
                backend_eval(compiled, readout, &inputs[b], params, backend, &prep, None)
                    .map(TaskResult::Forward)
            } else {
                let occ = occurrences[slot - 1];
                let theta = occurrence_angle(compiled, occ, &inputs[b], params);
                qmarl_vqc::grad::shift_rule(theta, occ.controlled, |t| {
                    backend_eval(
                        compiled,
                        readout,
                        &inputs[b],
                        params,
                        backend,
                        &prep,
                        Some((occ.raw_idx, t)),
                    )
                })
                .map(|g| TaskResult::Shift {
                    param: occ.param,
                    grads: g,
                })
            }
        })?;

        let mut outputs = vec![Vec::new(); inputs.len()];
        let mut jacobians =
            vec![Jacobian::zeros(readout.output_len(), compiled.n_params()); inputs.len()];
        for (t, result) in results.into_iter().enumerate() {
            let b = t / per_sample;
            match result {
                TaskResult::Forward(out) => outputs[b] = out,
                TaskResult::Shift { param, grads } => {
                    for (j, g) in grads.into_iter().enumerate() {
                        *jacobians[b].get_mut(j, param) += g;
                    }
                }
            }
        }
        Ok((outputs, jacobians))
    }

    /// Batched parameter-shift Jacobians: one Jacobian per input vector,
    /// with all shift evaluations of the whole minibatch scheduled as one
    /// flat work queue.
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn jacobian_batch(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<Jacobian>, RuntimeError> {
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        // One task per (sample, parameter occurrence): a task runs the 2
        // (plain) or 4 (controlled) shifted circuits of that occurrence.
        let occurrences = compiled.occurrences();
        let tasks: Vec<(usize, usize)> = (0..inputs.len())
            .flat_map(|b| (0..occurrences.len()).map(move |o| (b, o)))
            .collect();
        let contributions = par::try_parallel_map(&tasks, self.workers, |_, &(b, o)| {
            occurrence_shift(compiled, readout, &inputs[b], params, occurrences[o])
                .map(|grads| (b, occurrences[o].param, grads))
        })?;

        let mut jacobians =
            vec![Jacobian::zeros(readout.output_len(), compiled.n_params()); inputs.len()];
        for (b, param, grads) in contributions {
            for (j, g) in grads.into_iter().enumerate() {
                *jacobians[b].get_mut(j, param) += g;
            }
        }
        Ok(jacobians)
    }

    /// Batched forward **and** Jacobian in one queue: the forward
    /// evaluations ride the same scheduler as the shift evaluations.
    ///
    /// # Errors
    ///
    /// Returns binding-length or readout-validation errors.
    pub fn forward_and_jacobian_batch(
        &self,
        compiled: &CompiledCircuit,
        readout: &Readout,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<(Vec<Vec<f64>>, Vec<Jacobian>), RuntimeError> {
        readout.validate(compiled.n_qubits())?;
        for item in inputs {
            check_bindings(compiled, item, params)?;
        }
        let occurrences = compiled.occurrences();
        // Task id: b * (occurrences + 1); offset 0 = forward pass.
        let per_sample = occurrences.len() + 1;
        let tasks: Vec<usize> = (0..inputs.len() * per_sample).collect();
        let results = par::try_parallel_map(&tasks, self.workers, |_, &t| {
            let b = t / per_sample;
            let slot = t % per_sample;
            if slot == 0 {
                let state = run_schedule_unchecked(
                    compiled.n_qubits(),
                    compiled.fused_schedule(),
                    &inputs[b],
                    params,
                );
                readout
                    .evaluate(&state)
                    .map(TaskResult::Forward)
                    .map_err(RuntimeError::from)
            } else {
                let occ = occurrences[slot - 1];
                occurrence_shift(compiled, readout, &inputs[b], params, occ).map(|g| {
                    TaskResult::Shift {
                        param: occ.param,
                        grads: g,
                    }
                })
            }
        })?;

        let mut outputs = vec![Vec::new(); inputs.len()];
        let mut jacobians =
            vec![Jacobian::zeros(readout.output_len(), compiled.n_params()); inputs.len()];
        for (t, result) in results.into_iter().enumerate() {
            let b = t / per_sample;
            match result {
                TaskResult::Forward(out) => outputs[b] = out,
                TaskResult::Shift { param, grads } => {
                    for (j, g) in grads.into_iter().enumerate() {
                        *jacobians[b].get_mut(j, param) += g;
                    }
                }
            }
        }
        Ok((outputs, jacobians))
    }
}

enum TaskResult {
    Forward(Vec<f64>),
    Shift { param: usize, grads: Vec<f64> },
}

/// Per-batch backend preparation, built **once** before a queue drains:
/// the noisy backend's superoperator prebind and the trajectory backend's
/// schedule prebind both hoist their per-gate work here so every task in
/// the queue (forward passes and shift evaluations alike) reuses it.
// One value exists per batch and it is only ever borrowed, so the size
// spread between `Plain` and the prebind variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum BackendPrep {
    /// Ideal/Sampled: the fused statevector schedule needs no extra prep.
    Plain,
    /// Noisy: per-gate superoperators prebound over `(params, noise)`.
    Density(DensityPrebound),
    /// Trajectory: raw schedule prebound over `(params, noise)`.
    Traj(TrajPrebound),
}

impl BackendPrep {
    fn new(
        compiled: &CompiledCircuit,
        params: &[f64],
        backend: &ExecutionBackend,
    ) -> Result<BackendPrep, RuntimeError> {
        match backend {
            ExecutionBackend::Ideal | ExecutionBackend::Sampled { .. } => Ok(BackendPrep::Plain),
            ExecutionBackend::Noisy { model, .. } => Ok(BackendPrep::Density(prebind_density(
                compiled, params, model,
            )?)),
            ExecutionBackend::Trajectory { model, .. } => Ok(BackendPrep::Traj(
                prebind_trajectory(compiled, params, model)?,
            )),
        }
    }
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

/// One circuit evaluation under a backend: the shared primitive of the
/// batched backend queues. `override_angle` forces one raw-schedule
/// gate's angle (the parameter-shift primitive); without it the ideal and
/// sampled backends run the fused schedule. The noisy and trajectory
/// backends run their [`BackendPrep`] schedules, built once per batch —
/// per-gate noise must scale with the **raw** (source) gate count, and
/// the per-gate superoperator products / trig hoists must not be redone
/// per evaluation.
fn backend_eval(
    compiled: &CompiledCircuit,
    readout: &Readout,
    inputs: &[f64],
    params: &[f64],
    backend: &ExecutionBackend,
    prep: &BackendPrep,
    override_angle: Option<(usize, f64)>,
) -> Result<Vec<f64>, RuntimeError> {
    let pure_state = || match override_angle {
        None => run_schedule_unchecked(
            compiled.n_qubits(),
            compiled.fused_schedule(),
            inputs,
            params,
        ),
        Some((idx, theta)) => run_raw_with_override(compiled, inputs, params, idx, theta),
    };
    match backend {
        ExecutionBackend::Ideal => readout.evaluate(&pure_state()).map_err(RuntimeError::from),
        ExecutionBackend::Sampled { shots, seed } => {
            let state = pure_state();
            let mut rng = StdRng::seed_from_u64(ExecutionBackend::eval_seed(
                *seed,
                inputs,
                params,
                override_salt(override_angle),
            ));
            readout
                .evaluate_shots(&state, *shots, &mut rng)
                .map_err(RuntimeError::from)
        }
        ExecutionBackend::Noisy { shots, seed, .. } => {
            let BackendPrep::Density(pb) = prep else {
                unreachable!("noisy backend_eval called without a density prebind")
            };
            let rho = run_density(pb, inputs, override_angle)?;
            match shots {
                None => readout.evaluate_density(&rho).map_err(RuntimeError::from),
                Some(s) => {
                    let mut rng = StdRng::seed_from_u64(ExecutionBackend::eval_seed(
                        *seed,
                        inputs,
                        params,
                        override_salt(override_angle),
                    ));
                    readout
                        .evaluate_shots_density(&rho, *s, &mut rng)
                        .map_err(RuntimeError::from)
                }
            }
        }
        ExecutionBackend::Trajectory { samples, seed, .. } => {
            let BackendPrep::Traj(pb) = prep else {
                unreachable!("trajectory backend_eval called without a trajectory prebind")
            };
            let eval_seed =
                ExecutionBackend::eval_seed(*seed, inputs, params, override_salt(override_angle));
            Ok(trajectory_outputs(
                pb,
                readout,
                inputs,
                *samples,
                eval_seed,
                override_angle,
            ))
        }
    }
}

/// The base (unshifted) angle of an occurrence under the given bindings.
fn occurrence_angle(
    compiled: &CompiledCircuit,
    occ: Occurrence,
    inputs: &[f64],
    params: &[f64],
) -> f64 {
    match &compiled.raw_schedule()[occ.raw_idx] {
        CGate::Rot { angle, .. } | CGate::CRot { angle, .. } => angle.value(inputs, params),
        other => unreachable!("occurrence points at non-rotation gate {other:?}"),
    }
}

/// The shift-rule contribution of one occurrence, per readout output.
/// The two-/four-term combination itself lives in
/// [`qmarl_vqc::grad::shift_rule`] — shared with the serial engine so the
/// two gradient paths cannot drift apart — and only the circuit evaluator
/// (compiled raw schedule with one overridden angle) is supplied here.
fn occurrence_shift(
    compiled: &CompiledCircuit,
    readout: &Readout,
    inputs: &[f64],
    params: &[f64],
    occ: Occurrence,
) -> Result<Vec<f64>, RuntimeError> {
    let theta = occurrence_angle(compiled, occ, inputs, params);
    qmarl_vqc::grad::shift_rule(theta, occ.controlled, |t| {
        let s = run_raw_with_override(compiled, inputs, params, occ.raw_idx, t);
        readout.evaluate(&s).map_err(RuntimeError::from)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
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

    #[test]
    fn batch_matches_serial_interpreter() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 3);
        let inputs = batch_inputs(7);
        let ex = BatchExecutor::new(4);
        let states = ex.run_batch(&compiled, &inputs, &params).unwrap();
        for (item, state) in inputs.iter().zip(&states) {
            let reference = qmarl_vqc::exec::run(&circuit, item, &params).unwrap();
            assert!((state.fidelity(&reference).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn per_item_params_batch() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let bindings: Vec<(Vec<f64>, Vec<f64>)> = (0..4)
            .map(|b| (batch_inputs(4)[b].clone(), init_params(20, b as u64)))
            .collect();
        let ex = BatchExecutor::default();
        let states = ex.run_batch_with_params(&compiled, &bindings).unwrap();
        for ((inputs, params), state) in bindings.iter().zip(&states) {
            let reference = qmarl_vqc::exec::run(&circuit, inputs, params).unwrap();
            assert!((state.fidelity(&reference).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn expectation_batch_matches_readout() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 5);
        let inputs = batch_inputs(5);
        let readout = Readout::z_all(4);
        let ex = BatchExecutor::new(3);
        let outs = ex
            .expectation_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        for (item, out) in inputs.iter().zip(&outs) {
            let reference = readout
                .evaluate(&qmarl_vqc::exec::run(&circuit, item, &params).unwrap())
                .unwrap();
            for (a, b) in out.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expectation_with_params_matches_per_item_runs() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let inputs = batch_inputs(4);
        let param_sets: Vec<Vec<f64>> = (0..4).map(|b| init_params(20, 40 + b as u64)).collect();
        let bindings: Vec<(&[f64], &[f64])> = inputs
            .iter()
            .zip(&param_sets)
            .map(|(i, p)| (i.as_slice(), p.as_slice()))
            .collect();
        let readout = Readout::z_all(4);
        let ex = BatchExecutor::new(3);
        let outs = ex
            .expectation_batch_with_params(&compiled, &readout, &bindings)
            .unwrap();
        for ((inputs, params), out) in bindings.iter().zip(&outs) {
            let reference = readout
                .evaluate(&qmarl_vqc::exec::run(&circuit, inputs, params).unwrap())
                .unwrap();
            assert_eq!(out, &reference, "must be bit-identical to serial");
        }
        // Bad bindings are rejected up front.
        let short = [0.0; 3];
        let bad: Vec<(&[f64], &[f64])> = vec![(&short, param_sets[0].as_slice())];
        assert!(ex
            .expectation_batch_with_params(&compiled, &readout, &bad)
            .is_err());
    }

    #[test]
    fn prebound_batch_matches_expectation_batch_bit_exactly() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let readout = Readout::z_all(4);
        let param_sets: Vec<Vec<f64>> = (0..3).map(|g| init_params(20, 60 + g as u64)).collect();
        let inputs = batch_inputs(5);
        let prebound: Vec<_> = param_sets
            .iter()
            .map(|p| crate::prebound::prebind(&compiled, p).unwrap())
            .collect();
        let groups: Vec<PreboundGroup<'_>> = prebound
            .iter()
            .map(|pb| PreboundGroup {
                circuit: pb,
                inputs: inputs.iter().map(|v| v.as_slice()).collect(),
            })
            .collect();
        for workers in [1usize, 4] {
            let ex = BatchExecutor::new(workers);
            let out = ex.expectation_batch_prebound(&readout, &groups).unwrap();
            for (g, params) in param_sets.iter().enumerate() {
                let reference = ex
                    .expectation_batch(&compiled, &readout, &inputs, params)
                    .unwrap();
                assert_eq!(out[g], reference, "group {g} workers {workers}");
            }
        }
        // Arity errors are typed, not panics.
        let short = [0.0; 2];
        let bad = vec![PreboundGroup {
            circuit: &prebound[0],
            inputs: vec![&short],
        }];
        assert!(matches!(
            BatchExecutor::serial().expectation_batch_prebound(&readout, &bad),
            Err(RuntimeError::InputLenMismatch { .. })
        ));
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
        let ex = BatchExecutor::new(4);
        let jacs = ex
            .jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        for (item, jac) in inputs.iter().zip(&jacs) {
            let reference = jacobian_parameter_shift(&circuit, &readout, item, &params).unwrap();
            assert!(jac.max_abs_diff(&reference) < 1e-12);
        }
    }

    #[test]
    fn forward_and_jacobian_fused_queue() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 9);
        let inputs = batch_inputs(4);
        let readout = Readout::mean_z(4);
        let ex = BatchExecutor::new(4);
        let (outs, jacs) = ex
            .forward_and_jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        let outs_ref = ex
            .expectation_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        let jacs_ref = ex
            .jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        assert_eq!(outs, outs_ref);
        for (a, b) in jacs.iter().zip(&jacs_ref) {
            assert!(
                a.max_abs_diff(b) == 0.0,
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
            serial
                .expectation_batch(&compiled, &readout, &inputs, &params)
                .unwrap(),
            parallel
                .expectation_batch(&compiled, &readout, &inputs, &params)
                .unwrap(),
        );
        let js = serial
            .jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        let jp = parallel
            .jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        for (a, b) in js.iter().zip(&jp) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn ideal_backend_is_bit_identical_to_plain_batch() {
        let circuit = paper_circuit();
        let compiled = compile(&circuit);
        let params = init_params(20, 13);
        let inputs = batch_inputs(5);
        let readout = Readout::z_all(4);
        let ex = BatchExecutor::new(4);
        assert_eq!(
            ex.expectation_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Ideal
            )
            .unwrap(),
            ex.expectation_batch(&compiled, &readout, &inputs, &params)
                .unwrap()
        );
        let (outs_b, jacs_b) = ex
            .forward_and_jacobian_batch_backend(
                &compiled,
                &readout,
                &inputs,
                &params,
                &ExecutionBackend::Ideal,
            )
            .unwrap();
        let (outs, jacs) = ex
            .forward_and_jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
        assert_eq!(outs_b, outs);
        for (a, b) in jacs_b.iter().zip(&jacs) {
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
        let exact = BatchExecutor::serial()
            .expectation_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
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
        let exact = ex
            .expectation_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
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
        let ideal_jacs = ex
            .jacobian_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
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
        let ideal = ex
            .expectation_batch(&compiled, &readout, &inputs, &params)
            .unwrap();
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
        let bad = vec![vec![0.0; 3]];
        assert!(ex.run_batch(&compiled, &bad, &init_params(20, 0)).is_err());
        let good = vec![vec![0.0; 4]];
        assert!(ex.run_batch(&compiled, &good, &[0.0; 19]).is_err());
        let bad_readout = Readout::ZPerQubit { qubits: vec![7] };
        assert!(ex
            .expectation_batch(&compiled, &bad_readout, &good, &init_params(20, 0))
            .is_err());
    }

    #[test]
    fn executor_worker_configuration() {
        assert_eq!(BatchExecutor::serial().workers(), 1);
        assert!(BatchExecutor::new(0).workers() >= 1);
        assert_eq!(BatchExecutor::new(5).workers(), 5);
    }
}
