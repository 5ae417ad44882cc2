//! Executing one grid cell: build, (maybe) resume, train, checkpoint.

use std::path::{Path, PathBuf};
use std::time::Instant;

use qmarl_core::checkpoint::{FrameworkSnapshot, TrainerCheckpoint};
use qmarl_core::framework::build_kind_scenario_trainer;
use qmarl_core::trainer::TrainingHistory;

use crate::error::HarnessError;
use crate::spec::{CellId, ExperimentSpec, RolloutMode};

/// Per-cell execution knobs beyond the spec itself.
#[derive(Debug, Clone, Default)]
pub struct CellOptions {
    /// Directory for per-cell checkpoint files; required when the spec
    /// sets a checkpoint cadence. An existing checkpoint in this
    /// directory is resumed from automatically.
    pub checkpoint_dir: Option<PathBuf>,
    /// Stop (without error) once this many epochs are complete — the
    /// cooperative stand-in for a killed process in resume tests and
    /// budgeted partial sweeps. `None` runs to the spec's epoch budget.
    pub stop_after: Option<usize>,
    /// Chaos hook: `panic_any(InjectedKill)` once this many epochs are
    /// complete, *after* any checkpoint for that epoch is on disk — the
    /// uncooperative stand-in for a process killed mid-sweep. The sweep
    /// engine's panic isolation catches the typed payload and retries;
    /// see [`crate::sweep::SweepOptions::faults`].
    pub panic_after: Option<usize>,
}

/// The outcome of one cell run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's grid coordinates.
    pub id: CellId,
    /// Per-epoch training history (the full curve, including epochs
    /// replayed from a resumed checkpoint).
    pub history: TrainingHistory,
    /// The trained parameters.
    pub snapshot: FrameworkSnapshot,
    /// Wall-clock seconds this invocation spent (excludes epochs already
    /// banked in a resumed checkpoint).
    pub wall_secs: f64,
    /// `Some(epoch)` when the run resumed from a checkpoint taken after
    /// that many completed epochs.
    pub resumed_at: Option<usize>,
    /// `false` when [`CellOptions::stop_after`] interrupted the run
    /// before the spec's epoch budget.
    pub completed: bool,
}

/// The checkpoint path of a cell inside `dir`.
pub fn checkpoint_path(dir: &Path, id: &CellId) -> PathBuf {
    dir.join(format!("{}.ckpt", id.slug()))
}

/// The experiment-shape fingerprint written as a cell checkpoint's label
/// and required to match on resume. Everything that changes what an
/// uninterrupted run would compute is included — the sweep name, the
/// cell coordinates, the epoch/episode budgets, mode, episode limit and
/// the training hyper-parameters — so a checkpoint from an edited spec
/// (or another sweep sharing the directory) is rejected instead of
/// silently resumed into bit-different results. Lane count is excluded:
/// vectorized collection is lane-count-invariant by construction.
fn cell_context(spec: &ExperimentSpec, id: &CellId) -> String {
    let t = &spec.train;
    format!(
        "{}|{}|epochs={}|episodes={}|mode={}|limit={:?}|gamma={}|lr={}/{}|target={}|\
         batch={}|replay={}|qubits={}|params={}/{}|beta={}|grad={:?}",
        spec.name,
        id.label(),
        spec.epochs,
        spec.episodes_per_epoch,
        spec.mode.name(),
        spec.episode_limit,
        t.gamma,
        t.lr_actor,
        t.lr_critic,
        t.target_update_period,
        t.batch_episodes,
        t.replay_capacity,
        t.n_qubits,
        t.actor_params,
        t.critic_params,
        t.entropy_coef,
        t.grad_method,
    )
}

/// Runs one cell of `spec` to its epoch budget (or
/// [`CellOptions::stop_after`]), checkpointing every
/// `spec.checkpoint_every` epochs when a checkpoint directory is given,
/// and resuming from an existing checkpoint **bit-identically**: the
/// resumed run's history and final parameters are `assert_eq`-equal to
/// an uninterrupted run's (vectorized collection; see
/// [`TrainerCheckpoint`]).
///
/// # Errors
///
/// Validates the spec (a hand-constructed `ExperimentSpec` gets the
/// same serial-mode/checkpoint and grid checks as a parsed one), then
/// propagates construction, training and checkpoint-I/O errors, and
/// rejects a checkpoint cadence without a directory, a corrupt
/// checkpoint file, or a checkpoint written by a different experiment
/// shape.
pub fn run_cell(
    spec: &ExperimentSpec,
    id: &CellId,
    opts: &CellOptions,
) -> Result<CellResult, HarnessError> {
    // xcheck: allow(determinism) — wall_secs is reporting metadata on the
    // CellResult; it never feeds metrics, seeds, or fingerprints.
    let started = Instant::now();
    spec.validate()?;
    if spec.checkpoint_every > 0 && opts.checkpoint_dir.is_none() {
        return Err(HarnessError::InvalidSpec(format!(
            "spec {} checkpoints every {} epochs but no checkpoint directory was given",
            spec.name, spec.checkpoint_every
        )));
    }
    let mut train = spec.train.clone();
    train.seed = id.seed;
    train.epochs = spec.epochs;
    let mut trainer = build_kind_scenario_trainer(
        id.framework,
        &id.scenario,
        &id.backend,
        &train,
        spec.episode_limit,
    )?;
    trainer.set_update_engine(id.engine);

    let ckpt_path = opts
        .checkpoint_dir
        .as_deref()
        .map(|dir| checkpoint_path(dir, id));
    let context = cell_context(spec, id);
    let mut resumed_at = None;
    if let Some(path) = &ckpt_path {
        if path.exists() {
            let ckpt = TrainerCheckpoint::load(path)?;
            if ckpt.label != context {
                return Err(HarnessError::InvalidSpec(format!(
                    "checkpoint {} was written by a different experiment shape — resuming \
                     it would produce results bit-different from an uninterrupted run.\n\
                     checkpoint: {}\n  this run: {context}\n\
                     (use a fresh checkpoint directory, or restore the original spec)",
                    path.display(),
                    ckpt.label,
                )));
            }
            trainer.restore_state(&ckpt)?;
            resumed_at = Some(trainer.epochs_done());
        }
    }

    let label = id.label();
    let lanes = spec.effective_lanes();
    let mut interrupted = false;
    while trainer.epochs_done() < spec.epochs {
        if let Some(stop) = opts.stop_after {
            if trainer.epochs_done() >= stop {
                interrupted = true;
                break;
            }
        }
        match spec.mode {
            RolloutMode::Vec => {
                trainer.run_epoch_vec(spec.episodes_per_epoch, lanes)?;
            }
            RolloutMode::Serial => {
                trainer.run_epoch()?;
            }
        }
        let done = trainer.epochs_done();
        if spec.checkpoint_every > 0
            && (done.is_multiple_of(spec.checkpoint_every) || done == spec.epochs)
        {
            let path = ckpt_path.as_ref().expect("validated above");
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| HarnessError::Io(format!("create {}: {e}", dir.display())))?;
            }
            trainer.capture_state(&context).save(path)?;
        }
        if let Some(kill_at) = opts.panic_after {
            if done >= kill_at {
                std::panic::panic_any(qmarl_chaos::InjectedKill {
                    cell: label.clone(),
                    epoch: done,
                });
            }
        }
    }

    Ok(CellResult {
        id: id.clone(),
        history: trainer.history().clone(),
        snapshot: FrameworkSnapshot::capture(&label, &trainer),
        wall_secs: started.elapsed().as_secs_f64(),
        resumed_at,
        completed: !interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        "name=cell-test;scenarios=single-hop;seeds=3;epochs=2;limit=6"
            .parse()
            .unwrap()
    }

    #[test]
    fn cell_runs_and_reports() {
        let spec = tiny_spec();
        let cells = spec.expand();
        assert_eq!(cells.len(), 1);
        let r = run_cell(&spec, &cells[0], &CellOptions::default()).unwrap();
        assert_eq!(r.history.len(), 2);
        assert!(r.completed);
        assert!(r.resumed_at.is_none());
        assert!(r.wall_secs > 0.0);
        assert_eq!(r.snapshot.actor_params.len(), 4);
        // Deterministic: a rerun reproduces the history bit for bit.
        let again = run_cell(&spec, &cells[0], &CellOptions::default()).unwrap();
        assert_eq!(again.history, r.history);
        assert_eq!(again.snapshot, r.snapshot);
    }

    #[test]
    fn lane_count_never_changes_a_cell() {
        // End to end through run_cell: three episodes per epoch collected
        // on one lane (three waves) or three lanes (one wave) train the
        // same curve and the same parameters, bit for bit.
        let run = |lanes: usize| {
            let spec: ExperimentSpec = format!(
                "name=lanes;scenarios=single-hop;seeds=4;epochs=2;episodes=3;lanes={lanes};limit=5"
            )
            .parse()
            .unwrap();
            let cell = spec.expand().remove(0);
            run_cell(&spec, &cell, &CellOptions::default()).unwrap()
        };
        let (one, three) = (run(1), run(3));
        assert_eq!(one.history.len(), 2);
        assert_eq!(one.history, three.history);
        assert_eq!(one.snapshot, three.snapshot);
    }

    #[test]
    fn checkpoint_cadence_without_directory_is_rejected() {
        let mut spec = tiny_spec();
        spec.checkpoint_every = 1;
        let cell = spec.expand().remove(0);
        assert!(run_cell(&spec, &cell, &CellOptions::default()).is_err());
    }

    #[test]
    fn stop_after_interrupts_without_error() {
        let spec = tiny_spec();
        let cell = spec.expand().remove(0);
        let r = run_cell(
            &spec,
            &cell,
            &CellOptions {
                stop_after: Some(1),
                ..CellOptions::default()
            },
        )
        .unwrap();
        assert!(!r.completed);
        assert_eq!(r.history.len(), 1);
    }
}
