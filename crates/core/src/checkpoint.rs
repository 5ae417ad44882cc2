//! Checkpointing: saving and restoring trained frameworks.
//!
//! Two granularities share the same dependency-free, diff-able plain-text
//! discipline (version-tagged, every `f64` in round-trip-exact scientific
//! notation):
//!
//! * [`FrameworkSnapshot`] — the **parameters only** (every actor's and
//!   the critic's flat vector). Enough to deploy or warm-start a policy.
//! * [`TrainerCheckpoint`] — the **full optimisation state** of a
//!   [`CtdeTrainer`]: parameters, target network, Adam moments, replay
//!   buffer, history, epoch counters and the trainer's RNG stream, so an
//!   interrupted run resumed through
//!   [`CtdeTrainer::restore_state`](crate::trainer::CtdeTrainer::restore_state)
//!   continues **bit-identically** to one that was never interrupted
//!   (on the vectorized collection surface, whose episode randomness
//!   derives from `(seed, round)` rather than live environment state).
//!
//! Both formats hold only finite parameters and Adam moments. The parsers
//! reject `NaN`, `inf` and overflowing literals such as `1e400` (all of
//! which `f64::from_str` accepts) with [`CoreError::CorruptCheckpoint`],
//! and `save` refuses to write them, so neither a resumed trainer nor a
//! hot-swapped server can pick up a poisoned model.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use qmarl_env::metrics::EpisodeMetrics;
use qmarl_neural::optim::AdamState;

use crate::error::CoreError;
use crate::policy::Actor;
use crate::replay::{Episode, Transition};
use crate::trainer::{CtdeTrainer, EpochRecord, TrainingHistory};
use crate::value::Critic;
use qmarl_env::multi_agent::MultiAgentEnv;

/// The format tag written at the top of every checkpoint.
const MAGIC: &str = "qmarl-checkpoint v1";

/// The format tag of the full-trainer-state format.
const TRAINER_MAGIC: &str = "qmarl-trainer-checkpoint v1";

/// Most elements either parser reserves up front for one header count.
/// A torn or hostile file can claim absurd counts, and reserving them
/// would turn it into a capacity-overflow panic or an allocation abort,
/// so every count is a claim: capacity is bounded by this cap and the
/// vectors grow only as real lines arrive.
const COUNT_CAP: usize = 4096;

/// Labels live on one line of the line-oriented codecs; a stray newline
/// would shift every following field (or, crafted, inject fields), so
/// line breaks are flattened to spaces at write time. Everything else
/// round-trips verbatim.
fn sanitize_label(label: &str) -> String {
    label.replace(['\n', '\r'], " ")
}

/// Rejects the first non-finite entry of a parameter or moment vector,
/// naming its section and index.
fn check_finite(section: &str, xs: &[f64]) -> Result<(), CoreError> {
    match xs.iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(i) => Err(CoreError::CorruptCheckpoint(format!(
            "{section} index {i} is non-finite ({})",
            xs[i]
        ))),
    }
}

/// Rejects the first non-finite actor or critic parameter.
fn check_params_finite(actors: &[Vec<f64>], critic: &[f64]) -> Result<(), CoreError> {
    for (n, params) in actors.iter().enumerate() {
        check_finite(&format!("actor {n} parameters"), params)?;
    }
    check_finite("critic parameters", critic)
}

/// A framework's trained parameters, detached from the model objects.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FrameworkSnapshot {
    /// Free-form label (usually the framework name).
    pub label: String,
    /// Per-actor flat parameter vectors.
    pub actor_params: Vec<Vec<f64>>,
    /// The critic's flat parameter vector.
    pub critic_params: Vec<f64>,
}

impl FrameworkSnapshot {
    /// Captures a trainer's current parameters.
    pub fn capture<E: MultiAgentEnv>(label: &str, trainer: &CtdeTrainer<E>) -> Self {
        FrameworkSnapshot {
            label: label.to_string(),
            actor_params: trainer.actors().iter().map(|a| a.params()).collect(),
            critic_params: trainer.critic().params(),
        }
    }

    /// Restores the parameters into matching actors and critic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParamLenMismatch`] (or a config error on
    /// an actor-count mismatch) when architectures differ.
    pub fn restore(
        &self,
        actors: &mut [Box<dyn Actor>],
        critic: &mut dyn Critic,
    ) -> Result<(), CoreError> {
        if actors.len() != self.actor_params.len() {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint has {} actors, target has {}",
                self.actor_params.len(),
                actors.len()
            )));
        }
        for (actor, params) in actors.iter_mut().zip(&self.actor_params) {
            actor.set_params(params)?;
        }
        critic.set_params(&self.critic_params)
    }

    /// Serialises to the checkpoint text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{MAGIC}").expect("string write");
        writeln!(out, "label {}", sanitize_label(&self.label)).expect("string write");
        writeln!(out, "actors {}", self.actor_params.len()).expect("string write");
        for (i, params) in self.actor_params.iter().enumerate() {
            writeln!(out, "actor {i} {}", params.len()).expect("string write");
            for p in params {
                writeln!(out, "{p:e}").expect("string write");
            }
        }
        writeln!(out, "critic {}", self.critic_params.len()).expect("string write");
        for p in &self.critic_params {
            writeln!(out, "{p:e}").expect("string write");
        }
        out
    }

    /// Parses the checkpoint text format.
    ///
    /// Built for hostile input: a snapshot may be read by a hot-swap
    /// watcher while another process is still writing it, so every count
    /// is treated as a claim to verify line by line (never a trusted
    /// allocation size) and content after the critic section is rejected.
    /// Any truncation or corruption surfaces as
    /// [`CoreError::CorruptCheckpoint`] — this function does not panic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptCheckpoint`] describing the first
    /// syntax problem or non-finite parameter.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: &str| CoreError::CorruptCheckpoint(format!("checkpoint parse: {msg}"));
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(bad("missing or wrong magic header"));
        }
        let label_line = lines.next().ok_or_else(|| bad("missing label"))?;
        let label = label_line
            .strip_prefix("label ")
            .ok_or_else(|| bad("malformed label line"))?
            .to_string();
        let n_actors: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("actors "))
            .ok_or_else(|| bad("missing actors count"))?
            .parse()
            .map_err(|_| bad("actors count not a number"))?;

        let read_params =
            |lines: &mut std::str::Lines<'_>, n: usize| -> Result<Vec<f64>, CoreError> {
                let mut v = Vec::with_capacity(n.min(COUNT_CAP));
                for _ in 0..n {
                    let line = lines.next().ok_or_else(|| bad("unexpected end of file"))?;
                    v.push(line.parse().map_err(|_| bad("malformed parameter"))?);
                }
                Ok(v)
            };

        let mut actor_params = Vec::with_capacity(n_actors.min(COUNT_CAP));
        for i in 0..n_actors {
            let header = lines.next().ok_or_else(|| bad("missing actor header"))?;
            let rest = header
                .strip_prefix(&format!("actor {i} "))
                .ok_or_else(|| bad("malformed actor header"))?;
            let len: usize = rest.parse().map_err(|_| bad("actor length not a number"))?;
            actor_params.push(read_params(&mut lines, len)?);
        }
        let critic_header = lines.next().ok_or_else(|| bad("missing critic header"))?;
        let critic_len: usize = critic_header
            .strip_prefix("critic ")
            .ok_or_else(|| bad("malformed critic header"))?
            .parse()
            .map_err(|_| bad("critic length not a number"))?;
        let critic_params = read_params(&mut lines, critic_len)?;
        // The critic section ends the document; trailing content means a
        // torn or concatenated file, not a parseable prefix.
        if lines.next().is_some() {
            return Err(bad("trailing content after the critic section"));
        }
        let snapshot = FrameworkSnapshot {
            label,
            actor_params,
            critic_params,
        };
        check_params_finite(&snapshot.actor_params, &snapshot.critic_params)?;
        Ok(snapshot)
    }

    /// Writes the checkpoint to a file **atomically** (write to a `.tmp`
    /// sibling, then rename). A reader polling the directory — serve's
    /// hot-swap watcher — therefore never observes a half-written
    /// snapshot under the final name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptCheckpoint`] for a non-finite
    /// parameter (nothing is written) or wrapping the I/O failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CoreError> {
        check_params_finite(&self.actor_params, &self.critic_params)?;
        let path = path.as_ref();
        let io_err =
            |what: &str, e: std::io::Error| CoreError::CorruptCheckpoint(format!("{what}: {e}"));
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_text())
            .map_err(|e| io_err(&format!("write {}", tmp.display()), e))?;
        fs::rename(&tmp, path).map_err(|e| {
            io_err(
                &format!("rename {} -> {}", tmp.display(), path.display()),
                e,
            )
        })
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptCheckpoint`] on I/O or syntax
    /// problems.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CoreError> {
        let text = fs::read_to_string(path.as_ref()).map_err(|e| {
            CoreError::CorruptCheckpoint(format!("read {}: {e}", path.as_ref().display()))
        })?;
        FrameworkSnapshot::from_text(&text)
    }
}

/// The complete optimisation state of a [`CtdeTrainer`], detached from
/// the model and environment objects.
///
/// Captured by [`CtdeTrainer::capture_state`](crate::trainer::CtdeTrainer::capture_state)
/// and restored by [`CtdeTrainer::restore_state`](crate::trainer::CtdeTrainer::restore_state)
/// into a trainer built with the **same configuration** (the `seed` field
/// guards the pairing). The environment itself is deliberately absent:
/// the vectorized collection surface reseeds every episode from
/// `(config.seed, parallel_rounds, episode index)`, so restoring the
/// round counter restores the exact episode stream.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainerCheckpoint {
    /// Free-form label (usually the sweep cell name).
    pub label: String,
    /// The `TrainConfig::seed` of the captured trainer; restore refuses a
    /// differently-seeded trainer (resume would silently diverge).
    pub seed: u64,
    /// Epochs completed.
    pub epoch: usize,
    /// Completed multi-episode collection rounds (written as the
    /// `rounds` key).
    pub parallel_rounds: u64,
    /// The trainer's own RNG stream (serial rollout action sampling).
    pub rng_state: [u64; 4],
    /// Per-actor flat parameter vectors.
    pub actor_params: Vec<Vec<f64>>,
    /// The live critic `ψ`.
    pub critic_params: Vec<f64>,
    /// The target network `φ`.
    pub target_params: Vec<f64>,
    /// Per-actor Adam moments.
    pub actor_opts: Vec<AdamState>,
    /// The critic's Adam moments.
    pub critic_opt: AdamState,
    /// The replay buffer `D`, oldest episode first.
    pub replay: Vec<Episode>,
    /// The per-epoch history so far.
    pub history: TrainingHistory,
}

/// Writes one `f64` slice as a single space-separated line.
fn push_vec_line(out: &mut String, tag: &str, xs: &[f64]) {
    out.push_str(tag);
    for x in xs {
        write!(out, " {x:e}").expect("string write");
    }
    out.push('\n');
}

/// Parses a whitespace-separated `f64` line with a required tag prefix.
fn parse_vec_line(
    line: &str,
    tag: &str,
    bad: &dyn Fn(&str) -> CoreError,
) -> Result<Vec<f64>, CoreError> {
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| bad(&format!("expected a {tag:?} line, got {line:?}")))?;
    rest.split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| bad(&format!("malformed float {t:?}")))
        })
        .collect()
}

impl TrainerCheckpoint {
    /// Checks that every parameter vector (actors, critic, target) and
    /// every Adam moment is finite.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptCheckpoint`] naming the first
    /// non-finite value's section and index.
    fn check_finite(&self) -> Result<(), CoreError> {
        check_params_finite(&self.actor_params, &self.critic_params)?;
        check_finite("target parameters", &self.target_params)?;
        for (n, opt) in self.actor_opts.iter().enumerate() {
            check_finite(&format!("actor {n} Adam m"), &opt.m)?;
            check_finite(&format!("actor {n} Adam v"), &opt.v)?;
        }
        check_finite("critic Adam m", &self.critic_opt.m)?;
        check_finite("critic Adam v", &self.critic_opt.v)
    }

    /// Serialises to the trainer-checkpoint text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{TRAINER_MAGIC}").expect("string write");
        writeln!(out, "label {}", sanitize_label(&self.label)).expect("string write");
        writeln!(out, "seed {}", self.seed).expect("string write");
        writeln!(out, "epoch {}", self.epoch).expect("string write");
        writeln!(out, "rounds {}", self.parallel_rounds).expect("string write");
        let [s0, s1, s2, s3] = self.rng_state;
        writeln!(out, "rng {s0} {s1} {s2} {s3}").expect("string write");
        writeln!(out, "actors {}", self.actor_params.len()).expect("string write");
        for (i, params) in self.actor_params.iter().enumerate() {
            push_vec_line(&mut out, &format!("actor {i}"), params);
        }
        push_vec_line(&mut out, "critic", &self.critic_params);
        push_vec_line(&mut out, "target", &self.target_params);
        for (i, opt) in self.actor_opts.iter().enumerate() {
            writeln!(out, "opt actor {i} t {}", opt.t).expect("string write");
            push_vec_line(&mut out, "m", &opt.m);
            push_vec_line(&mut out, "v", &opt.v);
        }
        writeln!(out, "opt critic t {}", self.critic_opt.t).expect("string write");
        push_vec_line(&mut out, "m", &self.critic_opt.m);
        push_vec_line(&mut out, "v", &self.critic_opt.v);
        writeln!(out, "replay {}", self.replay.len()).expect("string write");
        for (i, ep) in self.replay.iter().enumerate() {
            writeln!(out, "episode {i} {}", ep.len()).expect("string write");
            for tr in ep.transitions() {
                writeln!(
                    out,
                    "step agents {} done {}",
                    tr.observations.len(),
                    u8::from(tr.done)
                )
                .expect("string write");
                push_vec_line(&mut out, "s", &tr.state);
                for o in &tr.observations {
                    push_vec_line(&mut out, "o", o);
                }
                out.push('u');
                for a in &tr.actions {
                    write!(out, " {a}").expect("string write");
                }
                out.push('\n');
                writeln!(out, "r {:e}", tr.reward).expect("string write");
                push_vec_line(&mut out, "ns", &tr.next_state);
                for o in &tr.next_observations {
                    push_vec_line(&mut out, "no", o);
                }
            }
        }
        writeln!(out, "history {}", self.history.len()).expect("string write");
        for r in self.history.records() {
            writeln!(
                out,
                "rec {} {} {:e} {:e} {:e} {:e} {:e} {:e}",
                r.epoch,
                r.metrics.len,
                r.metrics.total_reward,
                r.metrics.avg_queue,
                r.metrics.empty_ratio,
                r.metrics.overflow_ratio,
                r.critic_loss,
                r.mean_entropy,
            )
            .expect("string write");
        }
        out
    }

    /// Parses the trainer-checkpoint text format.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first syntax
    /// problem, or [`CoreError::CorruptCheckpoint`] for a non-finite
    /// parameter or Adam moment.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: &str| CoreError::InvalidConfig(format!("trainer checkpoint parse: {msg}"));
        let mut lines = text.lines();
        let mut next = |what: &str| -> Result<&str, CoreError> {
            lines.next().ok_or_else(|| bad(&format!("missing {what}")))
        };
        if next("magic")? != TRAINER_MAGIC {
            return Err(bad("missing or wrong magic header"));
        }
        let label = next("label")?
            .strip_prefix("label ")
            .ok_or_else(|| bad("malformed label line"))?
            .to_string();
        let field = |line: &str, tag: &str| -> Result<u64, CoreError> {
            line.strip_prefix(tag)
                .and_then(|rest| rest.trim().parse().ok())
                .ok_or_else(|| bad(&format!("malformed {tag:?} line")))
        };
        let seed = field(next("seed")?, "seed ")?;
        let epoch = field(next("epoch")?, "epoch ")? as usize;
        let parallel_rounds = field(next("rounds")?, "rounds ")?;
        let rng_line = next("rng")?
            .strip_prefix("rng ")
            .ok_or_else(|| bad("malformed rng line"))?;
        let rng_words: Vec<u64> = rng_line
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| bad("malformed rng word")))
            .collect::<Result<_, _>>()?;
        let rng_state: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| bad("rng line must hold 4 words"))?;
        let n_actors = field(next("actors")?, "actors ")? as usize;
        let mut actor_params = Vec::with_capacity(n_actors.min(COUNT_CAP));
        for i in 0..n_actors {
            actor_params.push(parse_vec_line(
                next("actor params")?,
                &format!("actor {i}"),
                &bad,
            )?);
        }
        let critic_params = parse_vec_line(next("critic params")?, "critic", &bad)?;
        let target_params = parse_vec_line(next("target params")?, "target", &bad)?;
        let mut parse_opt = |header: String| -> Result<AdamState, CoreError> {
            let t = field(next("optimizer header")?, &format!("{header} t "))?;
            let m = parse_vec_line(next("opt m")?, "m", &bad)?;
            let v = parse_vec_line(next("opt v")?, "v", &bad)?;
            if m.len() != v.len() {
                return Err(bad("optimizer moment lengths differ"));
            }
            Ok(AdamState { m, v, t })
        };
        let mut actor_opts = Vec::with_capacity(n_actors.min(COUNT_CAP));
        for i in 0..n_actors {
            actor_opts.push(parse_opt(format!("opt actor {i}"))?);
        }
        let critic_opt = parse_opt("opt critic".into())?;
        let n_episodes = field(next("replay")?, "replay ")? as usize;
        let mut replay = Vec::with_capacity(n_episodes.min(COUNT_CAP));
        for i in 0..n_episodes {
            let len = field(next("episode header")?, &format!("episode {i} "))? as usize;
            let mut ep = Episode::new();
            for _ in 0..len {
                let header = next("step header")?
                    .strip_prefix("step agents ")
                    .ok_or_else(|| bad("malformed step header"))?;
                let (agents_str, done_str) = header
                    .split_once(" done ")
                    .ok_or_else(|| bad("malformed step header"))?;
                let n_agents: usize = agents_str
                    .parse()
                    .map_err(|_| bad("step agent count not a number"))?;
                let done = match done_str {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("step done flag must be 0 or 1")),
                };
                let state = parse_vec_line(next("state")?, "s", &bad)?;
                let mut observations = Vec::with_capacity(n_agents.min(COUNT_CAP));
                for _ in 0..n_agents {
                    observations.push(parse_vec_line(next("obs")?, "o", &bad)?);
                }
                let actions = next("actions")?
                    .strip_prefix('u')
                    .ok_or_else(|| bad("malformed action line"))?
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| bad("malformed action")))
                    .collect::<Result<Vec<usize>, _>>()?;
                if actions.len() != n_agents {
                    return Err(bad("action count does not match agent count"));
                }
                let reward: f64 = next("reward")?
                    .strip_prefix("r ")
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("malformed reward line"))?;
                let next_state = parse_vec_line(next("next state")?, "ns", &bad)?;
                let mut next_observations = Vec::with_capacity(n_agents.min(COUNT_CAP));
                for _ in 0..n_agents {
                    next_observations.push(parse_vec_line(next("next obs")?, "no", &bad)?);
                }
                ep.push(Transition {
                    state,
                    observations,
                    actions,
                    reward,
                    next_state,
                    next_observations,
                    done,
                });
            }
            replay.push(ep);
        }
        let n_records = field(next("history")?, "history ")? as usize;
        let mut history = TrainingHistory::default();
        for _ in 0..n_records {
            let rest = next("history record")?
                .strip_prefix("rec ")
                .ok_or_else(|| bad("malformed history record"))?;
            let words: Vec<&str> = rest.split_whitespace().collect();
            if words.len() != 8 {
                return Err(bad("history record must hold 8 fields"));
            }
            let int = |t: &str| -> Result<usize, CoreError> {
                t.parse().map_err(|_| bad("malformed history integer"))
            };
            let flt = |t: &str| -> Result<f64, CoreError> {
                t.parse().map_err(|_| bad("malformed history float"))
            };
            history.push_record(EpochRecord {
                epoch: int(words[0])?,
                metrics: EpisodeMetrics {
                    len: int(words[1])?,
                    total_reward: flt(words[2])?,
                    avg_queue: flt(words[3])?,
                    empty_ratio: flt(words[4])?,
                    overflow_ratio: flt(words[5])?,
                },
                critic_loss: flt(words[6])?,
                mean_entropy: flt(words[7])?,
            });
        }
        // The history section ends the document; trailing content means
        // a corrupt file (e.g. two checkpoints concatenated) and is
        // rejected rather than silently resumed from the first half.
        if lines.next().is_some() {
            return Err(bad("trailing content after the history section"));
        }
        let checkpoint = TrainerCheckpoint {
            label,
            seed,
            epoch,
            parallel_rounds,
            rng_state,
            actor_params,
            critic_params,
            target_params,
            actor_opts,
            critic_opt,
            replay,
            history,
        };
        checkpoint.check_finite()?;
        Ok(checkpoint)
    }

    /// Writes the checkpoint to a file **atomically** (write to a
    /// `.tmp` sibling, then rename), so a run killed mid-write can never
    /// leave a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptCheckpoint`] for a non-finite
    /// parameter or Adam moment (nothing is written), or
    /// [`CoreError::InvalidConfig`] wrapping the I/O failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CoreError> {
        self.check_finite()?;
        let path = path.as_ref();
        let io_err =
            |what: &str, e: std::io::Error| CoreError::InvalidConfig(format!("{what}: {e}"));
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_text())
            .map_err(|e| io_err(&format!("write {}", tmp.display()), e))?;
        fs::rename(&tmp, path).map_err(|e| {
            io_err(
                &format!("rename {} -> {}", tmp.display(), path.display()),
                e,
            )
        })
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on I/O or syntax problems.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CoreError> {
        let text = fs::read_to_string(path.as_ref()).map_err(|e| {
            CoreError::InvalidConfig(format!("read {}: {e}", path.as_ref().display()))
        })?;
        TrainerCheckpoint::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::framework::{build_actors, build_critic, build_trainer, FrameworkKind};

    fn tiny_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_default();
        c.env.episode_limit = 8;
        c
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let snap = FrameworkSnapshot {
            label: "Proposed".into(),
            actor_params: vec![vec![0.1, -2.5e-17, std::f64::consts::PI], vec![1.0]],
            critic_params: vec![f64::MIN_POSITIVE, -1234.5678901234567],
        };
        let parsed = FrameworkSnapshot::from_text(&snap.to_text()).expect("parses");
        assert_eq!(parsed, snap, "f64 round-trip must be bit-exact");
    }

    #[test]
    fn capture_and_restore_through_trainer() {
        let cfg = tiny_config();
        let mut trainer = build_trainer(FrameworkKind::Proposed, &cfg).expect("builds");
        trainer.train(1).expect("trains");
        let snap = FrameworkSnapshot::capture("Proposed", &trainer);

        let mut actors =
            build_actors(FrameworkKind::Proposed, &cfg.env, &cfg.train).expect("builds");
        let mut critic =
            build_critic(FrameworkKind::Proposed, &cfg.env, &cfg.train).expect("builds");
        // Fresh models differ from the trained snapshot…
        assert_ne!(actors[0].params(), snap.actor_params[0]);
        snap.restore(&mut actors, critic.as_mut())
            .expect("restores");
        // …and match after restore.
        for (a, p) in actors.iter().zip(&snap.actor_params) {
            assert_eq!(a.params(), *p);
        }
        assert_eq!(critic.params(), snap.critic_params);
    }

    #[test]
    fn file_roundtrip() {
        let cfg = tiny_config();
        let trainer = build_trainer(FrameworkKind::Comp2, &cfg).expect("builds");
        let snap = FrameworkSnapshot::capture("Comp2", &trainer);
        let dir = std::env::temp_dir().join("qmarl_ckpt_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("comp2.ckpt");
        snap.save(&path).expect("saves");
        let loaded = FrameworkSnapshot::load(&path).expect("loads");
        assert_eq!(loaded, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(FrameworkSnapshot::from_text("").is_err());
        assert!(FrameworkSnapshot::from_text("wrong magic\n").is_err());
        assert!(
            FrameworkSnapshot::from_text("qmarl-checkpoint v1\nlabel x\nactors nope\n").is_err()
        );
        let truncated = "qmarl-checkpoint v1\nlabel x\nactors 1\nactor 0 3\n1.0\n";
        assert!(FrameworkSnapshot::from_text(truncated).is_err());
        let bad_param = "qmarl-checkpoint v1\nlabel x\nactors 0\ncritic 1\nnot-a-number\n";
        assert!(FrameworkSnapshot::from_text(bad_param).is_err());
        assert!(FrameworkSnapshot::load("/nonexistent/path/x.ckpt").is_err());
    }

    #[test]
    fn every_truncation_of_a_valid_snapshot_is_a_typed_error() {
        // A torn write can cut the file at any byte. Every prefix must
        // come back as CorruptCheckpoint — no panic, no partial parse
        // accepted as a complete snapshot.
        let snap = FrameworkSnapshot {
            label: "torn".into(),
            actor_params: vec![vec![0.25, -1.5e-3, 7.0], vec![1.0, 2.0]],
            critic_params: vec![-0.5, 0.125, 3.25],
        };
        let text = snap.to_text();
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let prefix = &text[..cut];
            match FrameworkSnapshot::from_text(prefix) {
                Err(CoreError::CorruptCheckpoint(_)) => {}
                Err(other) => panic!("cut at {cut}: wrong error variant {other:?}"),
                // Only cuts inside the final parameter line can still
                // parse (a float's prefix may be a valid shorter float —
                // the one tear the text format cannot see, which is why
                // `save` is atomic). Everything before it must error.
                Ok(parsed) => {
                    assert!(cut > text.len() - "3.25e0\n".len(), "cut at {cut}");
                    assert_eq!(parsed.actor_params, snap.actor_params, "cut at {cut}");
                    assert_eq!(parsed.critic_params.len(), snap.critic_params.len());
                }
            }
        }
    }

    #[test]
    fn corrupt_counts_cannot_trigger_huge_allocations() {
        // Header claims absurd sizes; parsing must fail on the missing
        // lines without ever allocating for the claimed count.
        let huge_actor = "qmarl-checkpoint v1\nlabel x\nactors 1\nactor 0 18446744073709551615\n";
        assert!(matches!(
            FrameworkSnapshot::from_text(huge_actor),
            Err(CoreError::CorruptCheckpoint(_))
        ));
        let huge_actors = "qmarl-checkpoint v1\nlabel x\nactors 9999999999999\n";
        assert!(matches!(
            FrameworkSnapshot::from_text(huge_actors),
            Err(CoreError::CorruptCheckpoint(_))
        ));
        let huge_critic = "qmarl-checkpoint v1\nlabel x\nactors 0\ncritic 987654321987654321\n";
        assert!(matches!(
            FrameworkSnapshot::from_text(huge_critic),
            Err(CoreError::CorruptCheckpoint(_))
        ));
    }

    #[test]
    fn trailing_content_and_concatenation_rejected() {
        let snap = FrameworkSnapshot {
            label: "t".into(),
            actor_params: vec![vec![1.0]],
            critic_params: vec![2.0],
        };
        let good = snap.to_text();
        assert!(FrameworkSnapshot::from_text(&good).is_ok());
        let doubled = format!("{good}{good}");
        assert!(matches!(
            FrameworkSnapshot::from_text(&doubled),
            Err(CoreError::CorruptCheckpoint(_))
        ));
        let garbage_tail = format!("{good}stray line\n");
        assert!(FrameworkSnapshot::from_text(&garbage_tail).is_err());
    }

    #[test]
    fn snapshot_save_is_atomic() {
        let snap = FrameworkSnapshot {
            label: "atomic".into(),
            actor_params: vec![vec![0.5; 4]],
            critic_params: vec![0.25; 3],
        };
        let dir = std::env::temp_dir().join("qmarl_snap_atomic_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("a.snap");
        snap.save(&path).expect("saves");
        // The tmp sibling is renamed away, never left behind.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(FrameworkSnapshot::load(&path).expect("loads"), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trainer_checkpoint_text_roundtrip_is_exact() {
        // Capture a genuinely trained state (non-empty replay, moments,
        // history) and require a bit-exact text round trip.
        let cfg = tiny_config();
        let mut trainer = build_trainer(FrameworkKind::Proposed, &cfg).expect("builds");
        trainer.train_vec(2, 2, 2).expect("trains");
        let ckpt = trainer.capture_state("roundtrip");
        assert!(!ckpt.replay.is_empty());
        assert!(ckpt.critic_opt.t > 0);
        assert_eq!(ckpt.history.len(), 2);
        let parsed = TrainerCheckpoint::from_text(&ckpt.to_text()).expect("parses");
        assert_eq!(
            parsed, ckpt,
            "full trainer state must round-trip bit-exactly"
        );
    }

    #[test]
    fn trainer_checkpoint_file_roundtrip() {
        let cfg = tiny_config();
        let mut trainer = build_trainer(FrameworkKind::Comp2, &cfg).expect("builds");
        trainer.train_vec(1, 2, 2).expect("trains");
        let ckpt = trainer.capture_state("file");
        let dir = std::env::temp_dir().join("qmarl_trainer_ckpt_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("cell.ckpt");
        ckpt.save(&path).expect("saves");
        // The atomic write leaves no temporary sibling behind.
        assert!(!path.with_extension("tmp").exists());
        let loaded = TrainerCheckpoint::load(&path).expect("loads");
        assert_eq!(loaded, ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newline_in_label_cannot_break_the_line_codec() {
        // A label with embedded line breaks must still produce a
        // parseable file (breaks flatten to spaces), never a shifted or
        // field-injecting document.
        let snap = FrameworkSnapshot {
            label: "cell A\nnotes\rseed 5".into(),
            actor_params: vec![vec![1.0]],
            critic_params: vec![2.0],
        };
        let parsed = FrameworkSnapshot::from_text(&snap.to_text()).expect("parses");
        assert_eq!(parsed.label, "cell A notes seed 5");
        assert_eq!(parsed.actor_params, snap.actor_params);

        let cfg = tiny_config();
        let mut trainer = build_trainer(FrameworkKind::Comp2, &cfg).expect("builds");
        trainer.train_vec(1, 1, 1).expect("trains");
        let mut ckpt = trainer.capture_state("x\ninjected");
        let parsed = TrainerCheckpoint::from_text(&ckpt.to_text()).expect("parses");
        assert_eq!(parsed.label, "x injected");
        ckpt.label = parsed.label.clone();
        assert_eq!(
            parsed, ckpt,
            "everything but the flattened label round-trips"
        );
    }

    #[test]
    fn trainer_checkpoint_rejects_malformed_text() {
        assert!(TrainerCheckpoint::from_text("").is_err());
        assert!(TrainerCheckpoint::from_text("qmarl-checkpoint v1\n").is_err());
        let head = "qmarl-trainer-checkpoint v1\nlabel x\nseed 7\nepoch 1\nrounds 1\n";
        assert!(TrainerCheckpoint::from_text(head).is_err(), "truncated");
        let bad_rng = format!("{head}rng 1 2 3\n");
        assert!(TrainerCheckpoint::from_text(&bad_rng).is_err(), "short rng");
        let bad_actor = format!("{head}rng 1 2 3 4\nactors 1\nactor 0 nope\n");
        assert!(TrainerCheckpoint::from_text(&bad_actor).is_err());
        assert!(TrainerCheckpoint::load("/nonexistent/x.ckpt").is_err());

        // Trailing content (e.g. two concatenated checkpoints) is a
        // corrupt file, not a parseable prefix.
        let cfg = tiny_config();
        let trainer = build_trainer(FrameworkKind::Comp2, &cfg).expect("builds");
        let good = trainer.capture_state("t").to_text();
        assert!(TrainerCheckpoint::from_text(&good).is_ok());
        let doubled = format!("{good}{good}");
        assert!(TrainerCheckpoint::from_text(&doubled).is_err());
    }

    /// Header counts that overflow `Vec` capacity (`u64::MAX`) or would
    /// need terabytes if reserved (`2^40`).
    const HUGE_COUNTS: [&str; 2] = ["18446744073709551615", "1099511627776"];

    /// A trainer-checkpoint prefix through the `actors 0` header.
    const TRAINER_HEAD: &str =
        "qmarl-trainer-checkpoint v1\nlabel x\nseed 7\nepoch 1\nrounds 1\nrng 1 2 3 4\n";

    /// The prefix through an empty critic optimizer, ready for `replay`.
    fn through_critic_opt() -> String {
        format!("{TRAINER_HEAD}actors 0\ncritic\ntarget\nopt critic t 0\nm\nv\n")
    }

    fn assert_typed_parse_error(text: &str) {
        assert!(
            matches!(
                TrainerCheckpoint::from_text(text),
                Err(CoreError::InvalidConfig(_))
            ),
            "{text:?} must be a typed parse error"
        );
    }

    #[test]
    fn trainer_checkpoint_huge_actor_count_is_a_typed_error() {
        for n in HUGE_COUNTS {
            assert_typed_parse_error(&format!("{TRAINER_HEAD}actors {n}\n"));
        }
    }

    #[test]
    fn trainer_checkpoint_huge_replay_count_is_a_typed_error() {
        for n in HUGE_COUNTS {
            assert_typed_parse_error(&format!("{}replay {n}\n", through_critic_opt()));
        }
    }

    #[test]
    fn trainer_checkpoint_huge_step_agent_count_is_a_typed_error() {
        for n in HUGE_COUNTS {
            let text = format!(
                "{}replay 1\nepisode 0 1\nstep agents {n} done 0\ns 1e0\n",
                through_critic_opt()
            );
            assert_typed_parse_error(&text);
        }
    }

    /// The spellings `f64::from_str` accepts for non-finite values
    /// (`1e400` overflows to `inf`).
    const NON_FINITE: [&str; 4] = ["NaN", "inf", "-inf", "1e400"];

    /// Asserts a non-finite rejection naming `section` and `index`.
    fn assert_rejected(
        result: Result<impl std::fmt::Debug, CoreError>,
        section: &str,
        index: usize,
    ) {
        match result {
            Err(CoreError::CorruptCheckpoint(msg)) => assert!(
                msg.contains(section) && msg.contains(&format!("index {index}")),
                "message {msg:?} must name {section} index {index}"
            ),
            other => panic!("expected CorruptCheckpoint for {section}, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_rejects_non_finite_parameters() {
        for bad in NON_FINITE {
            let actor = format!(
                "qmarl-checkpoint v1\nlabel x\nactors 1\nactor 0 2\n1e0\n{bad}\ncritic 1\n2e0\n"
            );
            assert_rejected(
                FrameworkSnapshot::from_text(&actor),
                "actor 0 parameters",
                1,
            );
            let critic = format!(
                "qmarl-checkpoint v1\nlabel x\nactors 1\nactor 0 1\n1e0\ncritic 3\n2e0\n3e0\n{bad}\n"
            );
            assert_rejected(
                FrameworkSnapshot::from_text(&critic),
                "critic parameters",
                2,
            );
        }

        // `save` refuses the same values and writes nothing.
        let dir = std::env::temp_dir().join("qmarl_snap_non_finite_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("nan.snap");
        let snap = FrameworkSnapshot {
            label: "nan".into(),
            actor_params: vec![vec![0.5, f64::NAN]],
            critic_params: vec![0.25],
        };
        assert_rejected(snap.save(&path), "actor 0 parameters", 1);
        assert!(!path.exists() && !path.with_extension("tmp").exists());
    }

    #[test]
    fn trainer_checkpoint_rejects_non_finite_parameters_and_moments() {
        let cfg = tiny_config();
        let mut trainer = build_trainer(FrameworkKind::Comp2, &cfg).expect("builds");
        trainer.train_vec(1, 1, 1).expect("trains");
        let ckpt = trainer.capture_state("finite");
        let text = ckpt.to_text();
        assert!(TrainerCheckpoint::from_text(&text).is_ok());

        // Replace value `index` of the first line tagged `tag`.
        let poison = |tag: &str, index: usize, bad: &str| -> String {
            let mut done = false;
            let mut out = String::new();
            for line in text.lines() {
                match line.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')) {
                    Some(values) if !done => {
                        done = true;
                        let mut words: Vec<&str> = values.split(' ').collect();
                        words[index] = bad;
                        out.push_str(&format!("{tag} {}\n", words.join(" ")));
                    }
                    _ => out.push_str(&format!("{line}\n")),
                }
            }
            assert!(done, "no {tag:?} line");
            out
        };
        for bad in NON_FINITE {
            for (tag, section) in [
                ("actor 0", "actor 0 parameters"),
                ("critic", "critic parameters"),
                ("target", "target parameters"),
                ("m", "actor 0 Adam m"),
                ("v", "actor 0 Adam v"),
            ] {
                assert_rejected(
                    TrainerCheckpoint::from_text(&poison(tag, 1, bad)),
                    section,
                    1,
                );
            }
        }

        // `save` refuses the same values and writes nothing.
        let dir = std::env::temp_dir().join("qmarl_trainer_non_finite_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("inf.ckpt");
        let mut bad = ckpt;
        bad.critic_opt.v[2] = f64::INFINITY;
        assert_rejected(bad.save(&path), "critic Adam v", 2);
        assert!(!path.exists() && !path.with_extension("tmp").exists());
    }

    #[test]
    fn restore_validates_architecture() {
        let cfg = tiny_config();
        let snap = FrameworkSnapshot {
            label: "bad".into(),
            actor_params: vec![vec![0.0; 50]; 2], // wrong actor count
            critic_params: vec![0.0; 50],
        };
        let mut actors =
            build_actors(FrameworkKind::Proposed, &cfg.env, &cfg.train).expect("builds");
        let mut critic =
            build_critic(FrameworkKind::Proposed, &cfg.env, &cfg.train).expect("builds");
        assert!(snap.restore(&mut actors, critic.as_mut()).is_err());

        let snap2 = FrameworkSnapshot {
            label: "bad2".into(),
            actor_params: vec![vec![0.0; 7]; 4], // wrong param length
            critic_params: vec![0.0; 50],
        };
        assert!(snap2.restore(&mut actors, critic.as_mut()).is_err());
    }
}
