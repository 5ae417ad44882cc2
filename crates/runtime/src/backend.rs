//! Execution backends: how a compiled circuit turns into numbers.
//!
//! The paper evaluates VQC policies under NISQ constraints, but an ideal
//! statevector simulator returns *exact* expectation values — the
//! `shots → ∞`, noise-free limit no hardware reaches. This module makes
//! the execution model an explicit, string-constructible axis of the
//! runtime:
//!
//! * [`ExecutionBackend::Ideal`] — the exact statevector path (the
//!   default; bit-identical to running without a backend at all),
//! * [`ExecutionBackend::Sampled`] — the circuit still runs exactly, but
//!   every readout is estimated from `shots` computational-basis samples,
//!   so policies, values and gradients carry `O(1/√shots)` shot noise,
//! * [`ExecutionBackend::Noisy`] — density-matrix execution with a
//!   [`NoiseModel`] channel injected after every gate (the raw, unfused
//!   schedule, so error grows with the *source* gate count exactly as in
//!   `vqc::exec::run_noisy`), optionally with finite-shot readout on top.
//!   Evaluations run on the compiled superoperator path
//!   (`runtime::superop`), verified against the interpreter at 1e-12,
//! * [`ExecutionBackend::Trajectory`] — quantum-trajectory (Kraus-
//!   sampling) execution of the same noise model: `samples` statevector
//!   runs with Pauli errors drawn after every raw-schedule gate, whose
//!   mean readout converges to the density result at `O(1/√samples)`
//!   cost per sample instead of `4^n` density work.
//!
//! # Determinism contract
//!
//! Stochastic backends mirror the episode collector's seeding discipline:
//! nothing ever draws from a shared mutable RNG. Each evaluation's sample
//! stream is seeded by
//!
//! ```text
//! derive_seed(root_seed, SHOT_STREAM, fingerprint(inputs, params, salt))
//! ```
//!
//! where the fingerprint hashes the evaluation's exact circuit bindings
//! (bit patterns of the bound inputs and parameters, plus a salt
//! distinguishing parameter-shift overrides). The evaluation index is
//! therefore *content-addressed*: it does not depend on batch position,
//! batch size, worker count or thread scheduling, so sampled results are
//! worker-count invariant and identical between the serial and batched
//! execution paths — the same guarantee the episode collector makes for
//! episodes, extended down to single circuit evaluations.

use std::fmt;
use std::str::FromStr;

use qmarl_qsim::noise::{NoiseChannel, NoiseModel};

use crate::error::RuntimeError;
use crate::rollout::derive_seed;

/// Stream tag for shot-sampling randomness (distinct from the rollout
/// engine's ENV/POLICY streams).
pub(crate) const SHOT_STREAM: u64 = 0x53_48_4F_54; // "SHOT"

/// Stream tag for per-trajectory error-sampling randomness: each
/// trajectory of an evaluation draws from
/// `derive_seed(eval_seed, TRAJ_STREAM, sample_index)`, so trajectories
/// are content-addressed exactly like shot streams.
pub(crate) const TRAJ_STREAM: u64 = 0x54_52_41_4A; // "TRAJ"

/// The most trajectories one evaluation may sample. A trajectory
/// evaluation holds `2ⁿ · samples` amplitudes, and backend strings come
/// from sweep specs, so [`ExecutionBackend::validate`] checks the cap
/// before anything runs: `samples=1000000000` is an
/// [`RuntimeError::InvalidConfig`], not an allocation abort.
pub const MAX_TRAJECTORY_SAMPLES: usize = 1 << 16;

/// How compiled circuits are executed and read out.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ExecutionBackend {
    /// Exact statevector simulation (the default): fused schedule, exact
    /// expectation values, every gradient method available.
    #[default]
    Ideal,
    /// Exact statevector evolution with **finite-shot readout**: each
    /// expectation is the mean of `shots` sampled `±1` outcomes, seeded
    /// per evaluation from `seed` (see the module docs). Gradients route
    /// through the parameter-shift rule with shot-sampled expectations.
    Sampled {
        /// Samples per readout (must be positive).
        shots: usize,
        /// Root seed of the derived per-evaluation sample streams.
        seed: u64,
    },
    /// Density-matrix execution with a channel injected after every gate
    /// of the **raw** schedule, matching `vqc::exec::run_noisy`. With
    /// `shots`, the diagonal of the final `ρ` is sampled instead of read
    /// exactly — channel noise and shot noise together.
    Noisy {
        /// The per-gate noise model.
        model: NoiseModel,
        /// Optional finite-shot readout on the noisy state.
        shots: Option<usize>,
        /// Root seed of the derived per-evaluation sample streams
        /// (unused when `shots` is `None` — density evolution is exact).
        seed: u64,
    },
    /// Quantum-trajectory execution of a noise model: `samples`
    /// statevector runs of the **raw** schedule, each inserting Pauli
    /// errors drawn from the channel after every gate
    /// ([`NoiseChannel::sample_pauli_error`]), readouts averaged over
    /// trajectories. For Pauli channels (depolarizing, bit/phase flip)
    /// the mean converges to the [`ExecutionBackend::Noisy`] density
    /// result with standard error `O(1/√samples)` — at statevector
    /// instead of density-matrix cost per sample.
    Trajectory {
        /// The per-gate noise model (sampled, not Kraus-evolved).
        model: NoiseModel,
        /// Trajectories per evaluation (positive, at most
        /// [`MAX_TRAJECTORY_SAMPLES`]).
        samples: usize,
        /// Root seed of the derived per-evaluation trajectory streams.
        seed: u64,
    },
}

impl ExecutionBackend {
    /// `true` for the exact statevector backend.
    pub fn is_ideal(&self) -> bool {
        matches!(self, ExecutionBackend::Ideal)
    }

    /// Short kind name (`"ideal"` / `"sampled"` / `"noisy"` /
    /// `"trajectory"`), used as the bench/report label.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecutionBackend::Ideal => "ideal",
            ExecutionBackend::Sampled { .. } => "sampled",
            ExecutionBackend::Noisy { .. } => "noisy",
            ExecutionBackend::Trajectory { .. } => "trajectory",
        }
    }

    /// `true` when the adjoint (and the prebound-adjoint) gradient path
    /// is available. Adjoint differentiation needs the exact final
    /// statevector and its reverse sweep, so it exists only on
    /// [`ExecutionBackend::Ideal`]; the stochastic backends differentiate
    /// by the hardware-compatible parameter-shift rule (the per-trajectory
    /// adjoint on `Trajectory`), and an adjoint request routes there.
    pub fn supports_adjoint(&self) -> bool {
        self.is_ideal()
    }

    /// Validates the configuration (positive shot counts, a trajectory
    /// sample count in `1..=MAX_TRAJECTORY_SAMPLES`, channel strengths in
    /// `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] on a zero shot budget or
    /// an out-of-range sample count, or a simulator error for a bad noise
    /// strength.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        match self {
            ExecutionBackend::Ideal => Ok(()),
            ExecutionBackend::Sampled { shots, .. } => {
                if *shots == 0 {
                    return Err(RuntimeError::InvalidConfig(
                        "sampled backend needs a positive shot count".into(),
                    ));
                }
                Ok(())
            }
            ExecutionBackend::Noisy { model, shots, .. } => {
                if shots == &Some(0) {
                    return Err(RuntimeError::InvalidConfig(
                        "noisy backend shot count must be positive when given".into(),
                    ));
                }
                model.validate().map_err(RuntimeError::from)
            }
            ExecutionBackend::Trajectory { model, samples, .. } => {
                if *samples == 0 {
                    return Err(RuntimeError::InvalidConfig(
                        "trajectory backend needs a positive sample count".into(),
                    ));
                }
                if *samples > MAX_TRAJECTORY_SAMPLES {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "{samples} trajectory samples exceed the cap of {MAX_TRAJECTORY_SAMPLES}"
                    )));
                }
                model.validate().map_err(RuntimeError::from)
            }
        }
    }

    /// The per-evaluation sample-stream seed for the given circuit
    /// bindings (see the module docs for the contract). `salt`
    /// distinguishes otherwise-identical bindings (the parameter-shift
    /// rule's angle overrides).
    pub(crate) fn eval_seed(root: u64, inputs: &[f64], params: &[f64], salt: u64) -> u64 {
        ExecutionBackend::salted_seed(root, ExecutionBackend::bindings_hash(inputs, params), salt)
    }

    /// The fingerprint state after the bindings — the part of
    /// [`ExecutionBackend::eval_seed`] shared by every evaluation of one
    /// item under one parameter vector, so a shift walk hashes it once
    /// per item instead of once per evaluation.
    pub(crate) fn bindings_hash(inputs: &[f64], params: &[f64]) -> u64 {
        // FNV-1a over the exact bit patterns: the fingerprint is a pure
        // function of the bindings, so two evaluations of the same
        // circuit instance draw the same stream no matter where or when
        // they run.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for x in inputs {
            fnv_eat(&mut h, x.to_bits());
        }
        fnv_eat(&mut h, u64::MAX); // domain separator between inputs and params
        for x in params {
            fnv_eat(&mut h, x.to_bits());
        }
        h
    }

    /// Finishes [`ExecutionBackend::eval_seed`] from a
    /// [`ExecutionBackend::bindings_hash`] state.
    pub(crate) fn salted_seed(root: u64, bindings: u64, salt: u64) -> u64 {
        let mut h = bindings;
        fnv_eat(&mut h, salt);
        derive_seed(root, SHOT_STREAM, h)
    }
}

/// One FNV-1a step per byte of `bits`, least significant byte first.
fn fnv_eat(h: &mut u64, bits: u64) {
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        *h ^= (bits >> shift) & 0xFF;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl fmt::Display for ExecutionBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionBackend::Ideal => write!(f, "ideal"),
            ExecutionBackend::Sampled { shots, seed } => {
                write!(f, "sampled:shots={shots}")?;
                if *seed != 0 {
                    write!(f, ":seed={seed}")?;
                }
                Ok(())
            }
            ExecutionBackend::Noisy { model, shots, seed } => {
                write!(f, "noisy")?;
                // Only depolarizing channels have a spec spelling; any
                // other channel is rendered as a key the parser rejects,
                // so a lossy roundtrip fails loudly instead of silently
                // re-parsing to a weaker noise model.
                match model.after_gate1 {
                    Some(NoiseChannel::Depolarizing { p }) => write!(f, ":p1={p}")?,
                    Some(_) => write!(f, ":channel1=custom")?,
                    None => {}
                }
                match model.after_gate2 {
                    Some(NoiseChannel::Depolarizing { p }) => write!(f, ":p2={p}")?,
                    Some(_) => write!(f, ":channel2=custom")?,
                    None => {}
                }
                if let Some(s) = shots {
                    write!(f, ":shots={s}")?;
                }
                if *seed != 0 {
                    write!(f, ":seed={seed}")?;
                }
                Ok(())
            }
            ExecutionBackend::Trajectory {
                model,
                samples,
                seed,
            } => {
                write!(f, "trajectory")?;
                // Same lossy-roundtrip-fails-loudly rule as `noisy`:
                // only depolarizing channels have a spec spelling.
                match model.after_gate1 {
                    Some(NoiseChannel::Depolarizing { p }) => write!(f, ":p1={p}")?,
                    Some(_) => write!(f, ":channel1=custom")?,
                    None => {}
                }
                match model.after_gate2 {
                    Some(NoiseChannel::Depolarizing { p }) => write!(f, ":p2={p}")?,
                    Some(_) => write!(f, ":channel2=custom")?,
                    None => {}
                }
                write!(f, ":samples={samples}")?;
                if *seed != 0 {
                    write!(f, ":seed={seed}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for ExecutionBackend {
    type Err = RuntimeError;

    /// Parses a backend spec string:
    ///
    /// * `"ideal"`
    /// * `"sampled:shots=<n>[:seed=<n>]"`
    /// * `"noisy:p1=<f>:p2=<f>[:shots=<n>][:seed=<n>]"` — uniform
    ///   depolarizing noise with rate `p1` after one-qubit gates and `p2`
    ///   after two-qubit gates.
    /// * `"trajectory:p1=<f>:p2=<f>:samples=<n>[:seed=<n>]"` — the same
    ///   depolarizing model executed by quantum-trajectory sampling with
    ///   `samples` statevector runs per evaluation.
    fn from_str(spec: &str) -> Result<Self, RuntimeError> {
        let bad = |msg: String| RuntimeError::InvalidConfig(msg);
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let mut shots: Option<usize> = None;
        let mut seed: Option<u64> = None;
        let mut p1: Option<f64> = None;
        let mut p2: Option<f64> = None;
        let mut samples: Option<usize> = None;
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("backend spec segment {part:?} is not key=value")))?;
            // Duplicate keys last-winning would silently discard the
            // earlier value, so they are rejected like every other
            // silently-dropped-input case.
            fn set<T: std::str::FromStr>(
                slot: &mut Option<T>,
                key: &str,
                value: &str,
            ) -> Result<(), RuntimeError> {
                if slot.is_some() {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "backend spec key {key:?} given more than once"
                    )));
                }
                *slot = Some(value.parse().map_err(|_| {
                    RuntimeError::InvalidConfig(format!(
                        "backend spec {key} {value:?} is not a valid value"
                    ))
                })?);
                Ok(())
            }
            match key {
                "shots" => set(&mut shots, key, value)?,
                "seed" => set(&mut seed, key, value)?,
                "p1" => set(&mut p1, key, value)?,
                "p2" => set(&mut p2, key, value)?,
                "samples" => set(&mut samples, key, value)?,
                other => {
                    return Err(bad(format!(
                        "unknown backend spec key {other:?} \
                         (expected shots/seed/p1/p2/samples)"
                    )))
                }
            }
        }
        // Every key the chosen kind does not consume is an error, never
        // silently dropped — "sampled:shots=1024:p1=0.01" must not run a
        // noise-free experiment while looking like a noisy one.
        let backend = match kind {
            "ideal" => {
                if shots.is_some()
                    || p1.is_some()
                    || p2.is_some()
                    || seed.is_some()
                    || samples.is_some()
                {
                    return Err(bad("ideal backend takes no parameters".into()));
                }
                ExecutionBackend::Ideal
            }
            "sampled" => {
                if p1.is_some() || p2.is_some() {
                    return Err(bad(
                        "sampled backend has no noise channel (p1/p2); use the noisy kind".into(),
                    ));
                }
                if samples.is_some() {
                    return Err(bad(
                        "samples=<n> belongs to the trajectory kind; sampled uses shots=<n>".into(),
                    ));
                }
                ExecutionBackend::Sampled {
                    shots: shots.ok_or_else(|| bad("sampled backend needs shots=<n>".into()))?,
                    seed: seed.unwrap_or(0),
                }
            }
            "noisy" => {
                if p1.is_none() && p2.is_none() {
                    return Err(bad(
                        "noisy backend needs a channel (p1=<f> and/or p2=<f>); \
                         a rate-free spec would silently run noise-free"
                            .into(),
                    ));
                }
                if samples.is_some() {
                    return Err(bad(
                        "samples=<n> belongs to the trajectory kind; noisy evolves \
                         the full density matrix"
                            .into(),
                    ));
                }
                ExecutionBackend::Noisy {
                    model: NoiseModel::depolarizing(p1.unwrap_or(0.0), p2.unwrap_or(0.0))?,
                    shots,
                    seed: seed.unwrap_or(0),
                }
            }
            "trajectory" => {
                if p1.is_none() && p2.is_none() {
                    return Err(bad(
                        "trajectory backend needs a channel (p1=<f> and/or p2=<f>); \
                         a rate-free spec would silently run noise-free"
                            .into(),
                    ));
                }
                if shots.is_some() {
                    return Err(bad("trajectory backend reads each trajectory exactly; \
                         shots=<n> belongs to the sampled/noisy kinds"
                        .into()));
                }
                ExecutionBackend::Trajectory {
                    model: NoiseModel::depolarizing(p1.unwrap_or(0.0), p2.unwrap_or(0.0))?,
                    samples: samples
                        .ok_or_else(|| bad("trajectory backend needs samples=<n>".into()))?,
                    seed: seed.unwrap_or(0),
                }
            }
            other => {
                return Err(bad(format!(
                    "unknown backend kind {other:?} \
                     (expected ideal, sampled, noisy or trajectory)"
                )))
            }
        };
        backend.validate()?;
        Ok(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for spec in [
            "ideal",
            "sampled:shots=1024",
            "sampled:shots=1024:seed=7",
            "noisy:p1=0.001:p2=0.002",
            "noisy:p1=0.001:p2=0.002:shots=2048:seed=9",
            "trajectory:p1=0.001:p2=0.002:samples=16",
            "trajectory:p1=0.001:p2=0.002:samples=16:seed=1",
        ] {
            let backend: ExecutionBackend = spec.parse().unwrap();
            assert_eq!(backend.to_string(), spec, "canonical form roundtrips");
            let again: ExecutionBackend = backend.to_string().parse().unwrap();
            assert_eq!(again, backend);
        }
        assert_eq!(
            "ideal".parse::<ExecutionBackend>().unwrap(),
            ExecutionBackend::default()
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "",
            "hardware",
            "sampled",             // missing shots
            "sampled:shots=0",     // zero shots
            "sampled:shots=abc",   // non-integer
            "sampled:1024",        // not key=value
            "noisy:p1=2.0:p2=0.0", // probability out of range
            "noisy:p1=0.1:p2=0.1:shots=0",
            "ideal:shots=5",           // ideal takes no parameters
            "ideal:seed=5",            // …including a seed
            "sampled:shots=8:p1=0.01", // noise keys on a noise-free kind
            "sampled:shots=8:laser=on",
            "noisy",                      // rate-free "noisy" would silently run noise-free
            "noisy:shots=64",             // …same with only a shot budget
            "sampled:shots=1024:shots=8", // duplicate keys must not last-win
            "trajectory:p1=0.01:p2=0.02", // missing samples
            "trajectory:samples=8",       // rate-free trajectory, same rule as noisy
            "trajectory:p1=0.1:samples=8:shots=4", // shots belong to sampled/noisy
            "trajectory:p1=0.1:samples=0", // zero samples
            "sampled:shots=8:samples=4",  // samples key on the wrong kind
            "noisy:p1=0.1:samples=4",     // …same for noisy
            "ideal:samples=1",            // ideal takes no parameters
        ] {
            assert!(
                spec.parse::<ExecutionBackend>().is_err(),
                "{spec:?} must be rejected"
            );
        }
    }

    #[test]
    fn trajectory_sample_count_is_capped() {
        let spec = |samples: usize| format!("trajectory:p1=0.01:p2=0.02:samples={samples}");
        let at_cap: ExecutionBackend = spec(MAX_TRAJECTORY_SAMPLES).parse().unwrap();
        assert!(at_cap.validate().is_ok());
        // Once a 64 GB slab allocation abort on the first evaluation.
        for samples in [MAX_TRAJECTORY_SAMPLES + 1, 1_000_000_000] {
            let err = spec(samples).parse::<ExecutionBackend>().unwrap_err();
            assert!(matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("cap")));
        }
        let over = ExecutionBackend::Trajectory {
            model: NoiseModel::depolarizing(0.01, 0.02).unwrap(),
            samples: MAX_TRAJECTORY_SAMPLES + 1,
            seed: 0,
        };
        assert!(matches!(
            over.validate(),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn lossy_display_of_custom_channels_fails_to_reparse() {
        // The spec grammar only spells depolarizing channels; any other
        // channel must not roundtrip into a silently weaker backend.
        let custom = ExecutionBackend::Noisy {
            model: NoiseModel {
                after_gate1: Some(NoiseChannel::BitFlip { p: 0.1 }),
                after_gate2: None,
            },
            shots: None,
            seed: 0,
        };
        let spec = custom.to_string();
        assert!(spec.contains("channel1=custom"));
        assert!(spec.parse::<ExecutionBackend>().is_err());
        // Same rule for the trajectory kind.
        let custom_traj = ExecutionBackend::Trajectory {
            model: NoiseModel {
                after_gate1: None,
                after_gate2: Some(NoiseChannel::AmplitudeDamping { gamma: 0.2 }),
            },
            samples: 8,
            seed: 0,
        };
        let spec = custom_traj.to_string();
        assert!(spec.contains("channel2=custom"));
        assert!(spec.parse::<ExecutionBackend>().is_err());
    }

    #[test]
    fn capability_routing() {
        let ideal = ExecutionBackend::Ideal;
        let sampled = ExecutionBackend::Sampled { shots: 64, seed: 0 };
        let trajectory: ExecutionBackend = "trajectory:p1=0.01:p2=0.02:samples=8".parse().unwrap();
        assert!(ideal.supports_adjoint());
        assert!(!sampled.supports_adjoint());
        assert!(!trajectory.supports_adjoint());
        assert_eq!(ideal.kind(), "ideal");
        assert_eq!(sampled.kind(), "sampled");
        assert_eq!(trajectory.kind(), "trajectory");
        assert!(!trajectory.is_ideal());
    }

    #[test]
    fn eval_seed_is_content_addressed() {
        let a = ExecutionBackend::eval_seed(1, &[0.1, 0.2], &[0.3], 0);
        // Same bindings, same stream.
        assert_eq!(a, ExecutionBackend::eval_seed(1, &[0.1, 0.2], &[0.3], 0));
        // Any change to root, inputs, params or salt moves the stream.
        assert_ne!(a, ExecutionBackend::eval_seed(2, &[0.1, 0.2], &[0.3], 0));
        assert_ne!(a, ExecutionBackend::eval_seed(1, &[0.1, 0.3], &[0.3], 0));
        assert_ne!(a, ExecutionBackend::eval_seed(1, &[0.1, 0.2], &[0.4], 0));
        assert_ne!(a, ExecutionBackend::eval_seed(1, &[0.1, 0.2], &[0.3], 1));
        // Moving a value across the inputs/params boundary changes the
        // fingerprint (domain separation).
        assert_ne!(
            ExecutionBackend::eval_seed(1, &[0.1, 0.2], &[], 0),
            ExecutionBackend::eval_seed(1, &[0.1], &[0.2], 0)
        );
    }
}
