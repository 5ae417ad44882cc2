//! [`VectorEnv`]: a batch of homogeneous episodes stepped in lockstep.
//!
//! The serial [`MultiAgentEnv`] interface hands the trainer one
//! observation set at a time, which starves a batched circuit executor:
//! every policy evaluation arrives as a single-sample forward pass. A
//! [`VectorEnv`] instead advances `B` independent episodes ("lanes") of
//! the *same* scenario together, exposing struct-of-arrays buffers — one
//! flat `f64` slab for all observations, one for all global states — so a
//! collector can hand `B × N` circuit evaluations to an executor as one
//! flat batch per lockstep tick.
//!
//! Determinism is lane-local: [`VectorEnv::reset_lanes`] seeds each lane
//! independently, and a lane's trajectory depends only on its seed and
//! the actions it is fed — never on the batch width or on its neighbours.
//! [`ReplicatedVecEnv`] is the blanket adapter that lifts any cloneable,
//! reseedable serial environment into the vector interface with exactly
//! that guarantee, which is what makes vectorized rollouts bit-identical
//! to serial ones (property-tested in `qmarl-runtime`).
//!
//! ## Buffer layout
//!
//! For `k` live lanes, `N` agents, observation width `d` and state width
//! `s`, the SoA buffers are row-major:
//!
//! ```text
//! observations: [lane 0: agent 0 │ agent 1 │ … │ agent N−1] [lane 1: …]   (k·N·d)
//! states:       [lane 0 state] [lane 1 state] …                           (k·s)
//! ```

use crate::error::EnvError;
use crate::multi_agent::{MultiAgentEnv, StepInfo};

/// An environment whose entire future randomness is determined by a
/// single seed: [`SeedableEnv::reseed`] re-seeds the internal RNG and
/// resets the episode. This is the capability the episode collector uses
/// to give each episode private, reproducible randomness independent of
/// scheduling or batch width.
pub trait SeedableEnv: MultiAgentEnv {
    /// Makes this instance's future stream fully determined by `seed`
    /// (also resets the episode).
    fn reseed(&mut self, seed: u64);
}

/// The initial buffers of a freshly seeded batch of lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct VecReset {
    /// The lane indices that were seeded, in row order.
    pub lanes: Vec<usize>,
    /// SoA observations, `lanes.len() · n_agents · obs_dim` long.
    pub observations: Vec<f64>,
    /// SoA global states, `lanes.len() · state_dim` long.
    pub states: Vec<f64>,
}

/// One lockstep tick's outcome across all live lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct VecStepOutcome {
    /// The lane index behind each dense row (lanes that finished on an
    /// earlier tick no longer occupy rows).
    pub lanes: Vec<usize>,
    /// SoA next observations, `lanes.len() · n_agents · obs_dim` long.
    pub observations: Vec<f64>,
    /// SoA next global states, `lanes.len() · state_dim` long.
    pub states: Vec<f64>,
    /// Shared team reward per row.
    pub rewards: Vec<f64>,
    /// Whether each row's episode just terminated.
    pub dones: Vec<bool>,
    /// Step diagnostics per row.
    pub infos: Vec<StepInfo>,
}

/// A batch of homogeneous episodes advanced in lockstep.
///
/// All lanes share one scenario shape (`n_agents`, `obs_dim`, …); each
/// lane owns private dynamics and randomness. Implementations must keep
/// lanes independent: feeding lane `i` the same seed and action sequence
/// must reproduce the same trajectory at any batch width.
pub trait VectorEnv {
    /// Maximum number of lanes this instance can run (`B`).
    fn batch_size(&self) -> usize;
    /// Number of agents `N` per lane.
    fn n_agents(&self) -> usize;
    /// Per-agent observation dimension.
    fn obs_dim(&self) -> usize;
    /// Global state dimension.
    fn state_dim(&self) -> usize;
    /// Size of each agent's discrete action space.
    fn n_actions(&self) -> usize;
    /// Maximum episode length per lane.
    fn episode_limit(&self) -> usize;

    /// Seeds and resets lanes `0..seeds.len()`, making them live; any
    /// remaining lanes are parked (useful for a final partial wave).
    ///
    /// # Errors
    ///
    /// Rejects an empty seed list or more seeds than [`VectorEnv::batch_size`].
    fn reset_lanes(&mut self, seeds: &[u64]) -> Result<VecReset, EnvError>;

    /// Advances every live lane one step. `actions` is row-major over the
    /// live lanes: `lanes.len() · n_agents` flat action indices, rows in
    /// the order reported by the previous reset/step call.
    ///
    /// # Errors
    ///
    /// Rejects a wrong-length action slab, out-of-range action indices,
    /// and stepping with no live lanes.
    fn step_lanes(&mut self, actions: &[usize]) -> Result<VecStepOutcome, EnvError>;

    /// Indices of lanes still running, in row order.
    fn live_lanes(&self) -> Vec<usize>;
}

/// The blanket adapter: `B` private clones of a serial environment,
/// stepped in lockstep behind the [`VectorEnv`] interface.
///
/// Each lane is a full clone of the template, re-seeded per episode via
/// [`SeedableEnv::reseed`] — so a lane's trajectory is *exactly* the
/// trajectory a serial one-episode-at-a-time loop would produce for the
/// same seed, and vectorized collection can be bit-identical to it.
#[derive(Debug, Clone)]
pub struct ReplicatedVecEnv<E> {
    lanes: Vec<E>,
    live: Vec<usize>,
}

impl<E: SeedableEnv + Clone> ReplicatedVecEnv<E> {
    /// Builds a `batch`-lane vector environment from a template.
    ///
    /// # Errors
    ///
    /// Rejects `batch == 0`.
    pub fn new(template: &E, batch: usize) -> Result<Self, EnvError> {
        if batch == 0 {
            return Err(EnvError::InvalidConfig(
                "vector environment needs at least one lane".into(),
            ));
        }
        Ok(ReplicatedVecEnv {
            lanes: vec![template.clone(); batch],
            live: Vec::new(),
        })
    }

    /// Direct access to one lane (diagnostics and tests).
    pub fn lane(&self, index: usize) -> &E {
        &self.lanes[index]
    }
}

impl<E: SeedableEnv + Clone> VectorEnv for ReplicatedVecEnv<E> {
    fn batch_size(&self) -> usize {
        self.lanes.len()
    }

    fn n_agents(&self) -> usize {
        self.lanes[0].n_agents()
    }

    fn obs_dim(&self) -> usize {
        self.lanes[0].obs_dim()
    }

    fn state_dim(&self) -> usize {
        self.lanes[0].state_dim()
    }

    fn n_actions(&self) -> usize {
        self.lanes[0].n_actions()
    }

    fn episode_limit(&self) -> usize {
        self.lanes[0].episode_limit()
    }

    fn reset_lanes(&mut self, seeds: &[u64]) -> Result<VecReset, EnvError> {
        if seeds.is_empty() || seeds.len() > self.lanes.len() {
            return Err(EnvError::InvalidConfig(format!(
                "need between 1 and {} lane seeds, got {}",
                self.lanes.len(),
                seeds.len()
            )));
        }
        let (na, od, sd) = (self.n_agents(), self.obs_dim(), self.state_dim());
        let mut reset = VecReset {
            lanes: (0..seeds.len()).collect(),
            observations: Vec::with_capacity(seeds.len() * na * od),
            states: Vec::with_capacity(seeds.len() * sd),
        };
        for (lane, &seed) in seeds.iter().enumerate() {
            // reseed-then-reset mirrors a serial one-episode-at-a-time loop
            // exactly (reseed the template clone, then reset).
            self.lanes[lane].reseed(seed);
            let (obs, state) = self.lanes[lane].reset();
            for o in &obs {
                reset.observations.extend_from_slice(o);
            }
            reset.states.extend_from_slice(&state);
        }
        self.live = reset.lanes.clone();
        Ok(reset)
    }

    fn step_lanes(&mut self, actions: &[usize]) -> Result<VecStepOutcome, EnvError> {
        if self.live.is_empty() {
            return Err(EnvError::EpisodeOver);
        }
        let na = self.n_agents();
        if actions.len() != self.live.len() * na {
            return Err(EnvError::WrongAgentCount {
                expected: self.live.len() * na,
                actual: actions.len(),
            });
        }
        let (od, sd) = (self.obs_dim(), self.state_dim());
        let k = self.live.len();
        let mut out = VecStepOutcome {
            lanes: self.live.clone(),
            observations: Vec::with_capacity(k * na * od),
            states: Vec::with_capacity(k * sd),
            rewards: Vec::with_capacity(k),
            dones: Vec::with_capacity(k),
            infos: Vec::with_capacity(k),
        };
        for (row, &lane) in out.lanes.iter().enumerate() {
            let step = self.lanes[lane].step(&actions[row * na..(row + 1) * na])?;
            for o in &step.observations {
                out.observations.extend_from_slice(o);
            }
            out.states.extend_from_slice(&step.state);
            out.rewards.push(step.reward);
            out.dones.push(step.done);
            out.infos.push(step.info);
        }
        self.live = out
            .lanes
            .iter()
            .zip(&out.dones)
            .filter(|(_, &done)| !done)
            .map(|(&lane, _)| lane)
            .collect();
        Ok(out)
    }

    fn live_lanes(&self) -> Vec<usize> {
        self.live.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_hop::{EnvConfig, SingleHopEnv};

    fn template(limit: usize) -> SingleHopEnv {
        let mut cfg = EnvConfig::paper_default();
        cfg.episode_limit = limit;
        SingleHopEnv::new(cfg, 0).unwrap()
    }

    #[test]
    fn shapes_mirror_the_template() {
        let v = ReplicatedVecEnv::new(&template(10), 3).unwrap();
        assert_eq!(v.batch_size(), 3);
        assert_eq!(v.n_agents(), 4);
        assert_eq!(v.obs_dim(), 4);
        assert_eq!(v.state_dim(), 16);
        assert_eq!(v.n_actions(), 4);
        assert_eq!(v.episode_limit(), 10);
    }

    #[test]
    fn zero_lanes_rejected() {
        assert!(ReplicatedVecEnv::new(&template(10), 0).is_err());
    }

    #[test]
    fn reset_validates_seed_count() {
        let mut v = ReplicatedVecEnv::new(&template(10), 2).unwrap();
        assert!(v.reset_lanes(&[]).is_err());
        assert!(v.reset_lanes(&[1, 2, 3]).is_err());
        assert!(v.reset_lanes(&[1, 2]).is_ok());
    }

    #[test]
    fn soa_buffers_have_documented_layout() {
        let mut v = ReplicatedVecEnv::new(&template(10), 2).unwrap();
        let r = v.reset_lanes(&[7, 9]).unwrap();
        assert_eq!(r.lanes, vec![0, 1]);
        assert_eq!(r.observations.len(), 2 * 4 * 4);
        assert_eq!(r.states.len(), 2 * 16);
        // Each lane's state is its concatenated observations, so the state
        // row must equal the observation row.
        assert_eq!(r.observations[..16], r.states[..16]);
        assert_eq!(r.observations[16..], r.states[16..]);

        let out = v.step_lanes(&[0, 1, 2, 3, 3, 2, 1, 0]).unwrap();
        assert_eq!(out.lanes, vec![0, 1]);
        assert_eq!(out.observations.len(), 32);
        assert_eq!(out.states.len(), 32);
        assert_eq!(out.rewards.len(), 2);
        assert_eq!(out.infos.len(), 2);
        assert!(out.dones.iter().all(|&d| !d));
    }

    #[test]
    fn lanes_reproduce_serial_trajectories_exactly() {
        // Lane i of a batch must equal a serial env reseeded with lane i's
        // seed and fed the same actions — for any batch width.
        let limit = 8;
        let seeds = [11u64, 22, 33];
        let actions_for =
            |lane: usize, t: usize| -> Vec<usize> { (0..4).map(|n| (lane + t + n) % 4).collect() };

        let mut serial = Vec::new();
        for (lane, &seed) in seeds.iter().enumerate() {
            let mut env = template(limit);
            env.reseed(seed);
            env.reset();
            let mut trace = Vec::new();
            for t in 0..limit {
                let out = env.step(&actions_for(lane, t)).unwrap();
                trace.push((out.reward, out.state.clone(), out.done));
            }
            serial.push(trace);
        }

        for batch in [3usize, 5] {
            let mut v = ReplicatedVecEnv::new(&template(limit), batch).unwrap();
            v.reset_lanes(&seeds).unwrap();
            #[allow(clippy::needless_range_loop)] // t also drives the action pattern
            for t in 0..limit {
                let flat: Vec<usize> = (0..3).flat_map(|lane| actions_for(lane, t)).collect();
                let out = v.step_lanes(&flat).unwrap();
                for (row, &lane) in out.lanes.iter().enumerate() {
                    let (reward, state, done) = &serial[lane][t];
                    assert_eq!(out.rewards[row], *reward, "lane {lane} t {t}");
                    assert_eq!(&out.states[row * 16..(row + 1) * 16], &state[..]);
                    assert_eq!(out.dones[row], *done);
                }
            }
            assert!(v.live_lanes().is_empty());
            assert!(matches!(v.step_lanes(&[]), Err(EnvError::EpisodeOver)));
        }
    }

    #[test]
    fn action_slab_length_validated() {
        let mut v = ReplicatedVecEnv::new(&template(5), 2).unwrap();
        v.reset_lanes(&[1, 2]).unwrap();
        assert!(matches!(
            v.step_lanes(&[0; 7]),
            Err(EnvError::WrongAgentCount {
                expected: 8,
                actual: 7
            })
        ));
        assert!(matches!(
            v.step_lanes(&[9; 8]),
            Err(EnvError::InvalidAction { .. })
        ));
    }

    #[test]
    fn partial_wave_parks_spare_lanes() {
        let mut v = ReplicatedVecEnv::new(&template(3), 4).unwrap();
        let r = v.reset_lanes(&[5]).unwrap();
        assert_eq!(r.lanes, vec![0]);
        assert_eq!(v.live_lanes(), vec![0]);
        for _ in 0..3 {
            v.step_lanes(&[0, 0, 0, 0]).unwrap();
        }
        assert!(v.live_lanes().is_empty());
    }
}
