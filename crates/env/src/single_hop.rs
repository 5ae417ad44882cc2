//! The single-hop edge-to-cloud offloading environment (Sec. IV-A).
//!
//! `N` edge agents each hold a queue fed by exogenous packet arrivals and,
//! every slot, offload a chosen volume to one of `K` cloud queues. Clouds
//! drain at a constant service rate. The team is punished when a **cloud**
//! queue underflows (idle capacity) or overflows (dropped packets) —
//! eq. (1) — so the agents must learn to keep both clouds evenly fed
//! without knowing each other's actions.
//!
//! The MDP matches Table I exactly:
//!
//! | element | definition |
//! |---|---|
//! | observation | `o^n_t = {q^{e,n}_t, q^{e,n}_{t−1}} ∪ {q^{c,k}_t}_k` |
//! | action | `u^n_t ∈ I × P` (destination cloud × packet amount) |
//! | state | `s_t = ∪_n o^n_t` (concatenation) |
//! | reward | eq. (1), weighted by `w_R` |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::ActionSpace;
use crate::error::EnvError;
use crate::multi_agent::{MultiAgentEnv, StepInfo, StepOutcome};
use crate::queue::Queue;
use crate::traffic::{ArrivalProcess, ArrivalSampler};

/// How queues are initialised at `reset`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum InitQueue {
    /// Every queue starts at this fraction of `q_max`.
    Fixed(f64),
    /// Uniform in `[lo, hi]` (fractions of `q_max`), drawn per queue.
    Uniform(f64, f64),
}

/// Full environment configuration. [`EnvConfig::paper_default`] reproduces
/// Table II.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnvConfig {
    /// Number of clouds `K`.
    pub n_clouds: usize,
    /// Number of edge agents `N`.
    pub n_edges: usize,
    /// Queue capacity `q_max`.
    pub q_max: f64,
    /// Arrival-scale hyper-parameter `w_P` (edge arrivals `~ U(0, w_P·q_max)`).
    pub w_p: f64,
    /// Overflow penalty weight `w_R` in eq. (1).
    pub w_r: f64,
    /// Constant cloud service (departure) volume per slot.
    pub cloud_departure: f64,
    /// The packet-amount set `P`.
    pub packet_amounts: Vec<f64>,
    /// Episode length `T`.
    pub episode_limit: usize,
    /// Queue initialisation at reset.
    pub init_queue: InitQueue,
    /// When `true`, an edge can only transmit what its queue holds
    /// (`min(p, q)` reaches the cloud). The paper's dynamics clip the edge
    /// queue but let the nominal volume reach the cloud; `false` (default)
    /// reproduces that literal behaviour.
    pub strict_transmission: bool,
    /// Edge arrival process (defaults to the paper's uniform law).
    pub arrival: ArrivalProcess,
}

impl EnvConfig {
    /// Table II: `K = 2`, `N = 4`, `P = {0.1, 0.2}`, `w_P = 0.3`,
    /// `w_R = 4`, cloud service `0.3`, `q_max = 1`.
    ///
    /// The paper does not print the episode length; we calibrate
    /// `T = 300`, for which the uniform-random baseline's return is
    /// −33.6 ± 0.5 — matching the paper's reported −33.2 (see
    /// EXPERIMENTS.md calibration note).
    pub fn paper_default() -> Self {
        EnvConfig {
            n_clouds: 2,
            n_edges: 4,
            q_max: 1.0,
            w_p: 0.3,
            w_r: 4.0,
            cloud_departure: 0.3,
            packet_amounts: vec![0.1, 0.2],
            episode_limit: 300,
            init_queue: InitQueue::Uniform(0.3, 0.7),
            strict_transmission: false,
            arrival: ArrivalProcess::Uniform { max: 0.3 },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), EnvError> {
        if self.n_clouds == 0 || self.n_edges == 0 {
            return Err(EnvError::InvalidConfig(
                "need at least one cloud and one edge".into(),
            ));
        }
        if self.q_max <= 0.0 {
            return Err(EnvError::InvalidConfig("q_max must be positive".into()));
        }
        if self.w_p < 0.0 || self.w_r < 0.0 {
            return Err(EnvError::InvalidConfig(
                "w_P and w_R must be non-negative".into(),
            ));
        }
        if self.cloud_departure < 0.0 {
            return Err(EnvError::InvalidConfig(
                "cloud departure must be non-negative".into(),
            ));
        }
        if self.episode_limit == 0 {
            return Err(EnvError::InvalidConfig(
                "episode limit must be positive".into(),
            ));
        }
        match self.init_queue {
            InitQueue::Fixed(f) if !(0.0..=1.0).contains(&f) => {
                return Err(EnvError::InvalidConfig(
                    "fixed init fraction outside [0, 1]".into(),
                ))
            }
            InitQueue::Uniform(lo, hi)
                if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi =>
            {
                return Err(EnvError::InvalidConfig("uniform init range invalid".into()))
            }
            _ => {}
        }
        ActionSpace::new(self.n_clouds, self.packet_amounts.clone())?;
        self.arrival.validate()?;
        Ok(())
    }

    /// Per-agent observation dimension: `2 + K` (Table I).
    pub fn obs_dim(&self) -> usize {
        2 + self.n_clouds
    }

    /// Global state dimension: `N · (2 + K)`.
    pub fn state_dim(&self) -> usize {
        self.n_edges * self.obs_dim()
    }
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig::paper_default()
    }
}

/// The single-hop offloading environment.
#[derive(Debug, Clone)]
pub struct SingleHopEnv {
    config: EnvConfig,
    actions: ActionSpace,
    rng: StdRng,
    edge_queues: Vec<Queue>,
    prev_edge_levels: Vec<f64>,
    cloud_queues: Vec<Queue>,
    arrivals: Vec<ArrivalSampler>,
    t: usize,
    done: bool,
}

impl SingleHopEnv {
    /// Builds the environment with a deterministic RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: EnvConfig, seed: u64) -> Result<Self, EnvError> {
        config.validate()?;
        let actions = ActionSpace::new(config.n_clouds, config.packet_amounts.clone())?;
        let arrivals = (0..config.n_edges)
            .map(|_| ArrivalSampler::new(config.arrival))
            .collect();
        let mut env = SingleHopEnv {
            edge_queues: vec![Queue::new(0.0, config.q_max); config.n_edges],
            prev_edge_levels: vec![0.0; config.n_edges],
            cloud_queues: vec![Queue::new(0.0, config.q_max); config.n_clouds],
            arrivals,
            rng: StdRng::seed_from_u64(seed),
            actions,
            config,
            t: 0,
            done: true,
        };
        env.reset_internal();
        Ok(env)
    }

    /// The configuration in force.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Re-seeds the internal RNG, clears hidden arrival-sampler state and
    /// resets the episode, making this instance's future stream fully
    /// determined by `seed`. This is the hook the episode collector's
    /// vectorized lanes use to give each episode its own derived,
    /// reproducible randomness independent of scheduling.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        for sampler in &mut self.arrivals {
            sampler.reset();
        }
        self.reset_internal();
    }

    /// The action space.
    pub fn action_space(&self) -> &ActionSpace {
        &self.actions
    }

    /// Current simulation time within the episode.
    pub fn time(&self) -> usize {
        self.t
    }

    /// Current edge queue levels (diagnostic).
    pub fn edge_levels(&self) -> Vec<f64> {
        self.edge_queues.iter().map(Queue::level).collect()
    }

    /// Current cloud queue levels (diagnostic).
    pub fn cloud_levels(&self) -> Vec<f64> {
        self.cloud_queues.iter().map(Queue::level).collect()
    }

    fn init_level(&mut self) -> f64 {
        let q_max = self.config.q_max;
        match self.config.init_queue {
            InitQueue::Fixed(f) => f * q_max,
            InitQueue::Uniform(lo, hi) => {
                if lo == hi {
                    lo * q_max
                } else {
                    self.rng.gen_range(lo..hi) * q_max
                }
            }
        }
    }

    fn reset_internal(&mut self) {
        for i in 0..self.config.n_edges {
            let lvl = self.init_level();
            self.edge_queues[i].set_level(lvl);
            self.prev_edge_levels[i] = lvl;
        }
        for k in 0..self.config.n_clouds {
            let lvl = self.init_level();
            self.cloud_queues[k].set_level(lvl);
        }
        self.t = 0;
        self.done = false;
    }

    fn observation(&self, n: usize) -> Vec<f64> {
        // o^n_t = {q_e(t), q_e(t−1)} ∪ {q_c,k(t)} — all normalised by q_max.
        let q_max = self.config.q_max;
        let mut o = Vec::with_capacity(self.config.obs_dim());
        o.push(self.edge_queues[n].level() / q_max);
        o.push(self.prev_edge_levels[n] / q_max);
        for c in &self.cloud_queues {
            o.push(c.level() / q_max);
        }
        o
    }

    fn observations(&self) -> Vec<Vec<f64>> {
        (0..self.config.n_edges)
            .map(|n| self.observation(n))
            .collect()
    }

    fn global_state(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(self.config.state_dim());
        for n in 0..self.config.n_edges {
            s.extend(self.observation(n));
        }
        s
    }
}

impl MultiAgentEnv for SingleHopEnv {
    fn n_agents(&self) -> usize {
        self.config.n_edges
    }

    fn obs_dim(&self) -> usize {
        self.config.obs_dim()
    }

    fn state_dim(&self) -> usize {
        self.config.state_dim()
    }

    fn n_actions(&self) -> usize {
        self.actions.len()
    }

    fn episode_limit(&self) -> usize {
        self.config.episode_limit
    }

    fn reset(&mut self) -> (Vec<Vec<f64>>, Vec<f64>) {
        self.reset_internal();
        (self.observations(), self.global_state())
    }

    fn step(&mut self, actions: &[usize]) -> Result<StepOutcome, EnvError> {
        if self.done {
            return Err(EnvError::EpisodeOver);
        }
        if actions.len() != self.config.n_edges {
            return Err(EnvError::WrongAgentCount {
                expected: self.config.n_edges,
                actual: actions.len(),
            });
        }
        let decoded: Vec<_> = actions
            .iter()
            .map(|&a| self.actions.decode(a))
            .collect::<Result<_, _>>()?;

        // 1. Edge transmissions: nominal volume per the chosen action; the
        //    paper's dynamics clip the edge queue (it cannot go negative)
        //    and, unless strict_transmission is set, the nominal volume is
        //    what reaches the chosen cloud.
        let mut cloud_arrivals = vec![0.0; self.config.n_clouds];
        let mut edge_departures = vec![0.0; self.config.n_edges];
        for (n, act) in decoded.iter().enumerate() {
            let volume = if self.config.strict_transmission {
                act.amount.min(self.edge_queues[n].level())
            } else {
                act.amount
            };
            cloud_arrivals[act.destination] += volume;
            edge_departures[n] = act.amount;
        }

        // 2. Edge queue updates with fresh exogenous arrivals.
        #[allow(clippy::needless_range_loop)] // n indexes four parallel arrays
        for n in 0..self.config.n_edges {
            self.prev_edge_levels[n] = self.edge_queues[n].level();
            let b = self.arrivals[n].sample(&mut self.rng);
            self.edge_queues[n].step(edge_departures[n], b);
        }

        // 3. Cloud queue updates + eq. (1) reward.
        let mut reward = 0.0;
        let mut cloud_empty = vec![false; self.config.n_clouds];
        let mut cloud_full = vec![false; self.config.n_clouds];
        for k in 0..self.config.n_clouds {
            let tr = self.cloud_queues[k].step(self.config.cloud_departure, cloud_arrivals[k]);
            // q̃ = |q − u + b| (pre-clip magnitude), q̂ = |q_max − q̃|.
            let q_tilde = tr.pre_clip.abs();
            let q_hat = (self.config.q_max - q_tilde).abs();
            if tr.is_empty {
                reward -= q_tilde;
                cloud_empty[k] = true;
            }
            if tr.is_full {
                reward -= q_hat * self.config.w_r;
                cloud_full[k] = true;
            }
        }

        self.t += 1;
        if self.t >= self.config.episode_limit {
            self.done = true;
        }

        let mut queue_levels = self.edge_levels();
        queue_levels.extend(self.cloud_levels());
        Ok(StepOutcome {
            observations: self.observations(),
            state: self.global_state(),
            reward,
            done: self.done,
            info: StepInfo {
                queue_levels,
                cloud_empty,
                cloud_full,
            },
        })
    }
}

impl crate::vector::SeedableEnv for SingleHopEnv {
    fn reseed(&mut self, seed: u64) {
        SingleHopEnv::reseed(self, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seed: u64) -> SingleHopEnv {
        SingleHopEnv::new(EnvConfig::paper_default(), seed).unwrap()
    }

    #[test]
    fn dimensions_match_table1() {
        let e = env(0);
        assert_eq!(e.n_agents(), 4);
        assert_eq!(e.obs_dim(), 4); // {q_e(t), q_e(t−1)} ∪ {q_c,1, q_c,2}
        assert_eq!(e.state_dim(), 16);
        assert_eq!(e.n_actions(), 4); // |I × P| = 2 · 2
        assert_eq!(e.episode_limit(), 300);
    }

    #[test]
    fn reset_produces_consistent_shapes() {
        let mut e = env(1);
        let (obs, state) = e.reset();
        assert_eq!(obs.len(), 4);
        assert!(obs.iter().all(|o| o.len() == 4));
        assert_eq!(state.len(), 16);
        let flat: Vec<f64> = obs.concat();
        assert_eq!(flat, state, "state must be the concatenated observations");
    }

    #[test]
    fn observations_are_normalised() {
        let mut e = env(2);
        let (obs, _) = e.reset();
        for o in &obs {
            assert!(o.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        for _ in 0..20 {
            let out = e.step(&[0, 1, 2, 3]).unwrap();
            for o in &out.observations {
                assert!(o.iter().all(|v| (0.0..=1.0).contains(v)));
            }
            if out.done {
                break;
            }
        }
    }

    #[test]
    fn observation_contains_previous_edge_level() {
        let mut e = env(3);
        let (obs0, _) = e.reset();
        let out = e.step(&[0, 0, 0, 0]).unwrap();
        for (n, o) in out.observations.iter().enumerate() {
            // Slot 1 of the new obs must equal slot 0 of the previous obs.
            assert!((o[1] - obs0[n][0]).abs() < 1e-12, "agent {n}");
        }
    }

    #[test]
    fn episode_terminates_at_limit() {
        let mut cfg = EnvConfig::paper_default();
        cfg.episode_limit = 20;
        let mut e = SingleHopEnv::new(cfg, 4).unwrap();
        e.reset();
        for t in 1..=20 {
            let out = e.step(&[0, 0, 0, 0]).unwrap();
            assert_eq!(out.done, t == 20);
        }
        assert!(matches!(e.step(&[0, 0, 0, 0]), Err(EnvError::EpisodeOver)));
    }

    #[test]
    fn action_validation() {
        let mut e = env(5);
        e.reset();
        assert!(matches!(
            e.step(&[0, 0]),
            Err(EnvError::WrongAgentCount { .. })
        ));
        assert!(matches!(
            e.step(&[0, 0, 0, 9]),
            Err(EnvError::InvalidAction { .. })
        ));
    }

    #[test]
    fn reward_is_nonpositive() {
        // Eq. (1) only subtracts penalties: r ∈ (−∞, 0].
        let mut e = env(6);
        e.reset();
        for _ in 0..20 {
            let a: Vec<usize> = (0..4).map(|i| i % 4).collect();
            let out = e.step(&a).unwrap();
            assert!(out.reward <= 0.0);
            if out.done {
                break;
            }
        }
    }

    #[test]
    fn overflow_penalty_weighted_by_wr() {
        // Force overflow: start clouds nearly full, dump everything on cloud 0.
        let mut cfg = EnvConfig::paper_default();
        cfg.init_queue = InitQueue::Fixed(1.0);
        cfg.cloud_departure = 0.0;
        let mut e = SingleHopEnv::new(cfg, 7).unwrap();
        e.reset();
        // All four edges send 0.2 to cloud 0 → pre-clip 1.8, overflow 0.8,
        // q̂ = |1 − 1.8| = 0.8, penalty 0.8·4 = 3.2. Cloud 1 gets nothing
        // and stays full (pre-clip 1.0 → q̂ = 0 → no numeric penalty).
        let out = e.step(&[1, 1, 1, 1]).unwrap();
        assert!(out.info.cloud_full.iter().all(|&f| f));
        assert!((out.reward + 3.2).abs() < 1e-9, "reward {}", out.reward);
    }

    #[test]
    fn underflow_penalty_magnitude() {
        let mut cfg = EnvConfig::paper_default();
        cfg.init_queue = InitQueue::Fixed(0.0);
        cfg.cloud_departure = 0.3;
        cfg.w_p = 0.0; // no edge arrivals
        cfg.arrival = ArrivalProcess::Uniform { max: 0.0 };
        let mut e = SingleHopEnv::new(cfg, 8).unwrap();
        e.reset();
        // Edges all send 0.1 to cloud 0: cloud 0 pre-clip = 0 − 0.3 + 0.4 = 0.1 (fine);
        // cloud 1 pre-clip = −0.3 → empty, penalty q̃ = 0.3.
        let out = e.step(&[0, 0, 0, 0]).unwrap();
        assert!(out.info.cloud_empty[1]);
        assert!(!out.info.cloud_empty[0]);
        assert!((out.reward + 0.3).abs() < 1e-9, "reward {}", out.reward);
    }

    #[test]
    fn strict_transmission_limits_to_queue_content() {
        let mut cfg = EnvConfig::paper_default();
        cfg.init_queue = InitQueue::Fixed(0.0);
        cfg.strict_transmission = true;
        cfg.cloud_departure = 0.0;
        cfg.arrival = ArrivalProcess::Uniform { max: 0.0 };
        let mut e = SingleHopEnv::new(cfg, 9).unwrap();
        e.reset();
        // Edges are empty: nothing reaches the clouds, which stay empty.
        let out = e.step(&[1, 1, 1, 1]).unwrap();
        assert!((e.cloud_levels()[0] - 0.0).abs() < 1e-12);
        assert!(out.info.cloud_empty.iter().all(|&b| b));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut e = env(seed);
            e.reset();
            let mut trace = Vec::new();
            for t in 0..20 {
                let a = [t % 4, (t + 1) % 4, (t + 2) % 4, (t + 3) % 4];
                let out = e.step(&a).unwrap();
                trace.push(out.reward);
                trace.extend(out.info.queue_levels);
            }
            trace
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn reseed_clears_hidden_arrival_state() {
        // Regression: ON/OFF samplers carry a hidden state bit; reseeding
        // a driven environment must reproduce a freshly seeded one, or
        // lane reuse across rollout waves would diverge from serial
        // collection.
        let mut cfg = EnvConfig::paper_default();
        cfg.arrival = ArrivalProcess::OnOff {
            p_on: 0.9,
            p_off: 0.05,
            volume: 0.3,
        };
        cfg.episode_limit = 30;
        let mut driven = SingleHopEnv::new(cfg.clone(), 0).unwrap();
        driven.reset();
        for _ in 0..30 {
            driven.step(&[0, 1, 2, 3]).unwrap(); // flip samplers ON
        }
        driven.reseed(123);
        driven.reset();
        let mut fresh = SingleHopEnv::new(cfg, 99).unwrap();
        fresh.reseed(123);
        fresh.reset();
        for _ in 0..10 {
            let a = driven.step(&[0, 1, 2, 3]).unwrap();
            let b = fresh.step(&[0, 1, 2, 3]).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn load_is_balanced_by_design() {
        // Table II constants make mean edge inflow equal total cloud service:
        // N · E[U(0, 0.3)] = 4 · 0.15 = 0.6 = K · 0.3.
        let cfg = EnvConfig::paper_default();
        let total_in =
            cfg.n_edges as f64 * ArrivalProcess::paper_default(cfg.w_p, cfg.q_max).mean();
        let total_out = cfg.n_clouds as f64 * cfg.cloud_departure;
        assert!((total_in - total_out).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        let mut cfg = EnvConfig::paper_default();
        cfg.n_edges = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = EnvConfig::paper_default();
        cfg.q_max = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = EnvConfig::paper_default();
        cfg.init_queue = InitQueue::Uniform(0.8, 0.2);
        assert!(cfg.validate().is_err());
        let mut cfg = EnvConfig::paper_default();
        cfg.episode_limit = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = EnvConfig::paper_default();
        cfg.n_clouds = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = EnvConfig::paper_default();
        cfg.packet_amounts = vec![];
        assert!(cfg.validate().is_err());
        let mut cfg = EnvConfig::paper_default();
        cfg.arrival = ArrivalProcess::OnOff {
            p_on: 2.0,
            p_off: 0.1,
            volume: 0.3,
        };
        assert!(cfg.validate().is_err());
        assert!(EnvConfig::paper_default().validate().is_ok());
    }
}
