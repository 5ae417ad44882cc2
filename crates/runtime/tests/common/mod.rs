//! The lockstep collector's oracle, shared by the rollout test suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qmarl_env::error::EnvError;
use qmarl_env::vector::SeedableEnv;
use qmarl_runtime::rollout::{derive_seed, EpisodeTrace, TraceStep, VecDecision};

/// The collector's oracle: one episode at a time, no vector environment
/// and no scheduler. Episode `i` reseeds a private copy of the template
/// from stream `0x45` and draws one action per agent from stream `0x50`.
pub fn serial_reference<E: SeedableEnv + Clone>(
    template: &E,
    n_episodes: usize,
    base_seed: u64,
) -> Vec<EpisodeTrace> {
    let (n_agents, n_actions) = (template.n_agents(), template.n_actions());
    (0..n_episodes)
        .map(|i| {
            let mut env = template.clone();
            env.reseed(derive_seed(base_seed, 0x45, i as u64));
            let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, 0x50, i as u64));
            let (mut obs, mut state) = env.reset();
            let mut steps = Vec::new();
            loop {
                let actions: Vec<usize> =
                    (0..n_agents).map(|_| rng.gen_range(0..n_actions)).collect();
                let out = env.step(&actions).unwrap();
                steps.push(TraceStep {
                    state: state.clone(),
                    observations: obs.clone(),
                    actions,
                    reward: out.reward,
                    next_state: out.state.clone(),
                    next_observations: out.observations.clone(),
                    done: out.done,
                    info: out.info,
                    aux: 0.25,
                });
                obs = out.observations;
                state = out.state;
                if out.done {
                    break;
                }
            }
            EpisodeTrace { index: i, steps }
        })
        .collect()
}

/// The vectorized twin of the serial loop's action draws.
pub fn random_policy(
    n_agents: usize,
    n_actions: usize,
) -> impl FnMut(&[f64], &[usize], &mut [StdRng]) -> Result<VecDecision, EnvError> {
    move |_obs, rows, rngs| {
        let mut actions = Vec::with_capacity(rows.len() * n_agents);
        for &lane in rows {
            for _ in 0..n_agents {
                actions.push(rngs[lane].gen_range(0..n_actions));
            }
        }
        Ok(VecDecision {
            actions,
            aux: vec![0.25; rows.len()],
        })
    }
}
