//! The episode collector's hard guarantee, property-tested:
//!
//! > For **every registered scenario** and lane counts {1, 3, 16}, the
//! > lockstep collector reproduces a hand-written, scheduler-free serial
//! > loop's traces — rewards, states, observations, metrics — **bit
//! > exactly** per episode under the shared `derive_seed` contract.
//!
//! The policies used here are RNG-consuming (uniform random joint
//! actions), so the test also pins the action-stream discipline: a
//! vectorized policy must draw from each lane's RNG exactly as the serial
//! loop draws from the episode RNG.

use proptest::prelude::*;

use qmarl_env::scenario::{scenarios, ScenarioParams};
use qmarl_env::vector::ReplicatedVecEnv;
use qmarl_runtime::rollout::collect_episodes_vec;

mod common;
use common::{random_policy, serial_reference};

proptest! {
    /// Serial ≡ vectorized, per scenario, per lane count, bit for bit.
    #[test]
    fn vectorized_reproduces_serial_for_every_scenario(
        base_seed in 0u64..200,
        n_episodes in 1usize..6,
    ) {
        for spec in scenarios() {
            let params = ScenarioParams::seeded(0).with_episode_limit(6);
            let template = spec
                .build_with(&params)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            let mut policy = random_policy(template.n_agents(), template.n_actions());
            let reference = serial_reference(&template, n_episodes, base_seed);

            for lanes in [1usize, 3, 16] {
                let mut venv = ReplicatedVecEnv::new(&template, lanes).unwrap();
                let got =
                    collect_episodes_vec(&mut venv, &mut policy, n_episodes, base_seed).unwrap();
                prop_assert_eq!(
                    &got,
                    &reference,
                    "scenario {} lanes {}",
                    spec.name(),
                    lanes
                );
                // Per-episode metrics fold identically too.
                for (a, b) in got.iter().zip(&reference) {
                    prop_assert_eq!(a.metrics(), b.metrics());
                    prop_assert_eq!(a.total_reward(), b.total_reward());
                }
            }
        }
    }

    /// Lane counts never leak into each other: collecting more episodes
    /// leaves the earlier episodes' traces untouched.
    #[test]
    fn episode_prefix_is_stable_under_collection_size(
        base_seed in 0u64..100,
    ) {
        let spec = qmarl_env::scenario::find_scenario("single-hop").unwrap();
        let template = spec
            .build_with(&ScenarioParams::seeded(0).with_episode_limit(5))
            .unwrap();
        let mut policy = random_policy(4, 4);
        let mut venv = ReplicatedVecEnv::new(&template, 3).unwrap();
        let small = collect_episodes_vec(&mut venv, &mut policy, 2, base_seed).unwrap();
        let mut venv = ReplicatedVecEnv::new(&template, 3).unwrap();
        let large = collect_episodes_vec(&mut venv, &mut policy, 7, base_seed).unwrap();
        prop_assert_eq!(&large[..2], &small[..]);
    }
}
