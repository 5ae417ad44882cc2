//! # qmarl-core — CTDE quantum multi-agent reinforcement learning
//!
//! The primary contribution of the
//! [reproduced paper](https://arxiv.org/abs/2203.10443): a centralized-
//! training / decentralized-execution (CTDE) actor–critic in which each
//! agent's policy **and** the centralized critic are variational quantum
//! circuits, with the critic's global state folded into a fixed 4-qubit
//! register by the layered state encoding of Fig. 1.
//!
//! The crate provides:
//!
//! * [`policy`] — quantum and classical actors behind one [`policy::Actor`] trait,
//! * [`value`] — quantum and classical critics behind [`value::Critic`],
//! * [`trainer`] — Algorithm 1 (MAPG + TD target + target network),
//! * [`framework`] — builders for the paper's `Proposed` / `Comp1` /
//!   `Comp2` / `Comp3` frameworks and their parameter accounting,
//! * [`config`] — Table II as a validated configuration type,
//! * [`viz`] — the Fig. 4 demonstration renderer,
//! * [`replay`] — the episode buffer `D`.
//!
//! ```no_run
//! use qmarl_core::prelude::*;
//!
//! let mut config = ExperimentConfig::paper_default();
//! config.train.epochs = 50; // small demo run
//! let mut trainer = build_trainer(FrameworkKind::Proposed, &config)?;
//! trainer.train(config.train.epochs)?;
//! println!("final reward: {:?}", trainer.history().final_reward(10));
//! # Ok::<(), qmarl_core::error::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod framework;
pub mod independent;
pub mod policy;
pub mod replay;
pub mod serving;
pub mod trainer;
pub mod value;
mod vec_policy;
pub mod viz;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::checkpoint::{FrameworkSnapshot, TrainerCheckpoint};
    pub use crate::config::{ExperimentConfig, TrainConfig};
    pub use crate::error::CoreError;
    pub use crate::framework::{
        actors_from_snapshot, build_actors, build_critic, build_kind_scenario_trainer,
        build_scenario_actors, build_scenario_trainer, build_trainer, parameter_report,
        FrameworkKind, ParamReport,
    };
    pub use crate::independent::{build_independent_quantum, IndependentTrainer};
    pub use crate::policy::{select_action, Actor, ClassicalActor, QuantumActor};
    pub use crate::replay::{Episode, ReplayBuffer, Transition};
    pub use crate::serving::ServablePolicy;
    pub use crate::trainer::{CtdeTrainer, EpochRecord, TrainingHistory, UpdateEngine};
    pub use crate::value::{ClassicalCritic, Critic, QuantumCritic};
    pub use crate::viz::{
        frames_to_csv, render_heatmap_ansi, render_queue_chart, run_demonstration, DemoFrame,
    };
    pub use qmarl_runtime::backend::ExecutionBackend;
}
