//! Experiment configuration — Table II of the paper as code.

use qmarl_env::single_hop::EnvConfig;
use qmarl_vqc::grad::GradMethod;

use crate::error::CoreError;

/// Training hyper-parameters (the optimisation rows of Table II plus the
/// quantities the paper leaves implicit, documented here).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// Training epochs (the paper trains 1000).
    pub epochs: usize,
    /// Discount factor `γ`. Not printed in Table II; `0.95` keeps the
    /// discounted return within the critic's reachable output range.
    pub gamma: f64,
    /// Actor learning rate (Table II: `1e-4`, Adam).
    pub lr_actor: f64,
    /// Critic learning rate (Table II: `1e-5`, Adam).
    pub lr_critic: f64,
    /// Epochs between target-network syncs `φ ← ψ` (Algorithm 1, line 17).
    pub target_update_period: usize,
    /// How many recent episodes form the batch `D` each epoch (1 = pure
    /// on-policy, the default).
    pub batch_episodes: usize,
    /// Replay capacity in episodes.
    pub replay_capacity: usize,
    /// Register width for quantum models (Table II: 4 qubits).
    pub n_qubits: usize,
    /// Trainable-parameter budget per actor (Sec. IV-C: 50).
    pub actor_params: usize,
    /// Trainable-parameter budget for the critic (Sec. IV-C: 50).
    pub critic_params: usize,
    /// Entropy-bonus coefficient β added to the actor objective
    /// (`0.0` = the paper's plain MAPG; small positive values slow policy
    /// collapse — an extension knob, off by default).
    pub entropy_coef: f64,
    /// Differentiation method for quantum models.
    pub grad_method: GradMethod,
    /// Master RNG seed (environment, policy sampling, initialisation).
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's settings.
    pub fn paper_default() -> Self {
        TrainConfig {
            epochs: 1000,
            gamma: 0.95,
            lr_actor: 1e-4,
            lr_critic: 1e-5,
            target_update_period: 5,
            batch_episodes: 1,
            replay_capacity: 8,
            n_qubits: 4,
            actor_params: 50,
            critic_params: 50,
            entropy_coef: 0.0,
            grad_method: GradMethod::Adjoint,
            seed: 7,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.epochs == 0 {
            return Err(CoreError::InvalidConfig("epochs must be positive".into()));
        }
        if !(0.0..1.0).contains(&self.gamma) {
            return Err(CoreError::InvalidConfig(format!(
                "gamma {} not in [0, 1)",
                self.gamma
            )));
        }
        // A sign test alone passes NaN (`NaN <= 0.0` is false) and +∞.
        if ![self.lr_actor, self.lr_critic]
            .iter()
            .all(|lr| lr.is_finite() && *lr > 0.0)
        {
            return Err(CoreError::InvalidConfig(
                "learning rates must be positive and finite".into(),
            ));
        }
        if self.target_update_period == 0 {
            return Err(CoreError::InvalidConfig(
                "target update period must be positive".into(),
            ));
        }
        if self.batch_episodes == 0 || self.batch_episodes > self.replay_capacity {
            return Err(CoreError::InvalidConfig(
                "batch episodes must be in 1..=replay capacity".into(),
            ));
        }
        if self.n_qubits == 0 {
            return Err(CoreError::InvalidConfig("need at least one qubit".into()));
        }
        if !(0.0..=1.0).contains(&self.entropy_coef) {
            return Err(CoreError::InvalidConfig(format!(
                "entropy coefficient {} not in [0, 1]",
                self.entropy_coef
            )));
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::paper_default()
    }
}

/// The full experiment: environment constants + training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ExperimentConfig {
    /// Environment constants (upper half of Table II).
    pub env: EnvConfig,
    /// Optimisation constants (lower half of Table II).
    pub train: TrainConfig,
}

impl ExperimentConfig {
    /// The complete Table II configuration.
    pub fn paper_default() -> Self {
        ExperimentConfig {
            env: EnvConfig::paper_default(),
            train: TrainConfig::paper_default(),
        }
    }

    /// Validates both halves.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem found.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.env.validate()?;
        self.train.validate()
    }

    /// Renders Table II as aligned text rows (the `table2_parameters`
    /// binary prints this).
    pub fn table2(&self) -> String {
        let e = &self.env;
        let t = &self.train;
        let rows: Vec<(String, String)> = vec![
            (
                "The numbers of clouds and edge agents (K, N)".into(),
                format!("{}, {}", e.n_clouds, e.n_edges),
            ),
            (
                "The packet amount space (P)".into(),
                format!("{:?}", e.packet_amounts),
            ),
            (
                "The hyper-parameters of environment (wP, wR)".into(),
                format!("({}, {})", e.w_p, e.w_r),
            ),
            (
                "Transmitted packets from the cloud".into(),
                format!("{}", e.cloud_departure),
            ),
            (
                "The capacity of queue (qmax)".into(),
                format!("{}", e.q_max),
            ),
            (
                "Episode length (calibrated; see EXPERIMENTS.md)".into(),
                format!("{}", e.episode_limit),
            ),
            ("Optimizer".into(), "Adam".into()),
            (
                "The number of qubits of actor/critic".into(),
                format!("{}", t.n_qubits),
            ),
            (
                "Trainable parameters of actor/critic".into(),
                format!("{}, {}", t.actor_params, t.critic_params),
            ),
            (
                "Learning rate of actor/critic".into(),
                format!("{:.0e}, {:.0e}", t.lr_actor, t.lr_critic),
            ),
            (
                "Discount factor (not in Table II)".into(),
                format!("{}", t.gamma),
            ),
            ("Training epochs".into(), format!("{}", t.epochs)),
        ];
        let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:w$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_matches_table2() {
        let c = ExperimentConfig::paper_default();
        assert_eq!(c.env.n_clouds, 2);
        assert_eq!(c.env.n_edges, 4);
        assert_eq!(c.env.packet_amounts, vec![0.1, 0.2]);
        assert_eq!(c.env.w_p, 0.3);
        assert_eq!(c.env.w_r, 4.0);
        assert_eq!(c.env.cloud_departure, 0.3);
        assert_eq!(c.env.q_max, 1.0);
        assert_eq!(c.train.n_qubits, 4);
        assert_eq!(c.train.actor_params, 50);
        assert_eq!(c.train.critic_params, 50);
        assert_eq!(c.train.lr_actor, 1e-4);
        assert_eq!(c.train.lr_critic, 1e-5);
        assert_eq!(c.train.epochs, 1000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = TrainConfig::paper_default();
        c.gamma = 1.0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::paper_default();
        c.epochs = 0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::paper_default();
        c.lr_actor = 0.0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::paper_default();
        c.batch_episodes = 100;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::paper_default();
        c.target_update_period = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn table2_renders_all_rows() {
        let txt = ExperimentConfig::paper_default().table2();
        assert!(txt.contains("2, 4"));
        assert!(txt.contains("[0.1, 0.2]"));
        assert!(txt.contains("(0.3, 4)"));
        assert!(txt.contains("Adam"));
        assert!(txt.contains("1e-4, 1e-5"));
    }
}
