//! Declarative experiment grids.
//!
//! An [`ExperimentSpec`] names everything a sweep needs: the **grid
//! axes** — scenario × framework × execution backend × update engine ×
//! seed — and the per-cell training shape (epochs, episodes per epoch,
//! lanes, rollout mode, checkpoint cadence). Like scenarios and
//! backends it is string-constructible, and additionally
//! JSON-constructible:
//!
//! ```
//! use qmarl_harness::spec::ExperimentSpec;
//!
//! let spec: ExperimentSpec =
//!     "name=demo;scenarios=single-hop,two-tier;backends=ideal,sampled:shots=64;\
//!      seeds=0..3;epochs=10;episodes=2;lanes=2;checkpoint=5"
//!         .parse()?;
//! assert_eq!(spec.expand().len(), 2 * 2 * 3);
//!
//! let same = ExperimentSpec::from_json(
//!     r#"{"name":"demo","scenarios":["single-hop","two-tier"],
//!         "backends":["ideal","sampled:shots=64"],"seeds":"0..3",
//!         "epochs":10,"episodes":2,"lanes":2,"checkpoint":5}"#,
//! )?;
//! assert_eq!(same, spec);
//! # Ok::<(), qmarl_harness::error::HarnessError>(())
//! ```

use std::str::FromStr;

use qmarl_core::config::TrainConfig;
use qmarl_core::framework::FrameworkKind;
use qmarl_core::trainer::UpdateEngine;
use qmarl_runtime::backend::ExecutionBackend;

use crate::error::HarnessError;
use crate::json::Json;

/// How a cell collects its training episodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RolloutMode {
    /// The vectorized lockstep collector
    /// ([`CtdeTrainer::run_epoch_vec`](qmarl_core::trainer::CtdeTrainer::run_epoch_vec)):
    /// episode randomness derives from `(seed, round)`, which is what
    /// makes checkpoint-resume bit-identical. The default.
    #[default]
    Vec,
    /// The serial single-episode collector
    /// ([`CtdeTrainer::run_epoch`](qmarl_core::trainer::CtdeTrainer::run_epoch)) —
    /// the figure binaries' historical semantics. Serial episode streams
    /// thread live environment state from epoch to epoch, which a
    /// checkpoint cannot carry, so serial cells refuse checkpointing.
    Serial,
}

impl RolloutMode {
    /// The spec spelling.
    pub fn name(self) -> &'static str {
        match self {
            RolloutMode::Vec => "vec",
            RolloutMode::Serial => "serial",
        }
    }
}

/// One grid cell: a single training run's coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellId {
    /// Scenario registry name.
    pub scenario: String,
    /// Which of the paper's frameworks to train.
    pub framework: FrameworkKind,
    /// Circuit execution backend.
    pub backend: ExecutionBackend,
    /// Update-sweep engine.
    pub engine: UpdateEngine,
    /// The cell's master seed (`TrainConfig::seed`).
    pub seed: u64,
}

impl CellId {
    /// Human-readable coordinates, `scenario/framework/backend/engine/s<seed>`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/s{}",
            self.scenario,
            self.framework,
            self.backend,
            engine_name(self.engine),
            self.seed
        )
    }

    /// Filesystem-safe label (checkpoint and artifact file stems).
    pub fn slug(&self) -> String {
        self.label()
            .chars()
            .map(|c| match c {
                '/' | ':' | '=' | '.' => '-',
                c => c,
            })
            .collect()
    }

    /// The cell's aggregation group: every coordinate except the seed.
    pub fn group(&self) -> GroupId {
        GroupId {
            scenario: self.scenario.clone(),
            framework: self.framework,
            backend: self.backend.clone(),
            engine: self.engine,
        }
    }
}

/// A seed-aggregation group: grid coordinates minus the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupId {
    /// Scenario registry name.
    pub scenario: String,
    /// Framework.
    pub framework: FrameworkKind,
    /// Execution backend.
    pub backend: ExecutionBackend,
    /// Update engine.
    pub engine: UpdateEngine,
}

impl GroupId {
    /// Human-readable coordinates.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.scenario,
            self.framework,
            self.backend,
            engine_name(self.engine)
        )
    }

    /// Filesystem-safe label.
    pub fn slug(&self) -> String {
        self.label()
            .chars()
            .map(|c| match c {
                '/' | ':' | '=' | '.' => '-',
                c => c,
            })
            .collect()
    }
}

/// The "converged" tail over which final metrics are averaged — the
/// last tenth of training, at least one epoch. One definition shared by
/// the sweep aggregator, the CLI and the figure binaries, so their
/// notions of convergence can never drift apart.
pub fn tail_epochs(epochs: usize) -> usize {
    (epochs / 10).max(1)
}

/// The spec spelling of an engine.
pub(crate) fn engine_name(engine: UpdateEngine) -> &'static str {
    match engine {
        UpdateEngine::Serial => "serial",
        UpdateEngine::Batched => "batched",
    }
}

/// A declarative multi-seed experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Sweep name (artifact file stem).
    pub name: String,
    /// Scenario registry names (grid axis).
    pub scenarios: Vec<String>,
    /// Frameworks (grid axis; default `[Proposed]`).
    pub frameworks: Vec<FrameworkKind>,
    /// Execution backends (grid axis; default `[Ideal]`).
    pub backends: Vec<ExecutionBackend>,
    /// Update engines (grid axis; default `[Batched]`).
    pub engines: Vec<UpdateEngine>,
    /// Seeds (grid axis).
    pub seeds: Vec<u64>,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Episodes collected per epoch (default 1).
    pub episodes_per_epoch: usize,
    /// Vector-environment lanes for [`RolloutMode::Vec`] (default:
    /// `episodes_per_epoch`).
    pub lanes: usize,
    /// Episode collection mode (default [`RolloutMode::Vec`]).
    pub mode: RolloutMode,
    /// Checkpoint every this many epochs; `0` disables checkpointing.
    pub checkpoint_every: usize,
    /// Overrides each scenario's native episode length.
    pub episode_limit: Option<usize>,
    /// Base training configuration; each cell gets a copy with `seed` set
    /// to the cell seed and `epochs` set to the spec's epoch budget.
    pub train: TrainConfig,
}

impl ExperimentSpec {
    /// A spec with the paper-default configuration and empty grid axes
    /// (fill in at least `scenarios`, `seeds` and `epochs`).
    pub fn named(name: &str) -> Self {
        ExperimentSpec {
            name: name.to_string(),
            scenarios: Vec::new(),
            frameworks: vec![FrameworkKind::Proposed],
            backends: vec![ExecutionBackend::Ideal],
            engines: vec![UpdateEngine::Batched],
            seeds: Vec::new(),
            epochs: 0,
            episodes_per_epoch: 1,
            lanes: 0,
            mode: RolloutMode::Vec,
            checkpoint_every: 0,
            episode_limit: None,
            train: TrainConfig::paper_default(),
        }
    }

    /// Checks the grid for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidSpec`] naming the first problem:
    /// empty axes, more than [`MAX_SEEDS`] seeds, a zero epoch/episode
    /// budget, an unknown scenario,
    /// checkpointing on the serial collector, or a framework × backend
    /// pair with no circuits to execute (classical × stochastic).
    pub fn validate(&self) -> Result<(), HarnessError> {
        let bad = |msg: String| Err(HarnessError::InvalidSpec(msg));
        if self.name.is_empty() {
            return bad("sweep needs a name".into());
        }
        if self.scenarios.is_empty()
            || self.frameworks.is_empty()
            || self.backends.is_empty()
            || self.engines.is_empty()
            || self.seeds.is_empty()
        {
            return bad("every grid axis (scenarios/frameworks/backends/engines/seeds) needs at least one entry".into());
        }
        if self.seeds.len() > MAX_SEEDS {
            return bad(format!(
                "{} seeds exceed the cap of {MAX_SEEDS}",
                self.seeds.len()
            ));
        }
        if self.epochs == 0 {
            return bad("epochs must be positive".into());
        }
        if self.episodes_per_epoch == 0 {
            return bad("episodes per epoch must be positive".into());
        }
        for scenario in &self.scenarios {
            if qmarl_env::scenario::find_scenario(scenario).is_none() {
                return bad(format!("unknown scenario {scenario:?}"));
            }
        }
        for backend in &self.backends {
            backend
                .validate()
                .map_err(|e| HarnessError::InvalidSpec(e.to_string()))?;
            for &framework in &self.frameworks {
                let quantum = matches!(framework, FrameworkKind::Proposed | FrameworkKind::Comp1);
                if !quantum && !backend.is_ideal() {
                    return bad(format!(
                        "cell {framework} × {backend} has no quantum circuits to execute; \
                         classical frameworks sweep only under ideal"
                    ));
                }
                if framework == FrameworkKind::RandomWalk {
                    return bad("RandomWalk is not trainable and cannot be swept".into());
                }
            }
        }
        if self.checkpoint_every > 0 && self.mode == RolloutMode::Serial {
            return bad(
                "checkpointing requires mode=vec: serial episode streams thread live \
                 environment state between epochs, so a resumed serial cell would \
                 silently diverge from the uninterrupted run"
                    .into(),
            );
        }
        if self.mode == RolloutMode::Serial && (self.episodes_per_epoch != 1 || self.lanes != 0) {
            return bad(
                "episodes/lanes require mode=vec: the serial collector always rolls \
                 exactly one episode per epoch, so accepting a larger budget would \
                 silently run a different experiment than the spec declares"
                    .into(),
            );
        }
        let mut dedup = self.seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != self.seeds.len() {
            return bad("duplicate seeds would silently double-count in the aggregate".into());
        }
        let mut train = self.train.clone();
        train.epochs = self.epochs;
        train.validate()?;
        Ok(())
    }

    /// The effective lane count ([`ExperimentSpec::lanes`], defaulting to
    /// `episodes_per_epoch` when unset).
    pub fn effective_lanes(&self) -> usize {
        if self.lanes == 0 {
            self.episodes_per_epoch
        } else {
            self.lanes
        }
    }

    /// The convergence-tail length of this spec's cells:
    /// [`tail_epochs`]`(self.epochs)`.
    pub fn tail(&self) -> usize {
        tail_epochs(self.epochs)
    }

    /// Expands the grid into cells, in the deterministic nesting order
    /// scenario → framework → backend → engine → seed (seeds keep the
    /// spec's order, so per-seed outputs line up with the declaration).
    pub fn expand(&self) -> Vec<CellId> {
        let mut cells = Vec::new();
        for scenario in &self.scenarios {
            for &framework in &self.frameworks {
                for backend in &self.backends {
                    for &engine in &self.engines {
                        for &seed in &self.seeds {
                            cells.push(CellId {
                                scenario: scenario.clone(),
                                framework,
                                backend: backend.clone(),
                                engine,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// The aggregation groups of the grid, in expansion order.
    pub fn groups(&self) -> Vec<GroupId> {
        let mut groups = Vec::new();
        for cell in self.expand() {
            let g = cell.group();
            if !groups.contains(&g) {
                groups.push(g);
            }
        }
        groups
    }

    /// Builds a spec from a JSON object with the same keys as the string
    /// syntax (see [`ExperimentSpec::from_str`]); list-valued axes are
    /// JSON arrays, and `seeds` also accepts the `"a..b"` range string.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidSpec`] on syntax or validation
    /// problems.
    pub fn from_json(text: &str) -> Result<Self, HarnessError> {
        let bad = |msg: String| HarnessError::InvalidSpec(msg);
        let doc = Json::parse(text).map_err(|e| bad(format!("JSON: {e}")))?;
        let Json::Obj(pairs) = &doc else {
            return Err(bad("spec JSON must be an object".into()));
        };
        let mut spec = ExperimentSpec::named("");
        let str_list = |v: &Json, key: &str| -> Result<Vec<String>, HarnessError> {
            v.as_arr()
                .map(|items| {
                    items
                        .iter()
                        .map(|i| i.as_str().map(str::to_string))
                        .collect::<Option<Vec<_>>>()
                })
                .ok_or_else(|| bad(format!("{key} must be an array of strings")))?
                .ok_or_else(|| bad(format!("{key} must be an array of strings")))
        };
        let uint = |v: &Json, key: &str| -> Result<u64, HarnessError> {
            v.as_u64()
                .ok_or_else(|| bad(format!("{key} must be a non-negative integer")))
        };
        for (key, value) in pairs {
            match key.as_str() {
                "name" => {
                    spec.name = value
                        .as_str()
                        .ok_or_else(|| bad("name must be a string".into()))?
                        .to_string();
                }
                "scenarios" => spec.scenarios = str_list(value, key)?,
                "frameworks" => {
                    spec.frameworks = str_list(value, key)?
                        .iter()
                        .map(|s| {
                            s.parse()
                                .map_err(|e: qmarl_core::error::CoreError| bad(e.to_string()))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "backends" => {
                    spec.backends = str_list(value, key)?
                        .iter()
                        .map(|s| parse_backend(s))
                        .collect::<Result<_, _>>()?;
                }
                "engines" => {
                    spec.engines = str_list(value, key)?
                        .iter()
                        .map(|s| parse_engine(s))
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => {
                    spec.seeds = match value {
                        Json::Str(s) => parse_seeds(s)?,
                        Json::Arr(items) => items
                            .iter()
                            .map(|i| uint(i, "seeds[..]"))
                            .collect::<Result<_, _>>()?,
                        _ => return Err(bad("seeds must be an array or a range string".into())),
                    };
                }
                "epochs" => spec.epochs = uint(value, key)? as usize,
                "episodes" => spec.episodes_per_epoch = uint(value, key)? as usize,
                "lanes" => spec.lanes = uint(value, key)? as usize,
                "mode" => {
                    spec.mode = parse_mode(
                        value
                            .as_str()
                            .ok_or_else(|| bad("mode must be a string".into()))?,
                    )?;
                }
                "checkpoint" => spec.checkpoint_every = uint(value, key)? as usize,
                "limit" => spec.episode_limit = Some(uint(value, key)? as usize),
                other => return Err(bad(format!("unknown spec key {other:?}"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec in the compact string syntax (round-trips through
    /// [`ExperimentSpec::from_str`] for specs with default train config).
    pub fn to_spec_string(&self) -> String {
        let mut out = format!("name={}", self.name);
        out.push_str(&format!(";scenarios={}", self.scenarios.join(",")));
        out.push_str(&format!(
            ";frameworks={}",
            self.frameworks
                .iter()
                .map(|k| k.name().to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            ";backends={}",
            self.backends
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            ";engines={}",
            self.engines
                .iter()
                .map(|&e| engine_name(e).to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            ";seeds={}",
            self.seeds
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(";epochs={}", self.epochs));
        out.push_str(&format!(";episodes={}", self.episodes_per_epoch));
        if self.lanes != 0 {
            out.push_str(&format!(";lanes={}", self.lanes));
        }
        if self.mode != RolloutMode::Vec {
            out.push_str(&format!(";mode={}", self.mode.name()));
        }
        if self.checkpoint_every != 0 {
            out.push_str(&format!(";checkpoint={}", self.checkpoint_every));
        }
        if let Some(t) = self.episode_limit {
            out.push_str(&format!(";limit={t}"));
        }
        out
    }
}

fn parse_backend(s: &str) -> Result<ExecutionBackend, HarnessError> {
    s.parse()
        .map_err(|e: qmarl_runtime::error::RuntimeError| HarnessError::InvalidSpec(e.to_string()))
}

fn parse_engine(s: &str) -> Result<UpdateEngine, HarnessError> {
    match s.to_ascii_lowercase().as_str() {
        "serial" => Ok(UpdateEngine::Serial),
        "batched" => Ok(UpdateEngine::Batched),
        other => Err(HarnessError::InvalidSpec(format!(
            "unknown engine {other:?}; expected serial or batched"
        ))),
    }
}

fn parse_mode(s: &str) -> Result<RolloutMode, HarnessError> {
    match s.to_ascii_lowercase().as_str() {
        "vec" => Ok(RolloutMode::Vec),
        "serial" => Ok(RolloutMode::Serial),
        other => Err(HarnessError::InvalidSpec(format!(
            "unknown mode {other:?}; expected vec or serial"
        ))),
    }
}

/// The most seeds one spec may list (ranges count expanded). Seed
/// strings come from the command line and spec files, so the cap is
/// checked **before** a range is expanded: `seeds=0..18446744073709551615`
/// is an [`HarnessError::InvalidSpec`], not a 2⁶⁴-entry allocation.
pub const MAX_SEEDS: usize = 1 << 16;

/// Parses a seed list: comma-separated entries, each a number or a
/// half-open `a..b` range (`"0..3,100"` → `[0, 1, 2, 100]`), at most
/// [`MAX_SEEDS`] seeds in all.
fn parse_seeds(s: &str) -> Result<Vec<u64>, HarnessError> {
    let bad = |msg: String| HarnessError::InvalidSpec(msg);
    let too_many = |entry: &str| {
        bad(format!(
            "seed entry {entry:?} takes the seed list past {MAX_SEEDS} seeds"
        ))
    };
    let mut seeds = Vec::new();
    for entry in s.split(',') {
        let entry = entry.trim();
        if seeds.len() >= MAX_SEEDS {
            return Err(too_many(entry));
        }
        if let Some((a, b)) = entry.split_once("..") {
            let lo: u64 = a
                .trim()
                .parse()
                .map_err(|_| bad(format!("malformed seed range start {a:?}")))?;
            let hi: u64 = b
                .trim()
                .parse()
                .map_err(|_| bad(format!("malformed seed range end {b:?}")))?;
            if hi <= lo {
                return Err(bad(format!("empty seed range {entry:?}")));
            }
            if hi - lo > (MAX_SEEDS - seeds.len()) as u64 {
                return Err(too_many(entry));
            }
            seeds.extend(lo..hi);
        } else {
            seeds.push(
                entry
                    .parse()
                    .map_err(|_| bad(format!("malformed seed {entry:?}")))?,
            );
        }
    }
    Ok(seeds)
}

impl FromStr for ExperimentSpec {
    type Err = HarnessError;

    /// Parses the compact `key=value;key=value` syntax. Keys:
    ///
    /// | key | value | default |
    /// |---|---|---|
    /// | `name` | sweep name | required |
    /// | `scenarios` | comma list of registry names | required |
    /// | `frameworks` | comma list of `Proposed`/`Comp1`/`Comp2`/`Comp3` | `Proposed` |
    /// | `backends` | comma list of backend specs (`ideal`, `sampled:shots=64`, `noisy:p1=0.01:p2=0.02`, `trajectory:p1=0.01:p2=0.02:samples=16`, …) | `ideal` |
    /// | `engines` | comma list of `batched`/`serial` | `batched` |
    /// | `seeds` | numbers and `a..b` half-open ranges, at most [`MAX_SEEDS`] | required |
    /// | `epochs` | training epochs per cell | required |
    /// | `episodes` | episodes per epoch | `1` |
    /// | `lanes` | vector-env lanes | `episodes` |
    /// | `mode` | `vec` / `serial` | `vec` |
    /// | `checkpoint` | checkpoint cadence in epochs, `0` = off | `0` |
    /// | `limit` | episode-length override | scenario native |
    fn from_str(text: &str) -> Result<Self, HarnessError> {
        let bad = |msg: String| HarnessError::InvalidSpec(msg);
        let mut spec = ExperimentSpec::named("");
        for field in text.split(';') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("spec field {field:?} is not key=value")))?;
            let value = value.trim();
            match key.trim() {
                "name" => spec.name = value.to_string(),
                "scenarios" => {
                    spec.scenarios = value.split(',').map(|s| s.trim().to_string()).collect();
                }
                "frameworks" => {
                    spec.frameworks = value
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .map_err(|e: qmarl_core::error::CoreError| bad(e.to_string()))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "backends" => {
                    spec.backends = value
                        .split(',')
                        .map(|s| parse_backend(s.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "engines" => {
                    spec.engines = value
                        .split(',')
                        .map(|s| parse_engine(s.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => spec.seeds = parse_seeds(value)?,
                "epochs" => {
                    spec.epochs = value
                        .parse()
                        .map_err(|_| bad(format!("malformed epochs {value:?}")))?;
                }
                "episodes" => {
                    spec.episodes_per_epoch = value
                        .parse()
                        .map_err(|_| bad(format!("malformed episodes {value:?}")))?;
                }
                "lanes" => {
                    spec.lanes = value
                        .parse()
                        .map_err(|_| bad(format!("malformed lanes {value:?}")))?;
                }
                "mode" => spec.mode = parse_mode(value)?,
                "checkpoint" => {
                    spec.checkpoint_every = value
                        .parse()
                        .map_err(|_| bad(format!("malformed checkpoint cadence {value:?}")))?;
                }
                "limit" => {
                    spec.episode_limit = Some(
                        value
                            .parse()
                            .map_err(|_| bad(format!("malformed episode limit {value:?}")))?,
                    );
                }
                other => return Err(bad(format!("unknown spec key {other:?}"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ExperimentSpec {
        "name=t;scenarios=single-hop;seeds=0..2;epochs=3"
            .parse()
            .unwrap()
    }

    #[test]
    fn parses_defaults_and_full_grids() {
        let spec = demo_spec();
        assert_eq!(spec.frameworks, vec![FrameworkKind::Proposed]);
        assert_eq!(spec.backends, vec![ExecutionBackend::Ideal]);
        assert_eq!(spec.engines, vec![UpdateEngine::Batched]);
        assert_eq!(spec.seeds, vec![0, 1]);
        assert_eq!(spec.episodes_per_epoch, 1);
        assert_eq!(spec.effective_lanes(), 1);
        assert_eq!(spec.mode, RolloutMode::Vec);

        let full: ExperimentSpec =
            "name=grid;scenarios=single-hop,two-tier;frameworks=Proposed,Comp2;\
             backends=ideal;engines=batched,serial;seeds=3,10..12;epochs=2;\
             episodes=4;lanes=2;limit=9"
                .parse()
                .unwrap();
        assert_eq!(full.seeds, vec![3, 10, 11]);
        // 2 scenarios × 2 frameworks × 1 backend × 2 engines × 3 seeds.
        assert_eq!(full.expand().len(), 24);
        assert_eq!(full.groups().len(), 2 * 2 * 2);
        assert_eq!(full.episode_limit, Some(9));
        assert_eq!(full.effective_lanes(), 2);
    }

    #[test]
    fn expansion_order_is_deterministic_and_seed_major() {
        let spec: ExperimentSpec =
            "name=o;scenarios=single-hop;engines=serial,batched;seeds=5,1;epochs=1"
                .parse()
                .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        // Seeds iterate innermost, in declaration order.
        assert_eq!(cells[0].seed, 5);
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[0].engine, UpdateEngine::Serial);
        assert_eq!(cells[2].engine, UpdateEngine::Batched);
    }

    #[test]
    fn json_and_string_constructions_agree() {
        let from_str: ExperimentSpec =
            "name=j;scenarios=single-hop;backends=ideal,sampled:shots=32:seed=9;\
             seeds=0..3;epochs=5;episodes=2;checkpoint=2"
                .parse()
                .unwrap();
        let from_json = ExperimentSpec::from_json(
            r#"{"name":"j","scenarios":["single-hop"],
                "backends":["ideal","sampled:shots=32:seed=9"],
                "seeds":[0,1,2],"epochs":5,"episodes":2,"checkpoint":2}"#,
        )
        .unwrap();
        assert_eq!(from_str, from_json);
        // And the rendered spec string round-trips.
        let rendered: ExperimentSpec = from_str.to_spec_string().parse().unwrap();
        assert_eq!(rendered, from_str);
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let cases = [
            "scenarios=single-hop;seeds=0;epochs=1",            // no name
            "name=x;seeds=0;epochs=1",                          // no scenario
            "name=x;scenarios=nope;seeds=0;epochs=1",           // unknown scenario
            "name=x;scenarios=single-hop;epochs=1",             // no seeds
            "name=x;scenarios=single-hop;seeds=0;epochs=0",     // zero epochs
            "name=x;scenarios=single-hop;seeds=0,0;epochs=1",   // duplicate seeds
            "name=x;scenarios=single-hop;seeds=3..3;epochs=1",  // empty range
            "name=x;scenarios=single-hop;seeds=0;epochs=1;episodes=0",
            "name=x;scenarios=single-hop;seeds=0;epochs=1;mode=serial;checkpoint=2",
            "name=x;scenarios=single-hop;seeds=0;epochs=1;mode=serial;episodes=4",
            "name=x;scenarios=single-hop;seeds=0;epochs=1;mode=serial;lanes=2",
            "name=x;scenarios=single-hop;frameworks=Comp2;backends=sampled:shots=8;seeds=0;epochs=1",
            "name=x;scenarios=single-hop;frameworks=RandomWalk;seeds=0;epochs=1",
            "name=x;scenarios=single-hop;seeds=0;epochs=1;bogus=3",
            "name=x;scenarios=single-hop;seeds=0;epochs=1;engines=warp",
        ];
        for case in cases {
            assert!(case.parse::<ExperimentSpec>().is_err(), "{case:?}");
        }
        assert!(ExperimentSpec::from_json("[1,2]").is_err());
        assert!(ExperimentSpec::from_json(r#"{"name":3}"#).is_err());
    }

    #[test]
    fn oversized_seed_ranges_are_rejected_before_allocating() {
        let invalid = |r: Result<ExperimentSpec, HarnessError>| matches!(r, Err(HarnessError::InvalidSpec(msg)) if msg.contains("seed"));
        // 2^64 − 1 seeds (once a capacity-overflow panic) and 2^40 seeds
        // (once an 8 TiB allocation abort), in the compact and JSON forms.
        for range in ["0..18446744073709551615", "0..1099511627776"] {
            let compact = format!("name=x;scenarios=single-hop;seeds={range};epochs=1");
            assert!(invalid(compact.parse()), "{compact}");
            let json = format!(
                r#"{{"name":"x","scenarios":["single-hop"],"seeds":"{range}","epochs":1}}"#
            );
            assert!(invalid(ExperimentSpec::from_json(&json)), "{json}");
        }
        // The cap is exact and counts every entry, ranges expanded.
        let spec = |seeds: String| {
            format!("name=x;scenarios=single-hop;seeds={seeds};epochs=1").parse::<ExperimentSpec>()
        };
        let at_cap = spec(format!("0..{MAX_SEEDS}")).unwrap();
        assert_eq!(at_cap.seeds.len(), MAX_SEEDS);
        assert!(invalid(spec(format!("0..{MAX_SEEDS},{MAX_SEEDS}"))));
        assert!(invalid(spec(format!("{MAX_SEEDS},0..{MAX_SEEDS}"))));
        // A JSON array past the cap fails validation the same way.
        let seeds: Vec<String> = (0..=MAX_SEEDS).map(|s| s.to_string()).collect();
        let json = format!(
            r#"{{"name":"x","scenarios":["single-hop"],"seeds":[{}],"epochs":1}}"#,
            seeds.join(",")
        );
        assert!(invalid(ExperimentSpec::from_json(&json)));
    }

    #[test]
    fn oversized_trajectory_sample_counts_are_rejected() {
        // A trajectory backend past the sample cap once passed
        // validation and aborted the first cell on its slab allocation.
        let samples = qmarl_runtime::backend::MAX_TRAJECTORY_SAMPLES + 1;
        let backend = format!("trajectory:p1=0.01:p2=0.02:samples={samples}");
        let compact = format!("name=x;scenarios=single-hop;backends={backend};seeds=0;epochs=1");
        assert!(matches!(
            compact.parse::<ExperimentSpec>(),
            Err(HarnessError::InvalidSpec(msg)) if msg.contains("samples")
        ));
        let json = format!(
            r#"{{"name":"x","scenarios":["single-hop"],"backends":["{backend}"],"seeds":[0],"epochs":1}}"#
        );
        assert!(matches!(
            ExperimentSpec::from_json(&json),
            Err(HarnessError::InvalidSpec(_))
        ));
    }

    #[test]
    fn labels_and_slugs_are_path_safe() {
        let cell = CellId {
            scenario: "single-hop".into(),
            framework: FrameworkKind::Proposed,
            backend: "sampled:shots=64:seed=3".parse().unwrap(),
            engine: UpdateEngine::Batched,
            seed: 7,
        };
        assert_eq!(
            cell.label(),
            "single-hop/Proposed/sampled:shots=64:seed=3/batched/s7"
        );
        let slug = cell.slug();
        assert!(!slug.contains('/') && !slug.contains(':') && !slug.contains('='));
        assert_eq!(
            cell.group().label(),
            "single-hop/Proposed/sampled:shots=64:seed=3/batched"
        );
    }
}
