//! # qmarl-chaos — seeded, deterministic fault injection
//!
//! NISQ-era distributed offloading treats failure as the norm, so this
//! workspace treats failure as a first-class, testable axis: a
//! [`FaultPlan`] describes *which* faults to inject at *what* rates, and
//! every injection decision is a pure function of
//! `(plan seed, fault site, site-local key)` — no shared RNG state, no
//! draw-order dependence. Two consequences fall out of that purity:
//!
//! 1. **Worker-count invariance.** A sweep that kills 5% of its cells
//!    kills *the same cells at the same epochs* whether it runs on 1
//!    worker or 16, because the decision is keyed by the cell's identity
//!    (label + attempt), not by which thread happened to draw next.
//! 2. **Inertness when absent.** Injection sites take
//!    `Option<FaultPlan>`; the `None` branch is a single pointer test,
//!    so a fault-free server or sweep pays nothing measurable.
//!
//! The crate is std-only and sits below `serve` and `harness` in the
//! dependency graph; both thread the same plan type through their
//! request/sweep paths. Plans are string-constructible like execution
//! backends: `"faults:drop=0.01:stall_ms=50:torn=0.005:seed=9"`.
//!
//! Alongside the plan live the recovery primitives the injected faults
//! exercise: [`RetryPolicy`] (capped exponential backoff with caller-
//! supplied jitter) and [`InjectedKill`] (the typed panic payload a
//! chaos-killed sweep cell unwinds with, so panic isolation can tell an
//! injected kill from a genuine bug).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Error type for malformed fault-plan strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError(pub String);

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for ChaosError {}

/// Injection-site identifiers. Each seam that consults the plan passes
/// its own site constant, so decisions at different seams are
/// statistically independent even under identical keys.
pub mod site {
    /// Server drops the connection after reading a request frame.
    pub const CONN_DROP: u64 = 1;
    /// Server writes a truncated (torn) response frame, then closes.
    pub const CONN_TORN: u64 = 2;
    /// Server stalls before reading the next request frame.
    pub const CONN_STALL: u64 = 3;
    /// Batcher sleeps before executing a tick (slow policy tick).
    pub const TICK_SLOW: u64 = 4;
    /// A sweep cell is killed (panics) partway through training.
    pub const CELL_KILL: u64 = 5;
    /// Which epoch a killed cell dies after (second independent roll).
    pub const CELL_KILL_EPOCH: u64 = 6;
    /// A checkpoint write is torn (truncated mid-file).
    pub const CKPT_TORN: u64 = 7;
    /// Jitter stream for cell retry backoff.
    pub const RETRY_JITTER: u64 = 8;
    /// A load-generating client poisons one feature of a request.
    pub const OBS_POISON: u64 = 9;
    /// Which value a poisoned request carries, and in which feature
    /// (second independent roll).
    pub const OBS_POISON_PICK: u64 = 10;
}

/// The values a poisoned observation carries (see
/// [`FaultPlan::poison_observation`]): each non-finite value, which a
/// server must refuse with a typed error, and a finite value far outside
/// any feature's range, which it must answer or refuse without dropping
/// the connection.
pub const POISON_VALUES: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];

/// SplitMix64 finalizer: the avalanche core of every decision hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: stable string → key hashing for cell labels.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A seeded, deterministic fault-injection plan.
///
/// All rates are probabilities in `[0, 1]`; a rate of zero disables that
/// fault class entirely. The plan is plain `Copy` data — share it by
/// value, not behind locks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed: every decision hashes this with the site and key.
    pub seed: u64,
    /// P(server drops the connection after reading a request).
    pub drop: f64,
    /// P(server tears a response frame: partial write, then close).
    pub torn: f64,
    /// P(server stalls [`FaultPlan::stall_ms`] before a read).
    pub stall: f64,
    /// Stall / slow-tick duration in milliseconds.
    pub stall_ms: u64,
    /// P(the batcher sleeps [`FaultPlan::stall_ms`] before a tick).
    pub slow: f64,
    /// P(a sweep cell is killed — panics — during one attempt).
    pub kill: f64,
    /// P(a load-generating client poisons a request's observation with
    /// one of [`POISON_VALUES`]).
    pub poison: f64,
}

impl Default for FaultPlan {
    /// All rates zero, seed zero: a configured-but-inert plan.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            torn: 0.0,
            stall: 0.0,
            stall_ms: 10,
            slow: 0.0,
            kill: 0.0,
            poison: 0.0,
        }
    }
}

impl FaultPlan {
    /// The deterministic uniform draw in `[0, 1)` for `(site, key)`.
    ///
    /// Pure in `(self.seed, site, key)`: the same coordinates always
    /// yield the same value, on any thread, in any order.
    pub fn roll(&self, site: u64, key: u64) -> f64 {
        let h = splitmix(splitmix(splitmix(self.seed) ^ site) ^ key);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether a fault with probability `rate` fires at `(site, key)`.
    pub fn fires(&self, rate: f64, site: u64, key: u64) -> bool {
        rate > 0.0 && self.roll(site, key) < rate
    }

    /// Folds two coordinates (e.g. connection id + frame index) into one
    /// decision key without collisions across realistic ranges.
    pub fn key2(a: u64, b: u64) -> u64 {
        splitmix(a).wrapping_add(b)
    }

    /// Poisons request `key`'s observation when the poison fault fires
    /// there: one feature, picked by a second roll, is overwritten with
    /// one of [`POISON_VALUES`], which is returned. `None` leaves the
    /// observation untouched.
    pub fn poison_observation(&self, key: u64, observation: &mut [f64]) -> Option<f64> {
        if observation.is_empty() || !self.fires(self.poison, site::OBS_POISON, key) {
            return None;
        }
        let picks = POISON_VALUES.len() * observation.len();
        let pick = ((self.roll(site::OBS_POISON_PICK, key) * picks as f64) as usize).min(picks - 1);
        let value = POISON_VALUES[pick % POISON_VALUES.len()];
        observation[pick / POISON_VALUES.len()] = value;
        Some(value)
    }

    /// The stall duration as a [`Duration`].
    pub fn stall_duration(&self) -> Duration {
        Duration::from_millis(self.stall_ms)
    }

    /// Validates every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError`] naming the first rate outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ChaosError> {
        for (name, rate) in [
            ("drop", self.drop),
            ("torn", self.torn),
            ("stall", self.stall),
            ("slow", self.slow),
            ("kill", self.kill),
            ("poison", self.poison),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(ChaosError(format!(
                    "rate {name}={rate} is not a probability in [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = ChaosError;

    /// Parses the compact plan syntax, mirroring execution backends:
    /// `faults:drop=0.01:stall_ms=50:torn=0.005:seed=9`. The leading
    /// `faults` tag is required; every segment after it is `key=value`
    /// with keys `drop`, `torn`, `stall`, `stall_ms`, `slow`, `kill`,
    /// `poison`, `seed`. Duplicate keys are rejected (last-winning would
    /// silently discard the earlier value).
    fn from_str(spec: &str) -> Result<Self, ChaosError> {
        let bad = |msg: String| ChaosError(msg);
        let mut parts = spec.split(':');
        let tag = parts.next().unwrap_or_default();
        if tag != "faults" {
            return Err(bad(format!(
                "fault plan must start with the \"faults\" tag, got {tag:?}"
            )));
        }
        let mut plan = FaultPlan::default();
        let mut seen: Vec<&str> = Vec::new();
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("fault plan segment {part:?} is not key=value")))?;
            if seen.contains(&key) {
                return Err(bad(format!("fault plan key {key:?} given more than once")));
            }
            let rate = |value: &str| -> Result<f64, ChaosError> {
                value
                    .parse::<f64>()
                    .map_err(|_| bad(format!("fault plan {key} {value:?} is not a number")))
            };
            match key {
                "drop" => plan.drop = rate(value)?,
                "torn" => plan.torn = rate(value)?,
                "stall" => plan.stall = rate(value)?,
                "slow" => plan.slow = rate(value)?,
                "kill" => plan.kill = rate(value)?,
                "poison" => plan.poison = rate(value)?,
                "stall_ms" => {
                    plan.stall_ms = value
                        .parse()
                        .map_err(|_| bad(format!("fault plan stall_ms {value:?} is not an integer")))?;
                }
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| bad(format!("fault plan seed {value:?} is not an integer")))?;
                }
                other => {
                    return Err(bad(format!(
                        "unknown fault plan key {other:?} (expected drop/torn/stall/stall_ms/slow/kill/poison/seed)"
                    )))
                }
            }
            seen.push(key);
        }
        plan.validate()?;
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan in the parseable syntax (non-default keys only,
    /// seed always).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "faults")?;
        for (name, rate) in [
            ("drop", self.drop),
            ("torn", self.torn),
            ("stall", self.stall),
            ("slow", self.slow),
            ("kill", self.kill),
            ("poison", self.poison),
        ] {
            if rate > 0.0 {
                write!(f, ":{name}={rate}")?;
            }
        }
        if self.stall_ms != FaultPlan::default().stall_ms {
            write!(f, ":stall_ms={}", self.stall_ms)?;
        }
        write!(f, ":seed={}", self.seed)
    }
}

/// Capped exponential backoff for retrying transient failures.
///
/// Attempt `a` waits `min(cap, base · 2^a)`, scaled by a caller-supplied
/// jitter draw in `[0, 1)` to `[½·d, d)` (decorrelated "equal jitter").
/// The jitter source stays with the caller — the serve client draws from
/// its shim RNG, the sweep engine from the fault plan — so the policy
/// itself is pure data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = this + 1).
    pub max_retries: u32,
    /// First retry's base delay.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based), with
    /// `jitter` a uniform draw in `[0, 1)`.
    pub fn delay(&self, attempt: u32, jitter: f64) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt.min(20)))
            .min(self.cap);
        let half = exp / 2;
        half + Duration::from_nanos((half.as_nanos() as f64 * jitter.clamp(0.0, 1.0)) as u64)
    }
}

/// The typed payload a chaos-killed sweep cell panics with.
///
/// Panic isolation downcasts unwind payloads to this type to tell an
/// *injected* kill (expected, retryable, silent) from a genuine panic
/// (a bug: reported loudly as `CellError::Panicked`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedKill {
    /// Label of the killed cell.
    pub cell: String,
    /// Epochs completed when the kill fired.
    pub epoch: usize,
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for [`InjectedKill`] payloads and delegates
/// everything else to the previous hook. Chaos sweeps call this so a
/// 5%-kill run doesn't spray hundreds of expected backtraces into logs
/// while genuine panics still report normally.
pub fn silence_injected_kills() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedKill>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_render_and_round_trip() {
        let plan: FaultPlan = "faults:drop=0.01:stall_ms=50:torn=0.005:seed=9"
            .parse()
            .expect("plan");
        assert_eq!(plan.drop, 0.01);
        assert_eq!(plan.torn, 0.005);
        assert_eq!(plan.stall_ms, 50);
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.stall, 0.0);
        let rendered: FaultPlan = plan.to_string().parse().expect("round trip");
        assert_eq!(rendered, plan);
        // A bare tag is a valid (inert) plan.
        let inert: FaultPlan = "faults".parse().expect("bare");
        assert_eq!(inert, FaultPlan::default());
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "drop=0.1",                 // missing tag
            "backend:drop=0.1",         // wrong tag
            "faults:drop",              // not key=value
            "faults:drop=x",            // not a number
            "faults:drop=1.5",          // not a probability
            "faults:drop=-0.1",         // negative
            "faults:kill=NaN",          // NaN
            "faults:drop=0.1:drop=0.2", // duplicate key
            "faults:warp=0.1",          // unknown key
            "faults:stall_ms=1.5",      // non-integer duration
            "faults:seed=abc",          // non-integer seed
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rolls_are_pure_site_independent_and_uniform() {
        let plan: FaultPlan = "faults:seed=42".parse().unwrap();
        // Pure: same coordinates, same value — call order irrelevant.
        assert_eq!(plan.roll(site::CONN_DROP, 7), plan.roll(site::CONN_DROP, 7));
        // Site and key both matter.
        assert_ne!(plan.roll(site::CONN_DROP, 7), plan.roll(site::CONN_TORN, 7));
        assert_ne!(plan.roll(site::CONN_DROP, 7), plan.roll(site::CONN_DROP, 8));
        // Different seeds give different streams.
        let other: FaultPlan = "faults:seed=43".parse().unwrap();
        assert_ne!(
            plan.roll(site::CONN_DROP, 7),
            other.roll(site::CONN_DROP, 7)
        );
        // Empirically uniform: mean of many rolls near 0.5, all in [0,1).
        let n = 10_000;
        let mut sum = 0.0;
        for k in 0..n {
            let r = plan.roll(site::CELL_KILL, k);
            assert!((0.0..1.0).contains(&r));
            sum += r;
        }
        assert!(
            (sum / n as f64 - 0.5).abs() < 0.02,
            "mean {}",
            sum / n as f64
        );
    }

    #[test]
    fn poison_is_keyed_covers_every_value_and_is_inert_at_rate_zero() {
        let plan: FaultPlan = "faults:poison=0.5:seed=3".parse().unwrap();
        assert_eq!(plan.poison, 0.5);
        assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
        let mut seen = [0usize; POISON_VALUES.len()];
        let mut fired = 0;
        for key in 0..400 {
            let mut obs = vec![0.25; 5];
            let Some(value) = plan.poison_observation(key, &mut obs) else {
                assert_eq!(
                    obs,
                    vec![0.25; 5],
                    "an unfired key leaves the observation alone"
                );
                continue;
            };
            fired += 1;
            // Exactly one feature carries the value, and the same key
            // poisons the same feature with the same value again.
            let hit: Vec<usize> = (0..5)
                .filter(|&i| obs[i].to_bits() != 0.25f64.to_bits())
                .collect();
            assert_eq!(hit.len(), 1);
            assert_eq!(obs[hit[0]].to_bits(), value.to_bits());
            let mut again = vec![0.25; 5];
            assert_eq!(
                plan.poison_observation(key, &mut again).map(f64::to_bits),
                Some(value.to_bits())
            );
            assert_eq!(again[hit[0]].to_bits(), value.to_bits());
            let kind = POISON_VALUES
                .iter()
                .position(|v| v.to_bits() == value.to_bits());
            seen[kind.expect("a poison value")] += 1;
        }
        assert!((150..250).contains(&fired), "rate 0.5 fired {fired}/400");
        assert!(
            seen.iter().all(|&n| n > 0),
            "every poison value appears: {seen:?}"
        );
        let inert = FaultPlan::default();
        assert!((0..400).all(|key| inert.poison_observation(key, &mut [1.0]).is_none()));
        assert!(plan.poison_observation(0, &mut []).is_none());
        assert!("faults:poison=1.5".parse::<FaultPlan>().is_err());
        assert!("faults:poison=NaN".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn fires_respects_rates_exactly_at_the_edges() {
        let plan: FaultPlan = "faults:seed=1".parse().unwrap();
        for k in 0..100 {
            assert!(!plan.fires(0.0, site::CONN_DROP, k), "rate 0 never fires");
            assert!(plan.fires(1.0, site::CONN_DROP, k), "rate 1 always fires");
        }
        // A 10% rate fires roughly 10% of the time.
        let hits = (0..10_000)
            .filter(|&k| plan.fires(0.1, site::CONN_DROP, k))
            .count();
        assert!((800..1200).contains(&hits), "10% rate fired {hits}/10000");
    }

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
        };
        // Uncapped growth is exponential in the zero-jitter lower half.
        assert_eq!(p.delay(0, 0.0), Duration::from_millis(1));
        assert_eq!(p.delay(1, 0.0), Duration::from_millis(2));
        assert_eq!(p.delay(2, 0.0), Duration::from_millis(4));
        // Capped: attempts past the cap all wait at most `cap`.
        assert_eq!(p.delay(10, 0.0), Duration::from_millis(25));
        assert!(p.delay(10, 0.999) < Duration::from_millis(50));
        // Jitter stays in [d/2, d).
        for a in 0..6 {
            for j in [0.0, 0.3, 0.999] {
                let d = p.delay(a, j);
                let full = p.base.saturating_mul(2u32.pow(a)).min(p.cap);
                assert!(d >= full / 2 && d < full + Duration::from_nanos(1));
            }
        }
        // Huge attempt numbers cannot overflow.
        let _ = p.delay(u32::MAX, 0.5);
    }

    #[test]
    fn fnv_is_stable_and_distinguishes_labels() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"cell/a/s0"), fnv1a(b"cell/a/s1"));
        assert_eq!(fnv1a(b"same"), fnv1a(b"same"));
    }

    #[test]
    fn injected_kills_are_typed_and_catchable() {
        silence_injected_kills();
        let payload = std::panic::catch_unwind(|| {
            std::panic::panic_any(InjectedKill {
                cell: "c".into(),
                epoch: 3,
            })
        })
        .expect_err("panicked");
        let kill = payload.downcast_ref::<InjectedKill>().expect("typed");
        assert_eq!(kill.epoch, 3);
    }
}
