//! The micro-batching core: coalesce concurrent requests into one
//! lane-slab policy execution.
//!
//! Connection handlers enqueue [`Job`]s on an `mpsc` channel; a single
//! batcher thread drains it in ticks. Each tick takes the first job
//! (blocking), then — when a batch window is configured — keeps draining
//! until the window deadline passes or [`BatchConfig::max_batch`] jobs
//! are in hand, and runs them all as **one**
//! [`ServablePolicy::act_batch`] call. With `window = 0` every job runs
//! alone, which is the per-request baseline the load generator compares
//! against.
//!
//! The policy lives in a [`PolicySlot`]: an `Arc` the batcher clones at
//! the *start* of each tick, so a hot-swap never tears a batch — every
//! request in a tick is answered by exactly one policy version, and the
//! swap itself is a pointer exchange off the serving path.
//!
//! Shutdown is drain-by-disconnect: when every producer drops its
//! sender, `recv` returns `Err` and the batcher exits after answering
//! everything already queued. No request is dropped.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qmarl_chaos::{site, FaultPlan};
use qmarl_core::serving::ServablePolicy;

use crate::error::ServeError;
use crate::hist::LatencyHistogram;

/// Micro-batching and overload-control knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// How long the batcher waits after the first request of a tick for
    /// more requests to coalesce. Zero disables coalescing entirely
    /// (batch size is always 1 — the per-request baseline).
    pub window: Duration,
    /// Hard cap on requests per tick; the tick fires early when reached.
    pub max_batch: usize,
    /// Per-request queueing deadline: a job still waiting when the
    /// batcher picks it up past this age is answered BUSY instead of
    /// executed (it would be stale anyway). Zero disables deadlines.
    pub deadline: Duration,
    /// Queue-depth bound: requests arriving while this many jobs are
    /// already queued are shed with BUSY at admission, before queueing.
    /// Zero means unbounded (no shedding).
    pub max_queue: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            window: Duration::from_micros(1_000),
            max_batch: 64,
            deadline: Duration::ZERO,
            max_queue: 4096,
        }
    }
}

impl BatchConfig {
    /// Validate the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `max_batch` is zero.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The hot-swappable policy holder.
///
/// Readers take a cheap lock only long enough to clone the inner `Arc`;
/// [`PolicySlot::swap`] exchanges the pointer and bumps the version
/// counter. Validation and loading of a replacement policy happen
/// entirely *before* `swap`, off the serving path.
#[derive(Debug)]
pub struct PolicySlot {
    policy: Mutex<Arc<ServablePolicy>>,
    version: AtomicU64,
    swaps: AtomicU64,
}

impl PolicySlot {
    /// Wrap the initial policy as version 1.
    pub fn new(policy: ServablePolicy) -> Self {
        PolicySlot {
            policy: Mutex::new(Arc::new(policy)),
            version: AtomicU64::new(1),
            swaps: AtomicU64::new(0),
        }
    }

    /// The policy serving right now.
    pub fn current(&self) -> Arc<ServablePolicy> {
        crate::sync::lock(&self.policy).clone()
    }

    /// Atomically replace the serving policy and bump the version.
    pub fn swap(&self, next: ServablePolicy) {
        let mut guard = crate::sync::lock(&self.policy);
        *guard = Arc::new(next);
        self.version.fetch_add(1, Ordering::SeqCst);
        self.swaps.fetch_add(1, Ordering::SeqCst);
    }

    /// Monotonic policy version (starts at 1, bumps on every swap).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Number of swaps applied.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }
}

/// Lifetime counters and the server-side service-time histogram.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// ACT requests handed to the batcher queue (whether or not they
    /// have been answered yet).
    pub requests_enqueued: AtomicU64,
    /// ACT requests answered successfully.
    pub requests_served: AtomicU64,
    /// Micro-batch executions (ticks).
    pub batches_executed: AtomicU64,
    /// Requests rejected with an error reply.
    pub requests_rejected: AtomicU64,
    /// Requests shed with BUSY at admission (queue/connection budget).
    pub requests_shed: AtomicU64,
    /// Requests answered BUSY because they aged past their deadline in
    /// the queue.
    pub deadline_expired: AtomicU64,
    /// Jobs in the batcher queue right now (gauge, not a counter).
    pub queue_depth: AtomicU64,
    /// Torn/corrupt checkpoints skipped by the watcher (mirrored here
    /// so INFO can report them without a handle on the watcher).
    pub corrupt_skips: AtomicU64,
    /// Faults injected by a configured [`FaultPlan`] (all sites).
    pub faults_injected: AtomicU64,
    /// Per-tick service time (batch execution only, not queueing).
    pub batch_hist: Mutex<LatencyHistogram>,
}

impl ServeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Why a queued job was not answered with actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job aged past [`BatchConfig::deadline`] in the queue. The
    /// server answers BUSY — the failure is the server's load, not the
    /// request, so the client should back off and retry.
    Expired,
    /// The request itself was rejected (bad shape, policy failure).
    Failed(String),
}

/// One queued ACT request: the flat observation and a reply channel.
#[derive(Debug)]
pub struct Job {
    /// Flat `n_agents × obs_dim` features.
    pub observation: Vec<f64>,
    /// When the job entered the queue, for deadline enforcement.
    pub enqueued_at: Instant,
    /// Where the actions (or a typed failure) go.
    pub reply: Sender<Result<Vec<u16>, JobError>>,
}

/// Drain the job queue until every sender is gone.
///
/// This is the batcher thread's body: tick = block for one job, coalesce
/// up to the window/cap, validate shapes, execute once, reply. A reply
/// send can fail only when the requesting connection already vanished;
/// that is not the batcher's problem, so those errors are ignored.
pub fn run_batcher(
    rx: Receiver<Job>,
    slot: Arc<PolicySlot>,
    stats: Arc<ServeStats>,
    cfg: BatchConfig,
    faults: Option<FaultPlan>,
) {
    let mut jobs: Vec<Job> = Vec::with_capacity(cfg.max_batch);
    let mut tick: u64 = 0;
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return, // all producers gone: queue drained, exit
        };
        jobs.push(first);
        if !cfg.window.is_zero() {
            let deadline = Instant::now() + cfg.window;
            while jobs.len() < cfg.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(job) => jobs.push(job),
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        // Gauge down for every job picked up. Saturating: producers that
        // bypass the admission path (unit tests) never increment it.
        let picked = jobs.len() as u64;
        let _ = stats
            .queue_depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(picked))
            });
        // Injected slow tick: the policy "takes long" this tick, letting
        // chaos tests exercise the deadline path under real queueing.
        if let Some(plan) = &faults {
            if plan.fires(plan.slow, site::TICK_SLOW, tick) {
                stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(plan.stall_duration());
            }
        }
        tick += 1;
        execute_tick(&mut jobs, &slot, &stats, cfg.deadline);
    }
}

/// Run one coalesced tick and answer every job in it.
fn execute_tick(jobs: &mut Vec<Job>, slot: &PolicySlot, stats: &ServeStats, deadline: Duration) {
    // One policy version answers the whole tick, even if a swap lands
    // while the batch is executing.
    let policy = slot.current();
    let want = policy.request_len();

    // Deadline- and shape-check first: stale or bad requests get
    // individual typed replies and never poison the batch.
    let now = Instant::now();
    let mut batch: Vec<Job> = Vec::with_capacity(jobs.len());
    for job in jobs.drain(..) {
        if !deadline.is_zero() && now.duration_since(job.enqueued_at) > deadline {
            stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(JobError::Expired));
        } else if job.observation.len() == want {
            batch.push(job);
        } else {
            stats.requests_rejected.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(JobError::Failed(format!(
                "observation length {} does not match the policy request length {want}",
                job.observation.len()
            ))));
        }
    }
    if batch.is_empty() {
        return;
    }

    let mut flat = Vec::with_capacity(batch.len() * want);
    for job in &batch {
        flat.extend_from_slice(&job.observation);
    }

    let start = Instant::now();
    // A panic below `act_batch` (core, runtime or a kernel) is contained
    // to this tick: its jobs get typed errors and the batcher thread
    // lives on. The policy is only read, so unwinding leaves it intact;
    // the panic hook has already reported the payload.
    let result = match catch_unwind(AssertUnwindSafe(|| policy.act_batch(&flat, batch.len()))) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(_) => Err("the policy panicked while serving this batch".to_string()),
    };
    let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

    stats.batches_executed.fetch_add(1, Ordering::Relaxed);
    crate::sync::lock(&stats.batch_hist).record(elapsed);

    match result {
        Ok(actions) => {
            let n_agents = policy.n_agents();
            for (row, job) in batch.iter().enumerate() {
                let slice = &actions[row * n_agents..(row + 1) * n_agents];
                let out: Vec<u16> = slice.iter().map(|&a| a as u16).collect();
                stats.requests_served.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Ok(out));
            }
        }
        Err(msg) => {
            for job in &batch {
                stats.requests_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(JobError::Failed(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmarl_core::prelude::*;
    use std::sync::mpsc;

    fn paper_policy() -> ServablePolicy {
        let train = TrainConfig::paper_default();
        let actors = build_scenario_actors(
            FrameworkKind::Proposed,
            "single-hop",
            &ExecutionBackend::Ideal,
            &train,
        )
        .expect("actor build");
        ServablePolicy::from_actors("test", actors).expect("policy")
    }

    fn obs_for(policy: &ServablePolicy, salt: usize) -> Vec<f64> {
        (0..policy.request_len())
            .map(|i| ((i + salt) % 13) as f64 / 13.0)
            .collect()
    }

    /// Preloaded jobs coalesce into one tick and every reply matches the
    /// single-request reference path bit for bit.
    #[test]
    fn queued_jobs_coalesce_into_one_batch_with_reference_answers() {
        // The seed derivation is deterministic, so building twice yields
        // two bit-identical policies: one reference, one in the slot.
        let policy = paper_policy();
        let slot = Arc::new(PolicySlot::new(paper_policy()));
        let stats = Arc::new(ServeStats::new());
        let (tx, rx) = mpsc::channel::<Job>();

        let n = 6;
        let mut replies = Vec::new();
        let mut expected = Vec::new();
        for salt in 0..n {
            let obs = obs_for(&policy, salt);
            expected.push(policy.act(&obs).expect("reference"));
            let (rtx, rrx) = mpsc::channel();
            tx.send(Job {
                observation: obs,
                enqueued_at: Instant::now(),
                reply: rtx,
            })
            .expect("enqueue");
            replies.push(rrx);
        }
        drop(tx); // queue is complete; batcher drains and exits

        run_batcher(
            rx,
            slot,
            stats.clone(),
            BatchConfig {
                window: Duration::from_millis(50),
                max_batch: 64,
                ..BatchConfig::default()
            },
            None,
        );

        for (rrx, exp) in replies.iter().zip(&expected) {
            let got = rrx.recv().expect("reply").expect("ok");
            let exp_u16: Vec<u16> = exp.iter().map(|&a| a as u16).collect();
            assert_eq!(got, exp_u16);
        }
        // Everything was already queued when the tick started, so one
        // lane-slab execution answered all six requests.
        assert_eq!(stats.batches_executed.load(Ordering::Relaxed), 1);
        assert_eq!(stats.requests_served.load(Ordering::Relaxed), n as u64);
    }

    /// `window = 0` is the per-request baseline: one tick per job.
    #[test]
    fn zero_window_executes_every_job_alone() {
        let policy = paper_policy();
        let slot = Arc::new(PolicySlot::new(policy));
        let stats = Arc::new(ServeStats::new());
        let (tx, rx) = mpsc::channel::<Job>();

        let current = slot.current();
        let mut replies = Vec::new();
        for salt in 0..4 {
            let (rtx, rrx) = mpsc::channel();
            tx.send(Job {
                observation: obs_for(&current, salt),
                enqueued_at: Instant::now(),
                reply: rtx,
            })
            .expect("enqueue");
            replies.push(rrx);
        }
        drop(tx);

        run_batcher(
            rx,
            slot,
            stats.clone(),
            BatchConfig {
                window: Duration::ZERO,
                max_batch: 64,
                ..BatchConfig::default()
            },
            None,
        );

        for rrx in &replies {
            rrx.recv().expect("reply").expect("ok");
        }
        assert_eq!(stats.batches_executed.load(Ordering::Relaxed), 4);
    }

    /// A malformed job gets its own error reply; the rest of the tick
    /// is served normally.
    #[test]
    fn bad_shapes_fail_individually_without_poisoning_the_batch() {
        let policy = paper_policy();
        let slot = Arc::new(PolicySlot::new(policy));
        let stats = Arc::new(ServeStats::new());
        let (tx, rx) = mpsc::channel::<Job>();

        let current = slot.current();
        let (good_tx, good_rx) = mpsc::channel();
        let (bad_tx, bad_rx) = mpsc::channel();
        tx.send(Job {
            observation: obs_for(&current, 0),
            enqueued_at: Instant::now(),
            reply: good_tx,
        })
        .expect("enqueue");
        tx.send(Job {
            observation: vec![0.5; 3],
            enqueued_at: Instant::now(),
            reply: bad_tx,
        })
        .expect("enqueue");
        drop(tx);

        run_batcher(
            rx,
            slot,
            stats.clone(),
            BatchConfig {
                window: Duration::from_millis(50),
                max_batch: 64,
                ..BatchConfig::default()
            },
            None,
        );

        assert!(good_rx.recv().expect("reply").is_ok());
        match bad_rx.recv().expect("reply").expect_err("shape error") {
            JobError::Failed(err) => assert!(err.contains("does not match"), "got: {err}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(stats.requests_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(stats.requests_served.load(Ordering::Relaxed), 1);
    }

    /// A job that aged past the deadline in the queue is answered
    /// [`JobError::Expired`] without executing; fresh jobs still run.
    #[test]
    fn stale_jobs_expire_instead_of_executing() {
        let policy = paper_policy();
        let slot = Arc::new(PolicySlot::new(policy));
        let stats = Arc::new(ServeStats::new());
        let (tx, rx) = mpsc::channel::<Job>();

        let current = slot.current();
        let (stale_tx, stale_rx) = mpsc::channel();
        let (fresh_tx, fresh_rx) = mpsc::channel();
        tx.send(Job {
            observation: obs_for(&current, 0),
            enqueued_at: Instant::now() - Duration::from_millis(100),
            reply: stale_tx,
        })
        .expect("enqueue");
        tx.send(Job {
            observation: obs_for(&current, 1),
            enqueued_at: Instant::now(),
            reply: fresh_tx,
        })
        .expect("enqueue");
        drop(tx);

        run_batcher(
            rx,
            slot,
            stats.clone(),
            BatchConfig {
                window: Duration::from_millis(20),
                max_batch: 64,
                deadline: Duration::from_millis(50),
                ..BatchConfig::default()
            },
            None,
        );

        assert_eq!(
            stale_rx.recv().expect("reply").expect_err("expired"),
            JobError::Expired
        );
        assert!(fresh_rx.recv().expect("reply").is_ok());
        assert_eq!(stats.deadline_expired.load(Ordering::Relaxed), 1);
        assert_eq!(stats.requests_served.load(Ordering::Relaxed), 1);
    }
}
