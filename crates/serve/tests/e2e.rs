//! End-to-end serving tests over real localhost TCP: wire parity with
//! the in-process reference path, graceful drain, hot-swap under load
//! with zero dropped requests, and torn-snapshot skipping.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qmarl_core::prelude::*;
use qmarl_serve::prelude::*;

const KIND: FrameworkKind = FrameworkKind::Proposed;
const SCENARIO: &str = "single-hop";

fn paper_actors(train: &TrainConfig) -> Vec<Box<dyn Actor>> {
    build_scenario_actors(KIND, SCENARIO, &ExecutionBackend::Ideal, train).expect("actor build")
}

fn paper_policy() -> ServablePolicy {
    let train = TrainConfig::paper_default();
    ServablePolicy::from_actors("e2e", paper_actors(&train)).expect("policy")
}

fn obs_slab(salt: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i + salt) % 19) as f64 / 19.0).collect()
}

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static NTH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qmarl-serve-{tag}-{}-{}",
        std::process::id(),
        NTH.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Wait (bounded) until `cond` holds.
fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Every answer that crosses the wire — from many concurrent clients,
/// coalesced into micro-batches — is bit-identical to the in-process
/// single-request reference path, and the drain report accounts for
/// every request.
#[test]
fn tcp_serving_matches_the_reference_path_under_concurrency() {
    let reference = paper_policy();
    let handle = serve(paper_policy(), ServerConfig::default()).expect("serve");
    let addr = handle.addr();
    let request_len = reference.request_len();

    let n_clients = 6;
    let per_client = 25;
    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut out = Vec::new();
                for r in 0..per_client {
                    let obs = obs_slab(c * 1000 + r, request_len);
                    let actions = client.act(&obs).expect("act");
                    out.push((obs, actions));
                }
                out
            })
        })
        .collect();

    for w in workers {
        for (obs, actions) in w.join().expect("client thread") {
            let expected: Vec<u16> = reference
                .act(&obs)
                .expect("reference")
                .iter()
                .map(|&a| a as u16)
                .collect();
            assert_eq!(actions, expected, "wire answer diverged from reference");
        }
    }

    let mut client = ServeClient::connect(addr).expect("connect");
    let info = client.info().expect("info");
    assert_eq!(info.n_agents as usize, reference.n_agents());
    assert_eq!(info.obs_dim as usize, reference.obs_dim());
    assert_eq!(info.n_actions as usize, reference.n_actions());
    assert_eq!(info.policy_version, 1);
    assert_eq!(info.requests_served, (n_clients * per_client) as u64);
    drop(client);

    let report = handle.shutdown();
    assert_eq!(report.requests_served, (n_clients * per_client) as u64);
    assert_eq!(report.requests_rejected, 0);
    assert!(report.batches_executed > 0);
    assert!(report.batches_executed <= report.requests_served);
    assert_eq!(report.batch_hist.count(), report.batches_executed);
}

/// A malformed request gets an error reply; the connection and the
/// server survive and keep serving.
#[test]
fn shape_errors_come_back_as_error_frames_not_disconnects() {
    let handle = serve(paper_policy(), ServerConfig::default()).expect("serve");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let err = client.act(&[0.5; 3]).expect_err("wrong length must fail");
    assert!(err.to_string().contains("does not match"), "got: {err}");

    // Same connection still serves a valid request afterwards.
    let request_len = handle.slot().current().request_len();
    client.act(&obs_slab(0, request_len)).expect("valid act");
    drop(client);

    let report = handle.shutdown();
    assert_eq!(report.requests_served, 1);
    assert_eq!(report.requests_rejected, 1);
}

/// A NaN or ±inf observation is refused with a typed ERROR before it
/// reaches the policy; the same connection keeps serving afterwards.
#[test]
fn non_finite_observations_get_typed_errors_and_the_connection_survives() {
    let handle = serve(paper_policy(), ServerConfig::default()).expect("serve");
    let request_len = handle.slot().current().request_len();
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut obs = obs_slab(1, request_len);
        obs[2] = bad;
        match client.act(&obs) {
            Err(ServeError::Server(msg)) => assert!(msg.contains("finite"), "got: {msg}"),
            other => panic!("expected a typed ERROR for {bad}, got {other:?}"),
        }
        client
            .act(&obs_slab(0, request_len))
            .expect("the next request on the same connection");
    }
    // Huge but finite features are valid input.
    client
        .act(&vec![1e300; request_len])
        .expect("huge finite observation");
    drop(client);

    let report = handle.shutdown();
    assert_eq!(report.requests_rejected, 3);
    assert_eq!(report.requests_served, 4);
}

/// A one-agent policy that panics on any observation whose first feature
/// exceeds 0.5 and answers a uniform distribution otherwise.
#[derive(Clone)]
struct PanicsOnLargeFirstFeature;

impl Actor for PanicsOnLargeFirstFeature {
    fn obs_dim(&self) -> usize {
        2
    }

    fn n_actions(&self) -> usize {
        2
    }

    fn param_count(&self) -> usize {
        0
    }

    fn probs(&self, obs: &[f64]) -> Result<Vec<f64>, CoreError> {
        assert!(obs[0] <= 0.5, "poisoned observation");
        Ok(vec![0.5, 0.5])
    }

    fn policy_gradient_with_entropy(
        &self,
        _obs: &[f64],
        _action: usize,
        _advantage: f64,
        _entropy_coef: f64,
    ) -> Result<Vec<f64>, CoreError> {
        Ok(Vec::new())
    }

    fn params(&self) -> Vec<f64> {
        Vec::new()
    }

    fn set_params(&mut self, _params: &[f64]) -> Result<(), CoreError> {
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Actor> {
        Box::new(self.clone())
    }
}

/// A panic inside the policy fails only its own tick, with a typed
/// ERROR; the batcher keeps running and the same connection is served.
#[test]
fn a_panicking_policy_fails_its_tick_and_the_batcher_keeps_serving() {
    let policy = ServablePolicy::from_actors("panics", vec![Box::new(PanicsOnLargeFirstFeature)])
        .expect("policy");
    let handle = serve(policy, ServerConfig::default()).expect("serve");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    for _ in 0..2 {
        match client.act(&[0.9, 0.0]) {
            Err(ServeError::Server(msg)) => assert!(msg.contains("panicked"), "got: {msg}"),
            other => panic!("expected a typed ERROR for a panicking tick, got {other:?}"),
        }
        let actions = client
            .act(&[0.1, 0.0])
            .expect("the next request on the same connection");
        assert_eq!(actions.len(), 1);
    }
    drop(client);

    let report = handle.shutdown();
    assert_eq!(report.requests_rejected, 2);
    assert_eq!(report.requests_served, 2);
}

/// Shutdown drains: a request parked inside an open batch window is
/// answered, not dropped, when shutdown lands mid-window.
#[test]
fn shutdown_answers_requests_parked_in_the_batch_window() {
    let handle = serve(
        paper_policy(),
        ServerConfig {
            batch: BatchConfig {
                window: Duration::from_millis(300),
                max_batch: 64,
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let request_len = handle.slot().current().request_len();

    let client = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect");
        client.act(&obs_slab(1, request_len)).expect("drained act")
    });
    // Wait until the request has actually reached the batcher queue
    // (typically parking it in the open 300ms window), then shut down.
    wait_until(
        "the request to be enqueued",
        Duration::from_secs(10),
        || handle.stats().requests_enqueued.load(Ordering::SeqCst) >= 1,
    );
    let report = handle.shutdown();
    let actions = client.join().expect("client thread");
    assert!(!actions.is_empty());
    assert_eq!(report.requests_served, 1);
    assert_eq!(report.requests_rejected, 0);
}

/// The hot-swap acceptance test: under continuous load, drop a new
/// snapshot into the watched directory; zero requests fail across the
/// swap, and post-swap answers are bit-identical to a *fresh* server
/// started from that snapshot.
#[test]
fn hot_swap_under_load_drops_nothing_and_matches_a_fresh_server() {
    let train = TrainConfig::paper_default();
    let dir = scratch_dir("swap");

    let handle = serve(paper_policy(), ServerConfig::default()).expect("serve");
    let watcher = spawn_watcher(
        WatchConfig {
            dir: dir.clone(),
            poll_interval: Duration::from_millis(10),
            kind: KIND,
            scenario: SCENARIO.into(),
            backend: ExecutionBackend::Ideal,
            train: train.clone(),
            stats: None,
            faults: None,
        },
        handle.slot().clone(),
    )
    .expect("watcher");
    let addr = handle.addr();
    let request_len = handle.slot().current().request_len();

    // Continuous load throughout the swap; every single act() must
    // succeed.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load: Vec<_> = (0..4)
        .map(|c| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut served = 0u64;
                let mut salt = c * 10_000;
                while !stop.load(Ordering::SeqCst) {
                    client
                        .act(&obs_slab(salt, request_len))
                        .expect("no request may fail across a hot-swap");
                    salt += 1;
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Build a visibly different policy and publish it atomically.
    let snapshot = {
        let mut actors = paper_actors(&train);
        for actor in &mut actors {
            let perturbed: Vec<f64> = actor.params().iter().map(|p| p + 0.35).collect();
            actor.set_params(&perturbed).expect("params fit");
        }
        FrameworkSnapshot {
            label: "swapped".into(),
            actor_params: actors.iter().map(|a| a.params()).collect(),
            critic_params: Vec::new(),
        }
    };
    std::thread::sleep(Duration::from_millis(50)); // load is flowing pre-swap
    snapshot.save(dir.join("step-000123.ckpt")).expect("save");

    wait_until("the watcher to swap", Duration::from_secs(10), || {
        handle.slot().version() >= 2
    });
    std::thread::sleep(Duration::from_millis(50)); // load keeps flowing post-swap
    stop.store(true, Ordering::SeqCst);
    let total_load: u64 = load
        .into_iter()
        .map(|w| w.join().expect("load thread"))
        .sum();
    assert!(total_load > 0, "load ran");

    // Post-swap answers match a fresh server started from the snapshot.
    let fresh_policy =
        ServablePolicy::from_snapshot(&snapshot, KIND, SCENARIO, &ExecutionBackend::Ideal, &train)
            .expect("fresh policy");
    let fresh = serve(fresh_policy, ServerConfig::default()).expect("fresh serve");
    let mut swapped_client = ServeClient::connect(addr).expect("connect swapped");
    let mut fresh_client = ServeClient::connect(fresh.addr()).expect("connect fresh");
    let mut diverged_from_v1 = false;
    let reference_v1 = paper_policy();
    for salt in 0..40 {
        let obs = obs_slab(salt, request_len);
        let a = swapped_client.act(&obs).expect("swapped act");
        let b = fresh_client.act(&obs).expect("fresh act");
        assert_eq!(a, b, "post-swap server diverged from a fresh load");
        let v1: Vec<u16> = reference_v1
            .act(&obs)
            .expect("v1 reference")
            .iter()
            .map(|&x| x as u16)
            .collect();
        diverged_from_v1 |= a != v1;
    }
    assert!(
        diverged_from_v1,
        "the perturbed snapshot should change at least one decision"
    );

    let info = swapped_client.info().expect("info");
    assert_eq!(info.policy_version, 2);
    assert_eq!(info.policy_swaps, 1);
    drop(swapped_client);
    drop(fresh_client);

    watcher.stop();
    let report = handle.shutdown();
    assert_eq!(report.requests_rejected, 0, "zero failures across the swap");
    assert_eq!(report.policy_swaps, 1);
    fresh.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn and corrupt snapshot files are skipped — the serving policy
/// stays on its current version — and a later valid file still swaps.
#[test]
fn watcher_skips_torn_snapshots_and_recovers_on_the_next_valid_one() {
    let train = TrainConfig::paper_default();
    let dir = scratch_dir("torn");
    let slot = Arc::new(PolicySlot::new(paper_policy()));
    let watcher = spawn_watcher(
        WatchConfig {
            dir: dir.clone(),
            poll_interval: Duration::from_millis(10),
            kind: KIND,
            scenario: SCENARIO.into(),
            backend: ExecutionBackend::Ideal,
            train: train.clone(),
            stats: None,
            faults: None,
        },
        slot.clone(),
    )
    .expect("watcher");

    // A torn file: a valid snapshot truncated mid-write (raw write, not
    // the atomic save path).
    let valid = {
        let actors = paper_actors(&train);
        FrameworkSnapshot {
            label: "next".into(),
            actor_params: actors.iter().map(|a| a.params()).collect(),
            critic_params: Vec::new(),
        }
    };
    let text = valid.to_text();
    std::fs::write(dir.join("torn.ckpt"), &text[..text.len() / 2]).expect("write torn");

    wait_until(
        "the torn file to be skipped",
        Duration::from_secs(10),
        || watcher.corrupt_skips.load(Ordering::SeqCst) >= 1,
    );
    assert_eq!(slot.version(), 1, "a torn file must never swap in");
    assert_eq!(watcher.swaps_applied.load(Ordering::SeqCst), 0);

    // Garbage with the right extension is also skipped.
    std::fs::write(dir.join("zz-garbage.ckpt"), b"not a snapshot at all").expect("write garbage");
    wait_until(
        "the garbage file to be skipped",
        Duration::from_secs(10),
        || watcher.corrupt_skips.load(Ordering::SeqCst) >= 2,
    );
    assert_eq!(slot.version(), 1);

    // The writer finishes properly: atomic save, picked up and applied.
    valid.save(dir.join("zz-ok.ckpt")).expect("save");
    wait_until("the valid file to swap", Duration::from_secs(10), || {
        slot.version() >= 2
    });
    assert_eq!(watcher.swaps_applied.load(Ordering::SeqCst), 1);
    assert_eq!(slot.current().label(), "next");

    watcher.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed snapshot whose parameters are not finite is a corrupt
/// file, not a policy: the watcher counts it as a skip and the previous
/// policy keeps answering, bit for bit.
#[test]
fn watcher_skips_non_finite_snapshots_and_keeps_the_previous_policy() {
    let train = TrainConfig::paper_default();
    let dir = scratch_dir("nan");
    let reference = paper_policy();
    let handle = serve(paper_policy(), ServerConfig::default()).expect("serve");
    let watcher = spawn_watcher(
        WatchConfig {
            dir: dir.clone(),
            poll_interval: Duration::from_millis(10),
            kind: KIND,
            scenario: SCENARIO.into(),
            backend: ExecutionBackend::Ideal,
            train: train.clone(),
            stats: Some(handle.stats().clone()),
            faults: None,
        },
        handle.slot().clone(),
    )
    .expect("watcher");

    // Right shape for this server, one NaN weight. `save` refuses it, so
    // write the text directly (tmp + rename: one fingerprint, one skip).
    let mut actor_params: Vec<Vec<f64>> = paper_actors(&train).iter().map(|a| a.params()).collect();
    actor_params[0][0] = f64::NAN;
    let poisoned = FrameworkSnapshot {
        label: "nan".into(),
        actor_params,
        critic_params: Vec::new(),
    };
    let tmp = dir.join("nan.ckpt.tmp");
    std::fs::write(&tmp, poisoned.to_text()).expect("write nan");
    std::fs::rename(&tmp, dir.join("nan.ckpt")).expect("rename nan");
    wait_until(
        "the NaN snapshot to be skipped",
        Duration::from_secs(10),
        || watcher.corrupt_skips.load(Ordering::SeqCst) >= 1,
    );
    assert_eq!(watcher.swaps_applied.load(Ordering::SeqCst), 0);
    assert_eq!(watcher.mismatch_rejects.load(Ordering::SeqCst), 0);

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let info = client.info().expect("info");
    assert_eq!(info.policy_version, 1, "a NaN snapshot must never swap in");
    assert_eq!(info.corrupt_skips, 1);
    for salt in 0..5 {
        let obs = obs_slab(salt, reference.request_len());
        let expected: Vec<u16> = reference
            .act(&obs)
            .expect("reference")
            .iter()
            .map(|&a| a as u16)
            .collect();
        assert_eq!(client.act(&obs).expect("act"), expected);
    }
    drop(client);

    watcher.stop();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a connection that lands in the listen backlog after the
/// drain flag is set gets a typed ERROR frame back, not a silent reset.
///
/// The race is forced deterministically: a 500 ms accept poll guarantees
/// the accept thread is asleep when we connect, and shutdown() runs —
/// setting the stop flag — before the thread wakes to check it.
#[test]
fn connections_racing_shutdown_get_a_typed_error_frame() {
    let handle = serve(
        paper_policy(),
        ServerConfig {
            accept_poll: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    // Park one real connection so the accept thread has entered its
    // sleep-poll cycle (it accepted this one, then went back to sleep).
    let mut warm = ServeClient::connect(addr).expect("warm connect");
    let request_len = handle.slot().current().request_len();
    warm.act(&obs_slab(0, request_len)).expect("warm act");

    // This connection completes at the TCP level (backlog) while the
    // accept thread sleeps; the stop flag is set before it wakes.
    let racer = std::net::TcpStream::connect(addr).expect("racing connect");
    let shutdown = std::thread::spawn(move || {
        drop(warm);
        handle.shutdown()
    });

    // The drain loop must answer the backlogged connection with a typed
    // refusal before the listener closes.
    let mut racer = racer;
    racer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let payload = qmarl_serve::protocol::read_frame(&mut racer)
        .expect("refusal frame, not a reset")
        .expect("refusal frame, not silent EOF");
    match Response::decode(&payload).expect("decodable refusal") {
        Response::Error { message, .. } => {
            assert!(message.contains("draining"), "got: {message}")
        }
        other => panic!("expected a typed ERROR frame, got {other:?}"),
    }
    shutdown.join().expect("shutdown thread");
}

/// Satellite: corrupt-checkpoint skips are visible to clients through
/// the INFO opcode when the watcher mirrors into the server stats.
#[test]
fn corrupt_skips_surface_through_the_info_opcode() {
    let train = TrainConfig::paper_default();
    let dir = scratch_dir("info-skips");
    let handle = serve(paper_policy(), ServerConfig::default()).expect("serve");
    let watcher = spawn_watcher(
        WatchConfig {
            dir: dir.clone(),
            poll_interval: Duration::from_millis(10),
            kind: KIND,
            scenario: SCENARIO.into(),
            backend: ExecutionBackend::Ideal,
            train: train.clone(),
            stats: Some(handle.stats().clone()),
            faults: None,
        },
        handle.slot().clone(),
    )
    .expect("watcher");

    // Atomic tmp+rename so the poller cannot fingerprint a half-written
    // file and double-count the skip.
    let tmp = dir.join("torn.ckpt.tmp");
    std::fs::write(&tmp, b"definitely not a snapshot").expect("write torn");
    std::fs::rename(&tmp, dir.join("torn.ckpt")).expect("rename torn");
    wait_until("the skip to surface", Duration::from_secs(10), || {
        watcher.corrupt_skips.load(Ordering::SeqCst) >= 1
    });

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let info = client.info().expect("info");
    assert_eq!(info.corrupt_skips, 1);
    assert_eq!(info.policy_version, 1, "the torn file must not swap in");
    drop(client);

    watcher.stop();
    let report = handle.shutdown();
    assert_eq!(report.corrupt_skips, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
