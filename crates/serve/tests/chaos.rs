//! Chaos suite: real TCP serving under continuously injected faults.
//!
//! The contract under fault injection is *zero wrong answers*: a fault
//! may cost latency (retries, reconnects, BUSY backoff) but every ACT
//! answer that reaches a client must be bit-identical to the fault-free
//! reference policy. Wrong-but-plausible answers — the failure mode
//! torn frames and dropped connections can cause in sloppier protocols
//! — are what these tests exist to rule out.

use std::time::Duration;

use qmarl_core::prelude::*;
use qmarl_serve::prelude::*;

const KIND: FrameworkKind = FrameworkKind::Proposed;
const SCENARIO: &str = "single-hop";

fn paper_policy() -> ServablePolicy {
    let train = TrainConfig::paper_default();
    let actors = build_scenario_actors(KIND, SCENARIO, &ExecutionBackend::Ideal, &train)
        .expect("actor build");
    ServablePolicy::from_actors("chaos", actors).expect("policy")
}

fn obs_slab(salt: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i + salt) % 19) as f64 / 19.0).collect()
}

/// A retry policy generous enough that a seeded fault storm cannot
/// plausibly exhaust it, but still fast (capped at 20 ms per wait).
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 16,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
    }
}

/// Dropped connections, torn response frames and stalled reads, all at
/// once, under concurrent retrying clients: every answer that comes
/// back is bit-identical to the fault-free reference, and the injected
/// faults demonstrably fired.
#[test]
fn serving_under_drop_torn_stall_returns_zero_wrong_answers() {
    let reference = paper_policy();
    let plan: FaultPlan = "faults:drop=0.08:torn=0.08:stall=0.02:stall_ms=5:seed=9"
        .parse()
        .expect("plan");
    let handle = serve(
        paper_policy(),
        ServerConfig {
            faults: Some(plan),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let request_len = reference.request_len();

    let n_clients = 6;
    let per_client = 40;
    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr)
                    .expect("connect")
                    .with_retry(chaos_retry(), 100 + c as u64);
                let mut out = Vec::new();
                for r in 0..per_client {
                    let obs = obs_slab(c * 1000 + r, request_len);
                    let actions = client
                        .act(&obs)
                        .expect("every request must succeed within the retry budget");
                    out.push((obs, actions));
                }
                (out, client.retry_stats())
            })
        })
        .collect();

    let mut total_retries = 0u64;
    for w in workers {
        let (answers, stats) = w.join().expect("client thread");
        total_retries += stats.retries;
        for (obs, actions) in answers {
            let expected: Vec<u16> = reference
                .act(&obs)
                .expect("reference")
                .iter()
                .map(|&a| a as u16)
                .collect();
            assert_eq!(actions, expected, "a faulted path produced a WRONG answer");
        }
    }

    let report = handle.shutdown();
    assert!(
        report.faults_injected > 0,
        "the plan must actually inject faults for this test to mean anything"
    );
    assert!(
        total_retries > 0,
        "injected faults must have forced client retries"
    );
}

/// Queue-bound overload control: with a tiny queue and a long batch
/// window, a burst of concurrent requests is partially shed with BUSY —
/// and every shed client recovers through retries, again with
/// bit-identical answers.
#[test]
fn busy_shedding_recovers_through_retries_with_correct_answers() {
    let reference = paper_policy();
    let handle = serve(
        paper_policy(),
        ServerConfig {
            batch: BatchConfig {
                window: Duration::from_millis(200),
                max_batch: 64,
                max_queue: 2,
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let request_len = reference.request_len();

    let n_clients = 10;
    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect").with_retry(
                    RetryPolicy {
                        max_retries: 20,
                        base: Duration::from_millis(50),
                        cap: Duration::from_millis(400),
                    },
                    200 + c as u64,
                );
                let obs = obs_slab(c * 37, request_len);
                let actions = client.act(&obs).expect("must recover through retries");
                (obs, actions, client.retry_stats())
            })
        })
        .collect();

    let mut total_sheds = 0u64;
    for w in workers {
        let (obs, actions, stats) = w.join().expect("client thread");
        total_sheds += stats.sheds;
        let expected: Vec<u16> = reference
            .act(&obs)
            .expect("reference")
            .iter()
            .map(|&a| a as u16)
            .collect();
        assert_eq!(actions, expected);
    }

    let report = handle.shutdown();
    assert_eq!(
        report.requests_shed, total_sheds,
        "server sheds and client BUSY receipts must agree"
    );
    assert!(
        report.requests_shed > 0,
        "a 10-way burst into a 2-deep queue must shed"
    );
    assert_eq!(report.requests_served, n_clients as u64);
}

/// Per-request deadlines: when every tick is injected slow, queued jobs
/// age past the deadline and come back as typed BUSY (retryable), never
/// as a wrong or hung answer.
#[test]
fn deadline_expiry_is_typed_and_counted() {
    let plan: FaultPlan = "faults:slow=1:stall_ms=60:seed=4".parse().expect("plan");
    let handle = serve(
        paper_policy(),
        ServerConfig {
            batch: BatchConfig {
                window: Duration::ZERO,
                max_batch: 64,
                deadline: Duration::from_millis(10),
                ..BatchConfig::default()
            },
            faults: Some(plan),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let request_len = handle.slot().current().request_len();

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let err = client
        .act(&obs_slab(0, request_len))
        .expect_err("a 60ms slow tick must expire a 10ms deadline");
    assert!(
        matches!(err, ServeError::Busy { .. }),
        "expiry must surface as typed BUSY, got: {err}"
    );
    assert!(err.is_retryable());
    drop(client);

    let report = handle.shutdown();
    assert!(report.deadline_expired >= 1);
    assert!(report.faults_injected >= 1);
    assert_eq!(report.requests_served, 0);
}

/// Connection-budget shedding: a connection over `max_conns` gets a
/// typed BUSY frame at accept, and the slot freed by a departing client
/// is immediately reusable.
#[test]
fn connection_cap_sheds_with_busy_and_frees_on_disconnect() {
    let handle = serve(
        paper_policy(),
        ServerConfig {
            max_conns: 1,
            accept_poll: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let request_len = handle.slot().current().request_len();

    // Occupy the single slot with a served request (proves the slot is
    // counted only once per connection, not per request).
    let mut occupant = ServeClient::connect(addr).expect("occupant connect");
    occupant
        .act(&obs_slab(0, request_len))
        .expect("occupant act");

    // The second connection is shed with typed BUSY.
    let mut shed = ServeClient::connect(addr).expect("tcp connect succeeds");
    let err = shed
        .act(&obs_slab(1, request_len))
        .expect_err("over-budget connection must be shed");
    assert!(
        matches!(err, ServeError::Busy { .. }),
        "expected typed BUSY, got: {err}"
    );

    // Freeing the slot lets a fresh connection through.
    drop(occupant);
    drop(shed);
    let ok = std::panic::catch_unwind(|| {
        // Handler teardown is asynchronous; poll briefly for the slot.
        for attempt in 0..100 {
            let mut fresh = match ServeClient::connect(addr) {
                Ok(c) => c,
                Err(_) => continue,
            };
            match fresh.act(&obs_slab(2, request_len)) {
                Ok(actions) => return actions,
                Err(_) if attempt < 99 => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("slot never freed: {e}"),
            }
        }
        unreachable!()
    })
    .expect("freed slot must serve again");
    assert!(!ok.is_empty());

    let report = handle.shutdown();
    assert!(report.requests_shed >= 1);
}

/// Inertness: a configured-but-all-zero plan injects nothing, and a
/// server with no plan at all reports zero faults — the fault-free path
/// is bit-for-bit the PR 7 behavior.
#[test]
fn absent_and_zero_rate_plans_are_inert() {
    for faults in [
        None,
        Some("faults:seed=77".parse::<FaultPlan>().expect("plan")),
    ] {
        let reference = paper_policy();
        let handle = serve(
            paper_policy(),
            ServerConfig {
                faults,
                ..ServerConfig::default()
            },
        )
        .expect("serve");
        let request_len = reference.request_len();
        let mut client = ServeClient::connect(handle.addr()).expect("connect");
        for salt in 0..20 {
            let obs = obs_slab(salt, request_len);
            let expected: Vec<u16> = reference
                .act(&obs)
                .expect("reference")
                .iter()
                .map(|&a| a as u16)
                .collect();
            assert_eq!(client.act(&obs).expect("act"), expected);
        }
        drop(client);
        let report = handle.shutdown();
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.requests_shed, 0);
        assert_eq!(report.requests_served, 20);
    }
}

/// Poisoned observations, as `loadgen --faults faults:poison=<rate>`
/// sends them: a NaN or ±inf feature is refused with a typed ERROR, a
/// 1e300 feature gets a well-formed reply (actions equal to the reference
/// policy's, or a typed ERROR), and no poison drops its connection. The
/// clients do not retry, so a dropped connection would surface as an I/O
/// error on the requests that follow it; every unpoisoned request must
/// instead be served, bit-identical to the reference.
#[test]
fn poisoned_observations_get_typed_replies_and_service_continues() {
    let reference = paper_policy();
    let plan: FaultPlan = "faults:poison=0.3:seed=11".parse().expect("plan");
    let handle = serve(
        paper_policy(),
        ServerConfig {
            faults: Some(plan),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let request_len = reference.request_len();

    let n_clients = 4;
    let per_client = 40;
    let workers: Vec<_> = (0..n_clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                (0..per_client)
                    .map(|r| {
                        let mut obs = obs_slab(c * 1000 + r, request_len);
                        let key = FaultPlan::key2(c as u64, r as u64);
                        let poison = plan.poison_observation(key, &mut obs);
                        let reply = client.act(&obs);
                        (obs, poison, reply)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut sent = [0usize; POISON_VALUES.len()];
    let mut non_finite = 0u64;
    for w in workers {
        let replies = w.join().expect("client thread");
        assert!(
            (replies.windows(2)).any(|w| w[0].1.is_some() && w[1].1.is_none()),
            "every connection must carry a poisoned request followed by a clean one"
        );
        for (obs, poison, reply) in replies {
            let expected = reference
                .act(&obs)
                .map(|actions| actions.iter().map(|&a| a as u16).collect::<Vec<u16>>());
            match poison {
                Some(value) => {
                    let kind = POISON_VALUES
                        .iter()
                        .position(|v| v.to_bits() == value.to_bits())
                        .expect("a poison value");
                    sent[kind] += 1;
                    match reply {
                        Err(ServeError::Server(_)) if !value.is_finite() => non_finite += 1,
                        Err(ServeError::Server(_)) => {}
                        Ok(actions) if value.is_finite() => assert_eq!(
                            Ok(actions),
                            expected.map_err(|e| e.to_string()),
                            "a 1e300 feature got a wrong answer"
                        ),
                        other => panic!("poison {value} got {other:?}, not a typed reply"),
                    }
                }
                None => assert_eq!(
                    reply.expect("an unpoisoned request must be served"),
                    expected.expect("reference")
                ),
            }
        }
    }
    assert!(
        sent.iter().all(|&n| n > 0),
        "NaN, +inf, -inf and 1e300 must each be sent: {sent:?}"
    );

    let report = handle.shutdown();
    assert_eq!(
        report.requests_rejected, non_finite,
        "each non-finite observation is refused once, before the batcher"
    );
    assert_eq!(report.faults_injected, 0, "poison is a client-side fault");
}
