//! The serving phase of the traced `paper-cell` run: the Proposed /
//! single-hop policy behind an in-process server with no batching window,
//! driven over two connections first closed-loop to measure saturation,
//! then by seeded Poisson open-loop arrivals at a fixed share of that
//! saturation, each request timed from its due time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qmarl_core::prelude::*;
use qmarl_serve::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{quantile, Outcome};

/// Client connections (one generator thread each).
const CONNECTIONS: usize = 2;
/// Offered open-loop load as a share of the measured closed-loop
/// saturation throughput.
const OPEN_LOAD: f64 = 0.4;
/// Open-loop requests over all connections.
const OPEN_REQUESTS: usize = 10_000;
/// Distinct observations replayed, each with its reference answer.
const POOL: usize = 1024;
/// Closed-loop requests per connection before measuring.
const WARMUP: usize = 200;

fn policy(seed: u64) -> Result<ServablePolicy, String> {
    let train = TrainConfig {
        seed,
        ..TrainConfig::paper_default()
    };
    let actors = build_scenario_actors(
        FrameworkKind::Proposed,
        "single-hop",
        &ExecutionBackend::Ideal,
        &train,
    )
    .map_err(|e| e.to_string())?;
    ServablePolicy::from_actors("Proposed@single-hop", actors).map_err(|e| e.to_string())
}

/// Policy build, server start with no batching window, and both
/// connections: what a user pays before the first request.
fn start(seed: u64) -> Result<(ServerHandle, Vec<ServeClient>), String> {
    let config = ServerConfig {
        batch: BatchConfig {
            window: Duration::ZERO,
            ..BatchConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = serve(policy(seed)?, config).map_err(|e| e.to_string())?;
    let clients = (0..CONNECTIONS)
        .map(|_| ServeClient::connect(handle.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok((handle, clients))
}

/// One connection's requests: latency from due time, generator lateness,
/// and checked-request tallies.
#[derive(Default)]
struct Tally {
    latency_ns: Vec<f64>,
    late_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Sends one request and checks the reply against the reference.
    /// Returns whether it succeeded.
    fn request(&mut self, client: &mut ServeClient, (obs, want): &(Vec<f64>, Vec<u16>)) -> bool {
        self.attempted += 1;
        let problem = match client.act(obs) {
            Ok(actions) if actions == *want => return true,
            Ok(actions) => format!("wrong actions {actions:?}, reference {want:?}"),
            Err(e) => format!("request failed: {e}"),
        };
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
        false
    }

    fn merge(&mut self, other: Tally) {
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Seeded Poisson arrival offsets of one connection's share of the
/// open-loop requests, at `rate` requests/s over all connections.
fn schedule(seed: u64, conn: usize, rate: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5eed_0000 + conn as u64));
    let mean_gap = CONNECTIONS as f64 / rate;
    let mut t = 0.0;
    (0..OPEN_REQUESTS / CONNECTIONS)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln() * mean_gap;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// One connection's closed loop: warm-up, then back-to-back requests for
/// `span`, counting the successful ones in `done`.
fn closed_loop(
    client: &mut ServeClient,
    conn: usize,
    pool: &[(Vec<f64>, Vec<u16>)],
    span: Duration,
    done: &AtomicU64,
) -> Tally {
    let mut tally = Tally::default();
    for i in 0..WARMUP {
        tally.request(client, &pool[(i * 7 + conn) % POOL]);
    }
    let start = Instant::now();
    let mut i = conn;
    while start.elapsed() < span {
        if tally.request(client, &pool[i % POOL]) {
            done.fetch_add(1, Ordering::Relaxed);
        }
        i += CONNECTIONS;
    }
    tally
}

/// One connection's open loop: each request sent at its due time (the
/// generator sleeps until then; a spinning generator would take a core
/// from the server on a small host) and timed from it.
fn open_loop(
    client: &mut ServeClient,
    conn: usize,
    pool: &[(Vec<f64>, Vec<u16>)],
    offsets: &[Duration],
) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    for (i, offset) in offsets.iter().enumerate() {
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        tally.late_ns.push(late.as_nanos() as f64);
        tally.request(client, &pool[(i * CONNECTIONS + conn) % POOL]);
        tally
            .latency_ns
            .push(Instant::now().duration_since(due).as_nanos() as f64);
    }
    tally
}

/// Runs `f` on every client, one thread each, and merges their tallies.
fn on_every_client(
    clients: &mut [ServeClient],
    f: impl Fn(usize, &mut ServeClient) -> Tally + Sync,
) -> Tally {
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let f = &f;
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| scope.spawn(move || f(c, client)))
            .collect();
        for t in threads {
            total.merge(t.join().expect("generator thread panicked"));
        }
    });
    total
}

/// Serves the paper policy in-process: `sat_span` of closed loop, then
/// `OPEN_REQUESTS` open-loop arrivals at `OPEN_LOAD` of the measured
/// saturation, checking every reply against the reference path. Appends
/// the serving layer metrics.
pub fn serve_layers(seed: u64, sat_span: Duration, out: &mut Outcome) -> Result<(), String> {
    let reference = policy(seed)?;
    let mut stream = ObsStream::new("single-hop", seed).map_err(|e| e.to_string())?;
    let pool: Vec<(Vec<f64>, Vec<u16>)> = (0..POOL)
        .map(|_| {
            let obs = stream.next_observation();
            let want = reference.act(&obs).map_err(|e| e.to_string())?;
            Ok((obs, want.into_iter().map(|a| a as u16).collect()))
        })
        .collect::<Result<_, String>>()?;

    let (handle, mut clients) = start(seed)?;
    let done = AtomicU64::new(0);
    let closed = on_every_client(&mut clients, |c, client| {
        closed_loop(client, c, &pool, sat_span, &done)
    });
    let sat_rps = done.load(Ordering::Relaxed) as f64 / sat_span.as_secs_f64();
    let schedules: Vec<Vec<Duration>> = (0..CONNECTIONS)
        .map(|c| schedule(seed, c, (OPEN_LOAD * sat_rps).max(1.0)))
        .collect();
    let mut open = on_every_client(&mut clients, |c, client| {
        open_loop(client, c, &pool, &schedules[c])
    });
    drop(clients);
    let report = handle.shutdown();

    out.attempted += closed.attempted + open.attempted;
    out.failed += closed.failed + open.failed;
    out.problems.extend(closed.problems);
    out.problems.extend(std::mem::take(&mut open.problems));
    out.metric(
        "wall.act_p50_us",
        quantile(&open.latency_ns, 0.5) / 1e3,
        "us",
    );
    out.metric(
        "wall.act_p99_us",
        quantile(&open.latency_ns, 0.99) / 1e3,
        "us",
    );
    out.metric("wall.act_sat_rps", sat_rps, "1/s");
    out.metric("serve.batch_hist_p50_us", report.batch_hist.p50_us(), "us");
    out.metric(
        "serve.mean_batch",
        report.requests_served as f64 / report.batches_executed.max(1) as f64,
        "requests",
    );
    out.metric(
        "serve.gen_late_us_p99",
        quantile(&open.late_ns, 0.99) / 1e3,
        "us",
    );
    out.metric("count.requests", open.latency_ns.len() as f64, "count");
    Ok(())
}
