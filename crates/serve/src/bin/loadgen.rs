//! Load generator for the policy server: replay scenario-distributed
//! observation streams at a configured offered load, sweep batch
//! windows and backends, and emit `BENCH_serve.json`.
//!
//! ```text
//! loadgen [--scenario single-hop] [--framework proposed]
//!         [--backends ideal[,sampled:shots=64:seed=3]]
//!         [--loads 1000,32000]        offered requests/s per cell
//!         [--windows-us 0,1000]       batch windows to sweep (0 = no coalescing)
//!         [--clients 8] [--duration-ms 2000] [--max-batch 64]
//!         [--faults faults:drop=0.01:torn=0.005:seed=9]  inject server faults
//!         [--seed 7] [--out BENCH_serve.json]
//! ```
//!
//! With `--faults`, the server runs under the given seeded fault plan
//! and every client retries transient failures (capped exponential
//! backoff); the per-cell retry/shed/give-up counts land in the output
//! alongside the server's shed/deadline/fault counters. A plan with
//! `poison=<rate>` makes the clients themselves send that share of
//! requests with one feature set to NaN, ±inf or 1e300
//! ([`FaultPlan::poison_observation`]); the output counts them and how
//! many were refused (`poisoned`, `poison_refused`), and `errors` counts
//! only the failures of unpoisoned requests.
//!
//! Each cell starts a fresh in-process server, drives it with `clients`
//! paced connections (per-client pacing at `load / clients`; when the
//! server cannot keep up the clients degrade to closed-loop, measuring
//! max throughput), merges per-client latency histograms and records the
//! server's drain report. `QMARL_BENCH_QUICK=1` shrinks the defaults for
//! CI smoke runs.

use std::time::{Duration, Instant};

use qmarl_core::prelude::*;
use qmarl_serve::prelude::*;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    let flag = format!("--{key}");
    let prefix = format!("--{key}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if *a == flag {
            return it.next().cloned();
        }
    }
    None
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|_| format!("bad {what} entry {p:?}"))
        })
        .collect()
}

struct Cell {
    backend: String,
    window_us: u64,
    offered_rps: u64,
    completed: u64,
    errors: u64,
    poisoned: u64,
    poison_refused: u64,
    achieved_rps: f64,
    actions_per_s: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    latency_mean_us: f64,
    batches: u64,
    mean_batch: f64,
    batch_p50_us: f64,
    batch_p99_us: f64,
    retries: u64,
    client_sheds: u64,
    gave_up: u64,
    server_shed: u64,
    deadline_expired: u64,
    corrupt_skips: u64,
    faults_injected: u64,
}

/// One client's tally over a cell.
#[derive(Default)]
struct ClientTally {
    hist: LatencyHistogram,
    completed: u64,
    errors: u64,
    poisoned: u64,
    poison_refused: u64,
    retry: RetryStats,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    kind: FrameworkKind,
    scenario: &str,
    backend_str: &str,
    window_us: u64,
    offered_rps: u64,
    clients: usize,
    duration: Duration,
    max_batch: usize,
    seed: u64,
    faults: Option<FaultPlan>,
) -> Result<Cell, String> {
    let backend: ExecutionBackend = backend_str
        .parse()
        .map_err(|e| format!("backend {backend_str:?}: {e}"))?;
    let train = TrainConfig::paper_default();
    let actors = build_scenario_actors(kind, scenario, &backend, &train)
        .map_err(|e| format!("actor build: {e}"))?;
    let policy = ServablePolicy::from_actors(&format!("{kind}@{scenario}"), actors)
        .map_err(|e| format!("policy: {e}"))?;
    let n_agents = policy.n_agents() as u64;

    let handle = serve(
        policy,
        ServerConfig {
            batch: BatchConfig {
                window: Duration::from_micros(window_us),
                max_batch,
                ..BatchConfig::default()
            },
            faults,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();

    let per_client_rps = (offered_rps as f64 / clients as f64).max(1.0);
    let interval = Duration::from_nanos((1.0e9 / per_client_rps) as u64);
    let start = Instant::now();
    let end = start + duration;

    let retry_clients = faults.is_some();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let scenario = scenario.to_string();
            std::thread::spawn(move || -> Result<ClientTally, String> {
                let mut stream = ObsStream::new(&scenario, seed.wrapping_add(c as u64))
                    .map_err(|e| e.to_string())?;
                let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
                if retry_clients {
                    client = client
                        .with_retry(RetryPolicy::default(), seed.wrapping_add(1000 + c as u64));
                }
                let mut tally = ClientTally::default();
                let mut next_due = Instant::now();
                let mut request = 0u64;
                while Instant::now() < end {
                    let now = Instant::now();
                    if now < next_due {
                        std::thread::sleep(next_due - now);
                    }
                    next_due += interval;
                    let mut obs = stream.next_observation();
                    let key = FaultPlan::key2(c as u64, request);
                    request += 1;
                    let poisoned = faults
                        .and_then(|plan| plan.poison_observation(key, &mut obs))
                        .is_some();
                    tally.poisoned += u64::from(poisoned);
                    let t0 = Instant::now();
                    match client.act(&obs) {
                        Ok(_) => {
                            let elapsed = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            tally.hist.record(elapsed);
                            tally.completed += 1;
                        }
                        Err(_) if poisoned => tally.poison_refused += 1,
                        Err(_) => tally.errors += 1,
                    }
                }
                tally.retry = client.retry_stats();
                Ok(tally)
            })
        })
        .collect();

    let mut total = ClientTally::default();
    for w in workers {
        let t = w
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        total.hist.merge(&t.hist);
        total.completed += t.completed;
        total.errors += t.errors;
        total.poisoned += t.poisoned;
        total.poison_refused += t.poison_refused;
        total.retry.retries += t.retry.retries;
        total.retry.sheds += t.retry.sheds;
        total.retry.gave_up += t.retry.gave_up;
    }
    let ClientTally {
        hist,
        completed,
        errors,
        poisoned,
        poison_refused,
        retry: retry_stats,
    } = total;
    let elapsed = start.elapsed().as_secs_f64();
    let report = handle.shutdown();

    Ok(Cell {
        backend: backend_str.to_string(),
        window_us,
        offered_rps,
        completed,
        errors,
        poisoned,
        poison_refused,
        achieved_rps: completed as f64 / elapsed,
        actions_per_s: (completed * n_agents) as f64 / elapsed,
        latency_p50_us: hist.p50_us(),
        latency_p99_us: hist.p99_us(),
        latency_mean_us: hist.mean_ns() / 1_000.0,
        batches: report.batches_executed,
        mean_batch: if report.batches_executed == 0 {
            0.0
        } else {
            report.requests_served as f64 / report.batches_executed as f64
        },
        batch_p50_us: report.batch_hist.p50_us(),
        batch_p99_us: report.batch_hist.p99_us(),
        retries: retry_stats.retries,
        client_sheds: retry_stats.sheds,
        gave_up: retry_stats.gave_up,
        server_shed: report.requests_shed,
        deadline_expired: report.deadline_expired,
        corrupt_skips: report.corrupt_skips,
        faults_injected: report.faults_injected,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = std::env::var("QMARL_BENCH_QUICK").is_ok();

    let scenario = arg_value(&args, "scenario").unwrap_or_else(|| "single-hop".into());
    let framework = arg_value(&args, "framework").unwrap_or_else(|| "proposed".into());
    let backends = arg_value(&args, "backends").unwrap_or_else(|| "ideal".into());
    let loads = arg_value(&args, "loads").unwrap_or_else(|| {
        if quick {
            "500,4000".into()
        } else {
            "1000,32000".into()
        }
    });
    let windows = arg_value(&args, "windows-us").unwrap_or_else(|| "0,1000".into());
    let clients: usize = arg_value(&args, "clients")
        .map(|v| v.parse().expect("--clients"))
        .unwrap_or(8);
    let duration_ms: u64 = arg_value(&args, "duration-ms")
        .map(|v| v.parse().expect("--duration-ms"))
        .unwrap_or(if quick { 400 } else { 2000 });
    let max_batch: usize = arg_value(&args, "max-batch")
        .map(|v| v.parse().expect("--max-batch"))
        .unwrap_or(64);
    let seed: u64 = arg_value(&args, "seed")
        .map(|v| v.parse().expect("--seed"))
        .unwrap_or(7);
    let faults_str = arg_value(&args, "faults");
    let faults: Option<FaultPlan> = faults_str.as_deref().map(|s| {
        s.parse().unwrap_or_else(|e| {
            eprintln!("bad --faults: {e}");
            std::process::exit(2);
        })
    });
    let out = arg_value(&args, "out").unwrap_or_else(|| "BENCH_serve.json".into());

    let kind: FrameworkKind = framework.parse().unwrap_or_else(|e| {
        eprintln!("bad --framework: {e}");
        std::process::exit(2);
    });
    let backends: Vec<String> = backends
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let loads: Vec<u64> = parse_list(&loads, "load").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let windows: Vec<u64> = parse_list(&windows, "window").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let mut cells = Vec::new();
    for backend in &backends {
        for &window_us in &windows {
            for &load in &loads {
                eprintln!(
                    "cell: backend={backend} window={window_us}us load={load}rps \
                     clients={clients} duration={duration_ms}ms"
                );
                match run_cell(
                    kind,
                    &scenario,
                    backend,
                    window_us,
                    load,
                    clients,
                    Duration::from_millis(duration_ms),
                    max_batch,
                    seed,
                    faults,
                ) {
                    Ok(cell) => {
                        eprintln!(
                            "  -> {:.0} req/s, {:.0} actions/s, p50 {:.0}us p99 {:.0}us, \
                             mean batch {:.2}, errors {}, poisoned {} (refused {}), \
                             retries {}, shed {}, deadline-expired {}, corrupt-skips {}, \
                             faults {}",
                            cell.achieved_rps,
                            cell.actions_per_s,
                            cell.latency_p50_us,
                            cell.latency_p99_us,
                            cell.mean_batch,
                            cell.errors,
                            cell.poisoned,
                            cell.poison_refused,
                            cell.retries,
                            cell.server_shed,
                            cell.deadline_expired,
                            cell.corrupt_skips,
                            cell.faults_injected
                        );
                        cells.push(cell);
                    }
                    Err(e) => {
                        eprintln!("cell failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve\",\n");
    json.push_str("  \"schema\": 2,\n");
    json.push_str(&format!(
        "  \"faults\": {},\n",
        match &faults_str {
            Some(f) => format!("\"{f}\""),
            None => "null".to_string(),
        }
    ));
    json.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
    json.push_str(&format!("  \"framework\": \"{framework}\",\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"duration_ms\": {duration_ms},\n"));
    json.push_str(&format!("  \"max_batch\": {max_batch},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"backend\": \"{}\",\n", c.backend));
        json.push_str(&format!("      \"window_us\": {},\n", c.window_us));
        json.push_str(&format!("      \"offered_rps\": {},\n", c.offered_rps));
        json.push_str(&format!("      \"completed\": {},\n", c.completed));
        json.push_str(&format!("      \"errors\": {},\n", c.errors));
        json.push_str(&format!("      \"poisoned\": {},\n", c.poisoned));
        json.push_str(&format!(
            "      \"poison_refused\": {},\n",
            c.poison_refused
        ));
        json.push_str(&format!("      \"achieved_rps\": {:.3},\n", c.achieved_rps));
        json.push_str(&format!(
            "      \"actions_per_s\": {:.3},\n",
            c.actions_per_s
        ));
        json.push_str(&format!(
            "      \"latency_p50_us\": {:.3},\n",
            c.latency_p50_us
        ));
        json.push_str(&format!(
            "      \"latency_p99_us\": {:.3},\n",
            c.latency_p99_us
        ));
        json.push_str(&format!(
            "      \"latency_mean_us\": {:.3},\n",
            c.latency_mean_us
        ));
        json.push_str(&format!("      \"batches\": {},\n", c.batches));
        json.push_str(&format!("      \"mean_batch\": {:.3},\n", c.mean_batch));
        json.push_str(&format!("      \"batch_p50_us\": {:.3},\n", c.batch_p50_us));
        json.push_str(&format!("      \"batch_p99_us\": {:.3},\n", c.batch_p99_us));
        json.push_str(&format!("      \"retries\": {},\n", c.retries));
        json.push_str(&format!("      \"client_sheds\": {},\n", c.client_sheds));
        json.push_str(&format!("      \"gave_up\": {},\n", c.gave_up));
        json.push_str(&format!("      \"server_shed\": {},\n", c.server_shed));
        json.push_str(&format!(
            "      \"deadline_expired\": {},\n",
            c.deadline_expired
        ));
        json.push_str(&format!("      \"corrupt_skips\": {},\n", c.corrupt_skips));
        json.push_str(&format!(
            "      \"faults_injected\": {}\n",
            c.faults_injected
        ));
        json.push_str(if i + 1 == cells.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("writing {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out} ({} cells)", cells.len());
}
