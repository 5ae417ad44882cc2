//! Order statistics, the result record, and host metadata.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 10th percentile of per-operation costs. A shared host's
/// contention only adds time (IPI waits, cache pollution), so the cheapest
/// tenth of a run estimates the workload's own cost.
pub fn low_quantile(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// Median wall time in seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds `clock` has counted so far, or 0 if it cannot be read.
fn cpu_clock_secs(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by every thread of this process so far, seconds.
pub fn process_cpu_secs() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, seconds.
pub fn thread_cpu_secs() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU and wall seconds of a fixed floating-point loop that calls no code
/// of this repository, run on one thread per core: a yardstick for the
/// host's current speed.
fn yardstick_secs() -> (f64, f64) {
    let (c, t) = (process_cpu_secs(), Instant::now());
    std::thread::scope(|scope| {
        for _ in 0..qmarl_qsim::par::default_workers() {
            scope.spawn(|| {
                let mut amps = [(0.6f64, 0.1f64); 16];
                for _ in 0..150_000 {
                    for a in &mut amps {
                        let (re, im) = *a;
                        *a = (re * 0.9998 - im * 0.02, re * 0.02 + im * 0.9998);
                    }
                    std::hint::black_box(&mut amps);
                }
            });
        }
    });
    (process_cpu_secs() - c, t.elapsed().as_secs_f64())
}

/// The yardstick's CPU and wall seconds on a quiet 2-vCPU host of the kind
/// this benchmark was built on: normalised times are reported at this
/// speed.
const YARDSTICK_REF_SECS: (f64, f64) = (0.006, 0.0035);

/// How much slower than the reference the host ran over an operation, by
/// the yardstick's CPU time and by its wall time.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    pub cpu: f64,
    pub wall: f64,
}

/// Seconds the hypervisor has run something else while this virtual
/// machine's CPUs were ready (steal), per CPU, from `/proc/stat`; 0 where
/// that cannot be read. The kernel counts it in 1/100 s ticks.
pub fn steal_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let cpus = stat.lines().filter(|l| l.starts_with("cpu")).count() - 1;
    stat.lines()
        .next()
        .and_then(|total| total.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0 / cpus.max(1) as f64)
}

/// Runs `f` between two yardstick runs and returns its result with the
/// host's slowdown meanwhile (yardstick time ÷ its reference). Co-tenants
/// on a shared host slow every instruction (SMT siblings, caches,
/// frequency) and, in wall time, take whole cores away (steal); dividing a
/// time by the matching factor cancels most of that, while a change to the
/// code under test moves the quotient.
pub fn host_slowdown<R>(f: impl FnOnce() -> R) -> (R, Slowdown) {
    let before = yardstick_secs();
    let out = f();
    let after = yardstick_secs();
    let slowdown = Slowdown {
        cpu: (before.0 + after.0) / 2.0 / YARDSTICK_REF_SECS.0,
        wall: (before.1 + after.1) / 2.0 / YARDSTICK_REF_SECS.1,
    };
    (out, slowdown)
}

/// Median per-call time in microseconds of `f`, over batches of calls
/// sized so each batch takes about a millisecond, for `budget` overall.
pub fn per_call_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-8);
    let calls = ((1e-3 / one) as usize).max(1);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    median(&samples)
}

/// FNV-1a over the `Debug` rendering of a value: `f64` fields render in
/// shortest round-trip form, so equal fingerprints mean bit-equal data.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    qmarl_chaos::fnv1a(format!("{value:?}").as_bytes())
}

/// One metric as printed: name, value, unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: operation counts, failed checks, metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Counts derived from batch sizes rather than counted at a call
    /// boundary.
    pub computed: Vec<&'static str>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked operation; a failed check is kept by message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `{}` prints (non-finite values, which
/// JSON cannot hold, print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line `program args…` prints, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Run metadata as one JSON object: schema version, host and toolchain.
/// Outside a git checkout the revision reads "unknown"; the source hash
/// (FNV-1a over every file under `crates/`) still identifies the code.
pub fn metadata_json(
    workload: &str,
    seed: u64,
    input_seed: u64,
    seconds: u64,
    trace: bool,
) -> String {
    let nproc = qmarl_qsim::par::default_workers();
    let simd = format!("{:?}", qmarl_qsim::simd::level());
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let rustc = command_line("rustc", &["--version"]);
    format!(
        "{{\"schema\": {SCHEMA_VERSION}, \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"input_seed\": {input_seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {nproc}, \"simd\": \"{simd}\", \
         \"git_rev\": \"{rev}\", \"source_fnv\": \"{:016x}\", \"rustc\": \"{rustc}\"}}",
        source_hash("crates")
    )
}

/// Version of the printed record layout.
const SCHEMA_VERSION: u32 = 1;

/// FNV-1a over the relative paths and contents of every file under
/// `root`, in sorted order; 0 when `root` is missing.
fn source_hash(root: &str) -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new(root), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    qmarl_chaos::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
