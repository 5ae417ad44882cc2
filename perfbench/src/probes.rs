//! Layer probes: each times calls into one public function of one module,
//! on inputs shaped like the paper cell's (4 agents, 4 qubits, T = 100).

use std::hint::black_box;
use std::io::Cursor;
use std::time::Duration;

use qmarl_core::prelude::*;
use qmarl_qsim::par::{default_workers, parallel_map};
use qmarl_qsim::shots::measure_shots;
use qmarl_runtime::batch::{AdjointGroup, PreboundGroup};
use qmarl_runtime::prebound::{prebind, prebind_adjoint, run_prebound};
use qmarl_serve::protocol::{read_frame, write_frame, Request, Response};
use qmarl_serve::stream::ObsStream;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median_secs, per_call_us, Outcome};

/// Wall-time budget of each per-call probe.
const PROBE_BUDGET: Duration = Duration::from_millis(300);
/// Repetitions of each batch probe (median reported).
const BATCH_REPS: usize = 5;

/// The paper cell's actors on `backend`, split into their circuit
/// parameters, plus `rows` scaled per-agent inputs from the scenario's
/// observation stream.
struct Fixture {
    actors: Vec<Box<dyn Actor>>,
    inputs: Vec<Vec<Vec<f64>>>,
}

impl Fixture {
    fn new(backend: &ExecutionBackend, seed: u64, rows: usize) -> Result<Fixture, String> {
        let train = TrainConfig {
            seed,
            ..TrainConfig::paper_default()
        };
        let actors = build_scenario_actors(FrameworkKind::Proposed, "single-hop", backend, &train)
            .map_err(|e| e.to_string())?;
        let mut stream = ObsStream::new("single-hop", seed).map_err(|e| e.to_string())?;
        let (compiled, _) = actors[0].runtime_handle().ok_or("actor is not compiled")?;
        let scaling = compiled.model().input_scaling();
        let od = actors[0].obs_dim();
        let mut inputs = vec![Vec::with_capacity(rows); actors.len()];
        for _ in 0..rows {
            let obs = stream.next_observation();
            for (n, per_agent) in inputs.iter_mut().enumerate() {
                per_agent.push(
                    obs[n * od..(n + 1) * od]
                        .iter()
                        .map(|&x| scaling.apply(x))
                        .collect(),
                );
            }
        }
        Ok(Fixture { actors, inputs })
    }

    /// Each actor's compiled model and circuit-parameter segment.
    fn circuits(&self) -> Vec<(&qmarl_runtime::qnn::CompiledVqc, &[f64])> {
        self.actors
            .iter()
            .map(|a| {
                let (compiled, params) = a.runtime_handle().expect("quantum actor");
                let (circuit, _, _) = compiled.model().split_params(params).expect("own params");
                (compiled, circuit)
            })
            .collect()
    }
}

/// Runs every layer probe and appends its metric.
pub fn run(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let items = [1u64, 2, 3, 4];
    let workers = default_workers();
    let dispatch_us = per_call_us(PROBE_BUDGET, || {
        black_box(parallel_map(&items, workers, |i, x| x + i as u64));
    });
    out.metric("qsim.par.dispatch_us", dispatch_us, "us");

    let ideal = Fixture::new(&ExecutionBackend::Ideal, seed, 100)?;
    let circuits = ideal.circuits();
    let executor = circuits[0].0.executor();
    let readout = circuits[0].0.model().readout();

    let prebound = circuits
        .iter()
        .map(|(c, p)| prebind(c.compiled(), p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let state = run_prebound(&prebound[0], &ideal.inputs[0][0]).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let sample_us = per_call_us(PROBE_BUDGET, || {
        black_box(measure_shots(&state, 128, &mut rng).expect("shots > 0"));
    });
    out.metric("qsim.shots.sample_us", sample_us, "us");

    let tick: Vec<PreboundGroup<'_>> = prebound
        .iter()
        .zip(&ideal.inputs)
        .map(|(circuit, rows)| PreboundGroup {
            circuit,
            inputs: vec![rows[0].as_slice()],
        })
        .collect();
    let fwd_us = per_call_us(PROBE_BUDGET, || {
        black_box(
            executor
                .expectation_batch_prebound(readout, &tick)
                .expect("valid tick"),
        );
    });
    out.metric("runtime.fwd_tick_us", fwd_us, "us");

    let adjoint = circuits
        .iter()
        .map(|(c, p)| prebind_adjoint(c.compiled(), p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let groups: Vec<AdjointGroup<'_>> = adjoint
        .iter()
        .zip(&ideal.inputs)
        .map(|(circuit, rows)| AdjointGroup {
            circuit,
            inputs: rows.iter().map(Vec::as_slice).collect(),
        })
        .collect();
    let adjoint_s = median_secs(BATCH_REPS, || {
        black_box(
            executor
                .forward_and_jacobian_batch_prebound(readout, &groups)
                .expect("valid batch"),
        );
    });
    out.metric("runtime.adjoint_batch_ms", adjoint_s * 1e3, "ms");

    let backend: ExecutionBackend = format!("sampled:shots=128:seed={seed}")
        .parse()
        .map_err(|e| format!("{e}"))?;
    let sampled = Fixture::new(&backend, seed, 100)?;
    let shift_s = median_secs(BATCH_REPS, || {
        for ((compiled, params), rows) in sampled.circuits().into_iter().zip(&sampled.inputs) {
            black_box(
                compiled
                    .executor()
                    .forward_and_jacobian_batch_backend(
                        compiled.compiled(),
                        compiled.model().readout(),
                        rows,
                        params,
                        compiled.backend(),
                    )
                    .expect("valid batch"),
            );
        }
    });
    out.metric("runtime.shift_batch_ms", shift_s * 1e3, "ms");

    let policy = ServablePolicy::from_actors("probe", ideal.actors).map_err(|e| e.to_string())?;
    let obs = ObsStream::new("single-hop", seed)
        .map_err(|e| e.to_string())?
        .next_observation();
    let actions: Vec<u16> = policy
        .act(&obs)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|a| a as u16)
        .collect();
    let codec_us = per_call_us(PROBE_BUDGET, || {
        black_box(codec_roundtrip(&obs, &actions));
    });
    out.metric("serve.codec_us", codec_us, "us");
    let compute_us = per_call_us(PROBE_BUDGET, || {
        black_box(policy.act_batch(&obs, 1).expect("valid request"));
    });
    out.metric("serve.batch_compute_us", compute_us, "us");
    Ok(())
}

/// The codec work of one ACT round trip, both ends: request encode,
/// frame write and read, request decode; then the same for the reply.
fn codec_roundtrip(obs: &[f64], actions: &[u16]) -> Vec<u16> {
    let request = Request::Act {
        id: 1,
        observation: obs.to_vec(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).expect("in-memory write");
    let payload = read_frame(&mut Cursor::new(wire))
        .expect("in-memory read")
        .expect("one frame");
    let Ok(Request::Act { id, .. }) = Request::decode(&payload) else {
        unreachable!("encoded an ACT request")
    };
    let reply = Response::Act {
        id,
        actions: actions.to_vec(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &reply.encode()).expect("in-memory write");
    let payload = read_frame(&mut Cursor::new(wire))
        .expect("in-memory read")
        .expect("one frame");
    match Response::decode(&payload) {
        Ok(Response::Act { actions, .. }) => actions,
        _ => unreachable!("encoded an ACT reply"),
    }
}
