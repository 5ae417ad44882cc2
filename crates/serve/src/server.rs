//! The TCP policy server: accept loop, per-connection handlers, and
//! graceful drain.
//!
//! Topology: one non-blocking accept thread, one handler thread per
//! connection, one batcher thread ([`crate::batcher::run_batcher`]).
//! Handlers decode frames, enqueue ACT jobs on the batcher's channel and
//! block on the per-job reply channel; INFO requests are answered
//! directly from the [`PolicySlot`] and [`ServeStats`] without touching
//! the batch path.
//!
//! Shutdown ([`ServerHandle::shutdown`]) is a drain, not an abort:
//!
//! 1. the accept thread stops (no new connections) and drops its job
//!    sender;
//! 2. every open connection's **read** side is shut down, so handlers
//!    finish the request they are on — the batcher still answers it and
//!    the response still goes out the intact write side — then see EOF
//!    and exit, dropping their senders;
//! 3. with every sender gone the batcher drains the queue and exits.
//!
//! No request that reached the server is dropped; the returned
//! [`DrainReport`] carries the final counters and the service-time
//! histogram.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qmarl_chaos::{site, FaultPlan};
use qmarl_core::serving::ServablePolicy;

use crate::batcher::{run_batcher, BatchConfig, Job, JobError, PolicySlot, ServeStats};
use crate::error::ServeError;
use crate::hist::LatencyHistogram;
use crate::protocol::{read_frame, write_frame, Request, Response, ServerInfo};

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: SocketAddr,
    /// Micro-batching knobs for the single batcher thread.
    pub batch: BatchConfig,
    /// Concurrent-connection bound; connections past it are answered
    /// BUSY and closed at accept. Zero means unlimited.
    pub max_conns: usize,
    /// How often the accept loop polls for the stop flag. Tests widen
    /// this to force the shutdown race deterministically.
    pub accept_poll: Duration,
    /// Seeded fault injection. `None` (the default) is fully inert:
    /// every seam is a single `Option` test on the fault-free path.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            batch: BatchConfig::default(),
            max_conns: 0,
            accept_poll: Duration::from_millis(5),
            faults: None,
        }
    }
}

/// Final counters returned by a graceful shutdown.
#[derive(Debug)]
pub struct DrainReport {
    /// ACT requests answered successfully over the server's lifetime.
    pub requests_served: u64,
    /// Micro-batches executed.
    pub batches_executed: u64,
    /// Requests rejected with an error reply.
    pub requests_rejected: u64,
    /// Requests shed with BUSY (queue or connection budget full).
    pub requests_shed: u64,
    /// Requests answered BUSY after expiring in the queue.
    pub deadline_expired: u64,
    /// Torn/corrupt checkpoints the watcher skipped.
    pub corrupt_skips: u64,
    /// Faults injected by the configured plan (zero without one).
    pub faults_injected: u64,
    /// Hot-swaps applied.
    pub policy_swaps: u64,
    /// Per-batch service time (execution only, not queueing).
    pub batch_hist: LatencyHistogram,
}

/// A running policy server.
///
/// Dropping the handle without calling [`ServerHandle::shutdown`] leaks
/// the serving threads for the rest of the process — always shut down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    slot: Arc<PolicySlot>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swap slot; share it with a
    /// [`crate::watch::spawn_watcher`] or swap programmatically.
    pub fn slot(&self) -> &Arc<PolicySlot> {
        &self.slot
    }

    /// Atomically replace the serving policy (bumps the version).
    pub fn swap_policy(&self, next: ServablePolicy) {
        self.slot.swap(next);
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Stop accepting, drain every queued and in-flight request, join
    /// all threads and return the final counters.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Close only the *read* side: handlers finish the request they
        // are serving (the response still goes out), then see EOF.
        for conn in crate::sync::lock(&self.conns).iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let handlers = std::mem::take(&mut *crate::sync::lock(&self.handlers));
        for t in handlers {
            let _ = t.join();
        }
        // Every job sender is gone now; the batcher drains and exits.
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
        DrainReport {
            requests_served: self.stats.requests_served.load(Ordering::SeqCst),
            batches_executed: self.stats.batches_executed.load(Ordering::SeqCst),
            requests_rejected: self.stats.requests_rejected.load(Ordering::SeqCst),
            requests_shed: self.stats.requests_shed.load(Ordering::SeqCst),
            deadline_expired: self.stats.deadline_expired.load(Ordering::SeqCst),
            corrupt_skips: self.stats.corrupt_skips.load(Ordering::SeqCst),
            faults_injected: self.stats.faults_injected.load(Ordering::SeqCst),
            policy_swaps: self.slot.swaps(),
            batch_hist: crate::sync::lock(&self.stats.batch_hist).clone(),
        }
    }
}

/// Start serving `policy` on `config.addr`.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for bad batch knobs and
/// [`ServeError::Io`] when the bind fails.
pub fn serve(policy: ServablePolicy, config: ServerConfig) -> Result<ServerHandle, ServeError> {
    config.batch.validate()?;
    if let Some(plan) = &config.faults {
        plan.validate()
            .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
    }
    if config.accept_poll.is_zero() {
        return Err(ServeError::InvalidConfig(
            "accept_poll must be non-zero".into(),
        ));
    }
    let listener = TcpListener::bind(config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let slot = Arc::new(PolicySlot::new(policy));
    let stats = Arc::new(ServeStats::new());
    let stop = Arc::new(AtomicBool::new(false));
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let batcher_thread = {
        let (slot, stats, batch) = (slot.clone(), stats.clone(), config.batch);
        let faults = config.faults;
        std::thread::spawn(move || run_batcher(job_rx, slot, stats, batch, faults))
    };

    let accept_thread = {
        let (slot, stats, stop) = (slot.clone(), stats.clone(), stop.clone());
        let (handlers, conns) = (handlers.clone(), conns.clone());
        let cfg = ConnConfig {
            batch: config.batch,
            faults: config.faults,
        };
        let max_conns = config.max_conns;
        let accept_poll = config.accept_poll;
        std::thread::spawn(move || {
            // `job_tx` lives here and is cloned per connection; when this
            // thread and every handler exit, the batcher sees disconnect.
            let active = Arc::new(AtomicUsize::new(0));
            let mut next_conn_id: u64 = 0;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        if max_conns > 0 && active.load(Ordering::SeqCst) >= max_conns {
                            // Over the connection budget: shed with a
                            // typed BUSY frame instead of queueing work
                            // we cannot serve promptly.
                            stats.requests_shed.fetch_add(1, Ordering::SeqCst);
                            let busy = Response::Busy {
                                id: 0,
                                queue_depth: stats.queue_depth.load(Ordering::SeqCst),
                            };
                            let _ = write_frame(&mut stream, &busy.encode());
                            continue;
                        }
                        if let Ok(clone) = stream.try_clone() {
                            crate::sync::lock(&conns).push(clone);
                        }
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        active.fetch_add(1, Ordering::SeqCst);
                        let (slot, stats, tx) = (slot.clone(), stats.clone(), job_tx.clone());
                        let (cfg, active) = (cfg, active.clone());
                        let t = std::thread::spawn(move || {
                            handle_conn(stream, conn_id, tx, slot, stats, cfg);
                            active.fetch_sub(1, Ordering::SeqCst);
                        });
                        crate::sync::lock(&handlers).push(t);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(accept_poll);
                    }
                    Err(_) => break,
                }
            }
            // Shutdown race: connections that reached the listen backlog
            // before the stop flag was checked would otherwise be reset
            // silently when the listener drops. Drain them with a typed
            // ERROR frame so those clients see a refusal, not a hang-up.
            while let Ok((mut stream, _peer)) = listener.accept() {
                let refusal = Response::Error {
                    id: 0,
                    message: "server is draining and no longer accepts connections".into(),
                };
                let _ = write_frame(&mut stream, &refusal.encode());
            }
        })
    };

    Ok(ServerHandle {
        addr,
        slot,
        stats,
        stop,
        accept_thread: Some(accept_thread),
        batcher_thread: Some(batcher_thread),
        handlers,
        conns,
    })
}

/// Per-connection slice of the server configuration.
#[derive(Debug, Clone, Copy)]
struct ConnConfig {
    batch: BatchConfig,
    faults: Option<FaultPlan>,
}

/// Serve one connection until EOF or a fatal socket error.
fn handle_conn(
    mut stream: TcpStream,
    conn_id: u64,
    job_tx: Sender<Job>,
    slot: Arc<PolicySlot>,
    stats: Arc<ServeStats>,
    cfg: ConnConfig,
) {
    let mut frame_idx: u64 = 0;
    loop {
        let key = FaultPlan::key2(conn_id, frame_idx);
        frame_idx += 1;
        // Injected stall: the server goes quiet before its next read, as
        // a wedged peer or a saturated NIC would.
        if let Some(plan) = &cfg.faults {
            if plan.fires(plan.stall, site::CONN_STALL, key) {
                stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(plan.stall_duration());
            }
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // clean close, torn frame or reset
        };
        // Injected drop: the connection dies right after the request was
        // read — the worst spot, because the client cannot tell whether
        // the work happened. Retried ACTs stay safe because action
        // selection is deterministic for a policy version.
        if let Some(plan) = &cfg.faults {
            if plan.fires(plan.drop, site::CONN_DROP, key) {
                stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
        let response = match Request::decode(&payload) {
            Ok(Request::Act { id, observation }) => {
                // A NaN or ±inf feature has no meaning as a circuit angle:
                // refuse it here, with a typed ERROR, before it can reach
                // the batcher and the policy.
                match observation.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                    Some((i, v)) => {
                        stats.requests_rejected.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            id,
                            message: format!("observation value {i} is {v}; it must be finite"),
                        }
                    }
                    None => act_via_batcher(id, observation, &job_tx, &stats, &cfg.batch),
                }
            }
            Ok(Request::Info { id }) => {
                let policy = slot.current();
                Response::Info {
                    id,
                    info: ServerInfo {
                        n_agents: policy.n_agents() as u32,
                        obs_dim: policy.obs_dim() as u32,
                        n_actions: policy.n_actions() as u32,
                        policy_version: slot.version(),
                        requests_served: stats.requests_served.load(Ordering::Relaxed),
                        batches_executed: stats.batches_executed.load(Ordering::Relaxed),
                        policy_swaps: slot.swaps(),
                        requests_shed: stats.requests_shed.load(Ordering::Relaxed),
                        deadline_expired: stats.deadline_expired.load(Ordering::Relaxed),
                        corrupt_skips: stats.corrupt_skips.load(Ordering::Relaxed),
                        queue_depth: stats.queue_depth.load(Ordering::Relaxed),
                    },
                }
            }
            Err(e) => Response::Error {
                id: 0,
                message: e.to_string(),
            },
        };
        // Injected torn write: the length prefix promises a full frame
        // but only half the payload arrives before the connection dies.
        if let Some(plan) = &cfg.faults {
            if plan.fires(plan.torn, site::CONN_TORN, key) {
                stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                let payload = response.encode();
                let mut torn = Vec::with_capacity(4 + payload.len() / 2);
                torn.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                torn.extend_from_slice(&payload[..payload.len() / 2]);
                let _ = stream.write_all(&torn);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// Enqueue one ACT job and block for its reply, shedding at admission
/// when the queue is at its configured bound.
fn act_via_batcher(
    id: u64,
    observation: Vec<f64>,
    job_tx: &Sender<Job>,
    stats: &ServeStats,
    batch: &BatchConfig,
) -> Response {
    let depth = stats.queue_depth.load(Ordering::SeqCst);
    if batch.max_queue > 0 && depth >= batch.max_queue as u64 {
        stats.requests_shed.fetch_add(1, Ordering::SeqCst);
        return Response::Busy {
            id,
            queue_depth: depth,
        };
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        observation,
        enqueued_at: Instant::now(),
        reply: reply_tx,
    };
    // Gauge up *before* the send so the batcher's pickup decrement can
    // never observe the job without its increment.
    stats.queue_depth.fetch_add(1, Ordering::SeqCst);
    if job_tx.send(job).is_err() {
        let _ = stats
            .queue_depth
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            });
        return Response::Error {
            id,
            message: "server is shutting down".into(),
        };
    }
    stats.requests_enqueued.fetch_add(1, Ordering::SeqCst);
    match reply_rx.recv() {
        Ok(Ok(actions)) => Response::Act { id, actions },
        Ok(Err(JobError::Expired)) => Response::Busy {
            id,
            queue_depth: stats.queue_depth.load(Ordering::SeqCst),
        },
        Ok(Err(JobError::Failed(message))) => Response::Error { id, message },
        Err(_) => Response::Error {
            id,
            message: "server is shutting down".into(),
        },
    }
}
