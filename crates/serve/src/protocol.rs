//! Wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message is one frame: a `u32` little-endian payload length
//! followed by the payload. The first payload byte is an opcode:
//!
//! | opcode | direction | layout after the opcode |
//! |--------|-----------|-------------------------|
//! | `0x01` ACT   | client → server | `req_id:u64` `n_obs:u32` `n_obs × f64` |
//! | `0x02` INFO  | client → server | `req_id:u64` |
//! | `0x81` ACT-OK| server → client | `req_id:u64` `n_agents:u32` `n_agents × u16` actions |
//! | `0x82` INFO-OK| server → client | `req_id:u64` `n_agents:u32` `obs_dim:u32` `n_actions:u32` `policy_version:u64` `requests_served:u64` `batches_executed:u64` `policy_swaps:u64` `requests_shed:u64` `deadline_expired:u64` `corrupt_skips:u64` `queue_depth:u64` |
//! | `0x83` BUSY  | server → client | `req_id:u64` `queue_depth:u64` |
//! | `0xEE` ERROR | server → client | `req_id:u64` utf-8 message |
//!
//! BUSY is the overload-shedding reply: the request was **not** queued
//! (queue or connection budget full) and the client should back off and
//! retry. ERROR means the request itself was rejected — retrying the
//! same bytes is pointless.
//!
//! All integers and floats are little-endian. Observations are the
//! concatenated per-agent features (`n_agents × obs_dim` values), the
//! same flat layout [`qmarl_core::serving::ServablePolicy::act`] takes.
//! Every value must be finite: the server answers an ACT carrying a NaN
//! or ±inf with ERROR and never queues it. Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before allocation so a corrupt length
//! prefix cannot balloon memory.

use std::io::{Read, Write};
use std::net::TcpStream;

use rand::{Rng, SeedableRng};

use crate::error::ServeError;

/// Hard cap on a frame payload (1 MiB) — far above any real request.
pub const MAX_FRAME_LEN: usize = 1 << 20;

const OP_ACT: u8 = 0x01;
const OP_INFO: u8 = 0x02;
const OP_ACT_OK: u8 = 0x81;
const OP_INFO_OK: u8 = 0x82;
const OP_BUSY: u8 = 0x83;
const OP_ERROR: u8 = 0xEE;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Select actions for one flat observation vector.
    Act {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Flat `n_agents × obs_dim` features.
        observation: Vec<f64>,
    },
    /// Ask for the server's dimensions and counters.
    Info {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
}

/// Server dimensions and lifetime counters, returned by INFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Number of agents the loaded policy controls.
    pub n_agents: u32,
    /// Per-agent observation length.
    pub obs_dim: u32,
    /// Per-agent action-space size.
    pub n_actions: u32,
    /// Monotonic policy version; bumps on every hot-swap.
    pub policy_version: u64,
    /// ACT requests answered successfully since startup.
    pub requests_served: u64,
    /// Micro-batches executed since startup.
    pub batches_executed: u64,
    /// Hot-swaps applied since startup.
    pub policy_swaps: u64,
    /// ACT requests shed with BUSY (queue/connection budget full).
    pub requests_shed: u64,
    /// ACT requests that expired in the queue past their deadline.
    pub deadline_expired: u64,
    /// Torn/corrupt checkpoint files the watcher skipped.
    pub corrupt_skips: u64,
    /// Jobs sitting in the batcher queue right now.
    pub queue_depth: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Actions for an [`Request::Act`], one per agent.
    Act {
        /// Echo of the request id.
        id: u64,
        /// Selected action index per agent.
        actions: Vec<u16>,
    },
    /// Answer to an [`Request::Info`].
    Info {
        /// Echo of the request id.
        id: u64,
        /// Dimensions and counters.
        info: ServerInfo,
    },
    /// The request was shed before queueing: back off and retry.
    Busy {
        /// Echo of the request id (0 when shed at the connection level).
        id: u64,
        /// Batcher queue depth at shed time.
        queue_depth: u64,
    },
    /// The request was understood but could not be served.
    Error {
        /// Echo of the request id (0 when the id itself was unreadable).
        id: u64,
        /// Human-readable reason.
        message: String,
    },
}

/// Sequential byte reader over a frame payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.pos + n > self.buf.len() {
            return Err(ServeError::Protocol(format!(
                "frame truncated: wanted {n} bytes at offset {}, payload is {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `take` with a compile-time length, returning an owned array so
    /// the `from_le_bytes` decoders below stay panic-free: `take`
    /// already guarantees exactly `N` bytes, and the copy makes that
    /// guarantee a type-level fact instead of a runtime `expect`.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], ServeError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.take_n()?))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.take_n()?))
    }

    /// Reads a `u32` element count and rejects it unless `count` elements
    /// of `elem_bytes` each fit in the rest of the payload, so a lying
    /// count is refused before anything is reserved for it.
    fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, ServeError> {
        let n = self.u32()? as usize;
        let left = self.buf.len() - self.pos;
        if n.checked_mul(elem_bytes).is_none_or(|bytes| bytes > left) {
            return Err(ServeError::Protocol(format!(
                "{what} count {n} needs {elem_bytes} bytes each, but only {left} remain"
            )));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), ServeError> {
        if self.pos != self.buf.len() {
            return Err(ServeError::Protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Act { id, observation } => {
                let mut b = Vec::with_capacity(13 + 8 * observation.len());
                b.push(OP_ACT);
                b.extend_from_slice(&id.to_le_bytes());
                b.extend_from_slice(&(observation.len() as u32).to_le_bytes());
                for v in observation {
                    b.extend_from_slice(&v.to_le_bytes());
                }
                b
            }
            Request::Info { id } => {
                let mut b = Vec::with_capacity(9);
                b.push(OP_INFO);
                b.extend_from_slice(&id.to_le_bytes());
                b
            }
        }
    }

    /// Parse a frame payload; rejects unknown opcodes, short payloads
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, ServeError> {
        let mut rd = Rd::new(payload);
        let req = match rd.u8()? {
            OP_ACT => {
                let id = rd.u64()?;
                let n = rd.count(8, "observation")?;
                if n > MAX_FRAME_LEN / 8 {
                    return Err(ServeError::Protocol(format!(
                        "observation length {n} exceeds the frame cap"
                    )));
                }
                let mut observation = Vec::with_capacity(n);
                for _ in 0..n {
                    observation.push(rd.f64()?);
                }
                Request::Act { id, observation }
            }
            OP_INFO => Request::Info { id: rd.u64()? },
            op => {
                return Err(ServeError::Protocol(format!(
                    "unknown request opcode 0x{op:02x}"
                )))
            }
        };
        rd.finish()?;
        Ok(req)
    }

    /// The correlation id, for error replies.
    pub fn id(&self) -> u64 {
        match self {
            Request::Act { id, .. } | Request::Info { id } => *id,
        }
    }
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Act { id, actions } => {
                let mut b = Vec::with_capacity(13 + 2 * actions.len());
                b.push(OP_ACT_OK);
                b.extend_from_slice(&id.to_le_bytes());
                b.extend_from_slice(&(actions.len() as u32).to_le_bytes());
                for a in actions {
                    b.extend_from_slice(&a.to_le_bytes());
                }
                b
            }
            Response::Info { id, info } => {
                let mut b = Vec::with_capacity(9 + 12 + 64);
                b.push(OP_INFO_OK);
                b.extend_from_slice(&id.to_le_bytes());
                b.extend_from_slice(&info.n_agents.to_le_bytes());
                b.extend_from_slice(&info.obs_dim.to_le_bytes());
                b.extend_from_slice(&info.n_actions.to_le_bytes());
                b.extend_from_slice(&info.policy_version.to_le_bytes());
                b.extend_from_slice(&info.requests_served.to_le_bytes());
                b.extend_from_slice(&info.batches_executed.to_le_bytes());
                b.extend_from_slice(&info.policy_swaps.to_le_bytes());
                b.extend_from_slice(&info.requests_shed.to_le_bytes());
                b.extend_from_slice(&info.deadline_expired.to_le_bytes());
                b.extend_from_slice(&info.corrupt_skips.to_le_bytes());
                b.extend_from_slice(&info.queue_depth.to_le_bytes());
                b
            }
            Response::Busy { id, queue_depth } => {
                let mut b = Vec::with_capacity(17);
                b.push(OP_BUSY);
                b.extend_from_slice(&id.to_le_bytes());
                b.extend_from_slice(&queue_depth.to_le_bytes());
                b
            }
            Response::Error { id, message } => {
                let mut b = Vec::with_capacity(9 + message.len());
                b.push(OP_ERROR);
                b.extend_from_slice(&id.to_le_bytes());
                b.extend_from_slice(message.as_bytes());
                b
            }
        }
    }

    /// Parse a frame payload; rejects unknown opcodes, short payloads
    /// and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, ServeError> {
        let mut rd = Rd::new(payload);
        let resp = match rd.u8()? {
            OP_ACT_OK => {
                let id = rd.u64()?;
                let n = rd.count(2, "action")?;
                if n > MAX_FRAME_LEN / 2 {
                    return Err(ServeError::Protocol(format!(
                        "action count {n} exceeds the frame cap"
                    )));
                }
                let mut actions = Vec::with_capacity(n);
                for _ in 0..n {
                    actions.push(rd.u16()?);
                }
                Response::Act { id, actions }
            }
            OP_INFO_OK => {
                let id = rd.u64()?;
                let info = ServerInfo {
                    n_agents: rd.u32()?,
                    obs_dim: rd.u32()?,
                    n_actions: rd.u32()?,
                    policy_version: rd.u64()?,
                    requests_served: rd.u64()?,
                    batches_executed: rd.u64()?,
                    policy_swaps: rd.u64()?,
                    requests_shed: rd.u64()?,
                    deadline_expired: rd.u64()?,
                    corrupt_skips: rd.u64()?,
                    queue_depth: rd.u64()?,
                };
                Response::Info { id, info }
            }
            OP_BUSY => Response::Busy {
                id: rd.u64()?,
                queue_depth: rd.u64()?,
            },
            OP_ERROR => {
                let id = rd.u64()?;
                let rest = rd.take(rd.buf.len() - rd.pos)?;
                let message = String::from_utf8(rest.to_vec())
                    .map_err(|_| ServeError::Protocol("error message is not utf-8".into()))?;
                Response::Error { id, message }
            }
            op => {
                return Err(ServeError::Protocol(format!(
                    "unknown response opcode 0x{op:02x}"
                )))
            }
        };
        rd.finish()?;
        Ok(resp)
    }
}

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ServeError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ServeError::Protocol(
                    "connection closed mid-length-prefix".into(),
                ))
            }
            Ok(n) => got += n,
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| ServeError::Protocol(format!("connection closed mid-frame: {e}")))?;
    Ok(Some(payload))
}

/// Counters a retrying client accumulates across its lifetime, for
/// benchmark reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries performed (attempts beyond the first, across all calls).
    pub retries: u64,
    /// BUSY sheds received.
    pub sheds: u64,
    /// Reconnects after a dropped/torn connection.
    pub reconnects: u64,
    /// Calls that exhausted their retry budget.
    pub gave_up: u64,
}

/// Retry configuration + jitter source for a [`ServeClient`].
#[derive(Debug)]
struct RetryState {
    policy: qmarl_chaos::RetryPolicy,
    rng: rand::rngs::StdRng,
    stats: RetryStats,
}

/// A blocking client for the serve protocol.
///
/// One request in flight at a time: `act`/`info` write a frame and block
/// for the matching response. Dropping the client closes the connection
/// cleanly (the server sees EOF at a frame boundary).
///
/// With [`ServeClient::with_retry`], transient failures — dropped
/// connections, torn frames, BUSY sheds — are retried with capped
/// exponential backoff and jitter. ACT retries are safe because action
/// selection is deterministic: resending the same observation to the
/// same policy version yields the same actions, so a retry can never
/// produce a *different* answer, only a late one. Typed server ERRORs
/// are final and returned immediately as [`ServeError::Server`].
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    addr: std::net::SocketAddr,
    next_id: u64,
    retry: Option<RetryState>,
}

impl ServeClient {
    /// Connect to a running policy server.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            addr,
            next_id: 1,
            retry: None,
        })
    }

    /// Enable retries: transient failures back off per `policy` with
    /// jitter drawn from a client-local RNG seeded with `jitter_seed`.
    pub fn with_retry(mut self, policy: qmarl_chaos::RetryPolicy, jitter_seed: u64) -> Self {
        self.retry = Some(RetryState {
            policy,
            rng: rand::rngs::StdRng::seed_from_u64(jitter_seed),
            stats: RetryStats::default(),
        });
        self
    }

    /// Lifetime retry counters (zero when retries are not enabled).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry
            .as_ref()
            .map_or(RetryStats::default(), |r| r.stats)
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &req.encode())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ServeError::Protocol("server closed the connection".into()))?;
        let resp = Response::decode(&payload)?;
        let resp_id = match &resp {
            Response::Act { id, .. }
            | Response::Info { id, .. }
            | Response::Busy { id, .. }
            | Response::Error { id, .. } => *id,
        };
        if resp_id != req.id() && resp_id != 0 {
            return Err(ServeError::Protocol(format!(
                "response id {resp_id} does not match request id {}",
                req.id()
            )));
        }
        Ok(resp)
    }

    /// One ACT attempt, every outcome mapped to a typed error.
    fn act_once(&mut self, req: &Request) -> Result<Vec<u16>, ServeError> {
        match self.roundtrip(req)? {
            Response::Act { actions, .. } => Ok(actions),
            Response::Busy { queue_depth, .. } => Err(ServeError::Busy { queue_depth }),
            Response::Error { message, .. } => Err(ServeError::Server(message)),
            Response::Info { .. } => Err(ServeError::Protocol(
                "INFO response to an ACT request".into(),
            )),
        }
    }

    /// Select actions for one flat `n_agents × obs_dim` observation.
    ///
    /// # Errors
    ///
    /// Without retries: the first failure. With retries: final errors
    /// immediately, or [`ServeError::RetriesExhausted`] once every
    /// allowed attempt failed transiently.
    pub fn act(&mut self, observation: &[f64]) -> Result<Vec<u16>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request::Act {
            id,
            observation: observation.to_vec(),
        };
        let mut attempt: u32 = 0;
        loop {
            let err = match self.act_once(&req) {
                Ok(actions) => return Ok(actions),
                Err(e) => e,
            };
            let Some(retry) = self.retry.as_mut() else {
                return Err(err);
            };
            if !err.is_retryable() {
                return Err(err);
            }
            if matches!(err, ServeError::Busy { .. }) {
                retry.stats.sheds += 1;
            }
            if attempt >= retry.policy.max_retries {
                retry.stats.gave_up += 1;
                return Err(ServeError::RetriesExhausted {
                    attempts: attempt + 1,
                    last: Box::new(err),
                });
            }
            retry.stats.retries += 1;
            let jitter = retry.rng.gen::<f64>();
            std::thread::sleep(retry.policy.delay(attempt, jitter));
            attempt += 1;
            // A dropped or garbled connection is unusable; start fresh.
            // A failed reconnect consumes the next attempt as an Io
            // error via act_once on the stale stream — no special case.
            if let Ok(fresh) = TcpStream::connect(self.addr) {
                let _ = fresh.set_nodelay(true);
                self.stream = fresh;
                if let Some(retry) = self.retry.as_mut() {
                    retry.stats.reconnects += 1;
                }
            }
        }
    }

    /// Fetch the server's dimensions and counters.
    pub fn info(&mut self) -> Result<ServerInfo, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.roundtrip(&Request::Info { id })? {
            Response::Info { info, .. } => Ok(info),
            Response::Busy { queue_depth, .. } => Err(ServeError::Busy { queue_depth }),
            Response::Error { message, .. } => Err(ServeError::Server(message)),
            Response::Act { .. } => Err(ServeError::Protocol(
                "ACT response to an INFO request".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Act {
                id: 7,
                observation: vec![0.25, -1.5, 3.0e-9, 0.0],
            },
            Request::Act {
                id: u64::MAX,
                observation: vec![],
            },
            Request::Info { id: 42 },
        ] {
            assert_eq!(Request::decode(&req.encode()).expect("round trip"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let info = ServerInfo {
            n_agents: 4,
            obs_dim: 4,
            n_actions: 4,
            policy_version: 3,
            requests_served: 1_000_000,
            batches_executed: 31_250,
            policy_swaps: 2,
            requests_shed: 17,
            deadline_expired: 4,
            corrupt_skips: 1,
            queue_depth: 12,
        };
        for resp in [
            Response::Act {
                id: 9,
                actions: vec![0, 3, 1, 2],
            },
            Response::Info { id: 10, info },
            Response::Busy {
                id: 11,
                queue_depth: 4096,
            },
            Response::Error {
                id: 0,
                message: "no policy loaded".into(),
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).expect("round trip"), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_protocol_errors() {
        // Unknown opcodes.
        assert!(matches!(
            Request::decode(&[0x77]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Response::decode(&[0x13]),
            Err(ServeError::Protocol(_))
        ));
        // Every truncation of a valid ACT request fails loudly.
        let full = Request::Act {
            id: 3,
            observation: vec![1.0, 2.0],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                matches!(Request::decode(&full[..cut]), Err(ServeError::Protocol(_))),
                "truncation at {cut} must not parse"
            );
        }
        // Trailing garbage fails loudly.
        let mut padded = full.clone();
        padded.push(0);
        assert!(matches!(
            Request::decode(&padded),
            Err(ServeError::Protocol(_))
        ));
        // A length claim past the cap is rejected before allocation.
        let mut huge = vec![OP_ACT];
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&huge),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn frame_io_round_trips_and_guards_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        write_frame(&mut wire, b"").expect("write empty");
        let mut rd = &wire[..];
        assert_eq!(read_frame(&mut rd).expect("frame"), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut rd).expect("frame"), Some(Vec::new()));
        assert_eq!(read_frame(&mut rd).expect("eof"), None);

        // A corrupt length prefix is rejected without allocating.
        let bad = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ServeError::Protocol(_))
        ));
        // EOF mid-prefix and mid-payload are loud.
        assert!(matches!(
            read_frame(&mut &wire[..2]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            read_frame(&mut &wire[..6]),
            Err(ServeError::Protocol(_))
        ));
    }

    /// The frame guard is exact: a payload of exactly [`MAX_FRAME_LEN`]
    /// bytes passes both directions; one byte more is rejected by both.
    #[test]
    fn frame_guard_boundary_is_exact() {
        let at_limit = vec![0xABu8; MAX_FRAME_LEN];
        let mut wire = Vec::new();
        write_frame(&mut wire, &at_limit).expect("at-limit write");
        let back = read_frame(&mut &wire[..]).expect("at-limit read");
        assert_eq!(back.as_deref(), Some(&at_limit[..]));

        let over = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &over),
            Err(ServeError::Protocol(_))
        ));
        let mut bad_wire = Vec::new();
        bad_wire.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        bad_wire.extend_from_slice(&over);
        assert!(matches!(
            read_frame(&mut &bad_wire[..]),
            Err(ServeError::Protocol(_))
        ));
    }

    /// The ACT observation-count guard is exact too: a claim of exactly
    /// `MAX_FRAME_LEN / 8` values decodes (given the bytes), one more is
    /// rejected before any allocation.
    #[test]
    fn element_counts_are_checked_against_the_payload_before_reserving() {
        // A 13-byte ACT frame claiming 131 072 observations (1 MiB) is
        // refused by the count check itself, not by a later short read.
        let mut act = vec![OP_ACT];
        act.extend_from_slice(&7u64.to_le_bytes());
        act.extend_from_slice(&131_072u32.to_le_bytes());
        match Request::decode(&act) {
            Err(ServeError::Protocol(msg)) => assert!(msg.contains("only 0 remain"), "{msg}"),
            other => panic!("unexpected decode: {other:?}"),
        }
        // At the boundary: three observations' bytes carry a count of
        // three, and a count of four is refused up front.
        for (claim, ok) in [(3u32, true), (4, false)] {
            let mut frame = vec![OP_ACT];
            frame.extend_from_slice(&7u64.to_le_bytes());
            frame.extend_from_slice(&claim.to_le_bytes());
            frame.extend_from_slice(&[0u8; 24]);
            assert_eq!(Request::decode(&frame).is_ok(), ok, "ACT claim {claim}");
        }
        for (claim, ok) in [(2u32, true), (3, false)] {
            let mut frame = vec![OP_ACT_OK];
            frame.extend_from_slice(&7u64.to_le_bytes());
            frame.extend_from_slice(&claim.to_le_bytes());
            frame.extend_from_slice(&[0u8; 4]);
            match Response::decode(&frame) {
                Ok(_) => assert!(ok, "ACT-OK claim {claim}"),
                Err(ServeError::Protocol(msg)) => {
                    assert!(!ok && msg.contains("only 4 remain"), "{msg}")
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    fn observation_count_guard_boundary_is_exact() {
        let n = MAX_FRAME_LEN / 8;
        let mut at_limit = vec![OP_ACT];
        at_limit.extend_from_slice(&1u64.to_le_bytes());
        at_limit.extend_from_slice(&(n as u32).to_le_bytes());
        at_limit.extend_from_slice(&vec![0u8; 8 * n]);
        match Request::decode(&at_limit).expect("at-limit decode") {
            Request::Act { observation, .. } => assert_eq!(observation.len(), n),
            other => panic!("unexpected decode: {other:?}"),
        }

        let mut over = vec![OP_ACT];
        over.extend_from_slice(&1u64.to_le_bytes());
        over.extend_from_slice(&((n as u32) + 1).to_le_bytes());
        assert!(matches!(
            Request::decode(&over),
            Err(ServeError::Protocol(_))
        ));
    }
}
