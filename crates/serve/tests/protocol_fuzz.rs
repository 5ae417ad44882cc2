//! Deterministic wire-protocol fuzzing: the frame reader and both message
//! decoders must answer random bytes and mutated valid frames with `Ok` or
//! a typed error, never a panic or an abort, and every accepted payload
//! must re-encode to exactly its own bytes.
//!
//! Mutations keep most of a valid payload intact — flip one byte, splice a
//! hostile element count into the count field, truncate, extend — so
//! random cases reach past the opcode into each message body instead of
//! failing on the first byte.

use std::io::Cursor;

use proptest::prelude::*;
use qmarl_serve::protocol::{read_frame, Request, Response, ServerInfo, MAX_FRAME_LEN};

/// One valid payload of every message kind, both directions.
fn valid_payloads() -> Vec<Vec<u8>> {
    let info = ServerInfo {
        n_agents: 4,
        obs_dim: 4,
        n_actions: 4,
        policy_version: 2,
        requests_served: 10,
        batches_executed: 7,
        policy_swaps: 1,
        requests_shed: 0,
        deadline_expired: 3,
        corrupt_skips: 0,
        queue_depth: 5,
    };
    vec![
        Request::Act {
            id: 3,
            observation: vec![0.5, -1.25, 3.0],
        }
        .encode(),
        Request::Act {
            id: 0,
            observation: Vec::new(),
        }
        .encode(),
        Request::Info { id: u64::MAX }.encode(),
        Response::Act {
            id: 9,
            actions: vec![1, 0, u16::MAX],
        }
        .encode(),
        Response::Info { id: 1, info }.encode(),
        Response::Busy {
            id: 2,
            queue_depth: 17,
        }
        .encode(),
        Response::Error {
            id: 4,
            message: "queue full".into(),
        }
        .encode(),
    ]
}

/// Element counts to splice into an ACT / ACT-OK count field: empty, the
/// true counts and their neighbours, each direction's frame cap and one
/// past it, and `u32::MAX`.
const COUNTS: [u32; 10] = [0, 1, 2, 3, 4, 131_072, 131_073, 524_288, 524_289, u32::MAX];

/// Byte offset of the `u32` count field in ACT and ACT-OK payloads.
const COUNT_AT: usize = 9;

/// Decodes `payload` in both directions and as a framed stream. Whatever
/// is accepted must re-encode to the same bytes (bit-exact floats, so NaN
/// payloads compare too).
fn check_payload(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = Request::decode(payload) {
        prop_assert_eq!(req.encode(), payload.to_vec(), "{:?}", req);
    }
    if let Ok(resp) = Response::decode(payload) {
        prop_assert_eq!(resp.encode(), payload.to_vec(), "{:?}", resp);
    }
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(payload);
    let read = read_frame(&mut Cursor::new(&framed)).ok().flatten();
    prop_assert_eq!(read, Some(payload.to_vec()));
    Ok(())
}

/// A valid payload with one mutation applied.
fn mutated() -> impl Strategy<Value = Vec<u8>> {
    let n = valid_payloads().len();
    (0..n, 0..5usize, 0..64usize, 0u16..256, 0..COUNTS.len()).prop_map(
        move |(which, kind, at, byte, count)| {
            let mut p = valid_payloads().swap_remove(which);
            let at = at % (p.len() + 1);
            match kind {
                0 if at < p.len() => p[at] ^= byte as u8 | 1,
                1 if p.len() >= COUNT_AT + 4 => {
                    p[COUNT_AT..COUNT_AT + 4].copy_from_slice(&COUNTS[count].to_le_bytes());
                }
                2 => p.truncate(at),
                3 => p.extend(std::iter::repeat_n(byte as u8, at % 9)),
                _ => p[0] = byte as u8,
            }
            p
        },
    )
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u16..256, 0..max).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

proptest! {
    #[test]
    fn message_decoders_never_panic_and_roundtrip(
        structured in mutated(),
        random in bytes(48),
    ) {
        for payload in [&structured, &random] {
            check_payload(payload)?;
        }
    }

    #[test]
    fn read_frame_never_panics_on_random_streams(
        random in bytes(40),
        prefix in 0..COUNTS.len(),
        body in bytes(24),
    ) {
        // Random bytes, and a hostile length prefix ahead of a short body.
        let mut claimed = COUNTS[prefix].to_le_bytes().to_vec();
        claimed.extend_from_slice(&body);
        for stream in [&random, &claimed] {
            if let Ok(Some(payload)) = read_frame(&mut Cursor::new(stream)) {
                prop_assert!(payload.len() <= MAX_FRAME_LEN);
                prop_assert_eq!(&payload[..], &stream[4..4 + payload.len()]);
            }
        }
    }
}

/// Every valid payload decodes and round-trips unmutated, and every
/// hostile count spliced into a count field is a typed error unless the
/// payload really carries that many elements.
#[test]
fn valid_payloads_roundtrip_and_spliced_counts_are_typed_errors() {
    for payload in valid_payloads() {
        let request = Request::decode(&payload).is_ok();
        let response = Response::decode(&payload).is_ok();
        assert!(request != response, "{payload:?} must decode one way");
        check_payload(&payload).unwrap();
        if payload.len() < COUNT_AT + 4 || !matches!(payload[0], 0x01 | 0x81) {
            continue;
        }
        for count in COUNTS {
            let mut p = payload.clone();
            p[COUNT_AT..COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
            check_payload(&p).unwrap();
            let elem = if p[0] == 0x01 { 8 } else { 2 };
            let fits = count as usize * elem == p.len() - COUNT_AT - 4;
            assert_eq!(
                Request::decode(&p).is_ok() || Response::decode(&p).is_ok(),
                fits
            );
        }
    }
}
