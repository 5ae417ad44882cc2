//! Fixture: wall clocks, free threads, and hash-ordered containers.

use std::collections::HashMap;
use std::time::{Instant, SystemTime};

pub fn naughty() -> u64 {
    let t = Instant::now();
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let st: Option<SystemTime> = None;
    let h = std::thread::spawn(|| 7u64);
    let b = std::thread::Builder::new().spawn(|| 8u64);
    let _ = (t, st, m.len() as u64, b.is_ok());
    h.join().unwrap_or(0)
}
