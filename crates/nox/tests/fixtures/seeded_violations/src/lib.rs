//! One use of each path the workspace `clippy.toml` bans: clippy must
//! reject every one (`tests/determinism.rs`).

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn unstable_summary() -> String {
    let counts: HashMap<u32, u32> = HashMap::from([(1, 2)]);
    let values: HashSet<u32> = counts.values().copied().collect();
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = nox_exec::available_parallelism();
    let (start, now) = (Instant::now(), SystemTime::now());
    format!("{values:?} {width} {pool} {now:?} {:?}", start.elapsed())
}
