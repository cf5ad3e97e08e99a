//! Cache soundness: content addressing is only sound because artifacts
//! are byte-identical however they are computed. These tests pin the
//! whole chain: thread-count independence of the artifact bytes, the
//! observable `cache_hit` path, corruption detection, and crash
//! recovery (a simulated `kill -9` mid-write).

#![cfg(unix)]

mod common;

use common::{daemon, kind, Conn};
use nox_analysis::harness::{self, Tier};
use nox_analysis::json::Json;
use nox_exec::Executor;
use nox_serve::cache::{content_key, Cache, Lookup};
use nox_serve::job::{execute, CancelToken};
use nox_serve::proto::Request;

const SWEEP: &str = r#"{"req":"sweep","arch":"nox","pattern":"uniform","rates":[500],"len":1,"seed":7,"tier":"smoke"}"#;

/// The same request produces one key and byte-identical artifacts at
/// --threads 1, 2, and 8 — the property that makes it sound to exclude
/// the executor width from the cache key.
#[test]
fn the_artifact_is_byte_identical_at_threads_1_2_and_8() {
    let req = Request::parse(
        r#"{"req":"sweep","arch":"all","rates":[400,900,1400],"len":2,"seed":21,"tier":"smoke"}"#,
    )
    .unwrap();
    let token = CancelToken::unbounded();
    let artifacts: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            execute(&req.body, &Executor::new(threads), &token, false)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(artifacts[0], artifacts[1]);
    assert_eq!(artifacts[0], artifacts[2]);
    // And the key is a pure function of the canonical request.
    let key = content_key(&req.canonical().unwrap());
    assert_eq!(key, content_key(&req.canonical().unwrap()));
}

/// A `run` request answers with the row's own `--json` document, the
/// bytes `noxsim run HARNESS --smoke --out F` writes, at any executor
/// width.
#[test]
fn a_run_request_answers_with_the_harness_document() {
    for name in ["statics", "table2"] {
        let req = Request::parse(&format!(r#"{{"req":"run","harness":"{name}"}}"#)).unwrap();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let want = (harness::find(name).unwrap().run)(Tier::Smoke, &exec).json;
            let got = execute(&req.body, &exec, &CancelToken::unbounded(), false).unwrap();
            assert_eq!(
                got.to_string(),
                want.to_string(),
                "{name} at {threads} thread(s)"
            );
        }
    }
}

/// A repeated identical request is served from the cache, observable
/// as a `cache_hit` frame, and the cached artifact is byte-identical
/// to the first run's.
#[test]
fn a_repeated_request_hits_the_cache_with_identical_bytes() {
    let (handle, sock, _) = daemon("hit", |_| {});
    let mut conn = Conn::open(&sock);
    conn.send(&format!(r#"{{"id":"first",{}"#, &SWEEP[1..]));
    let (first, frames) = conn.wait_for("result");
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    assert!(
        !frames.iter().any(|f| kind(f) == "cache_hit"),
        "first run must not hit the cache"
    );
    let first_artifact = first.get("artifact").unwrap().to_string();
    let key = first.get("key").and_then(Json::as_str).unwrap().to_string();

    // Different id, different deadline — same content: a hit.
    conn.send(&format!(
        r#"{{"id":"second","deadline_ms":9999,{}"#,
        &SWEEP[1..]
    ));
    let (second, frames) = conn.wait_for("result");
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(second.get("key").and_then(Json::as_str), Some(key.as_str()));
    let hit = frames
        .iter()
        .find(|f| kind(f) == "cache_hit")
        .expect("second run emits a cache_hit frame");
    assert_eq!(hit.get("key").and_then(Json::as_str), Some(key.as_str()));
    assert_eq!(hit.get("id").and_then(Json::as_str), Some("second"));
    assert_eq!(second.get("artifact").unwrap().to_string(), first_artifact);

    handle.shutdown();
    let stats = handle.join();
    assert_eq!((stats.computed, stats.cache_hits), (1, 1));
}

/// A flipped byte on disk is detected by the entry checksum: the entry
/// is quarantined, the request recomputed, and the healed entry hits
/// again — the corrupt artifact is never served.
#[test]
fn a_flipped_byte_is_detected_quarantined_and_recomputed() {
    let (handle, sock, cache_dir) = daemon("flip", |_| {});
    let mut conn = Conn::open(&sock);
    conn.send(SWEEP);
    let (first, _) = conn.wait_for("result");
    let key = first.get("key").and_then(Json::as_str).unwrap().to_string();
    let first_artifact = first.get("artifact").unwrap().to_string();

    // Flip one digit inside the stored artifact payload.
    let entry = cache_dir.join(format!("{key}.json"));
    let text = std::fs::read_to_string(&entry).unwrap();
    let pos = text.find("latency_ns").unwrap() + "latency_ns\":".len();
    let mut bytes = text.into_bytes();
    bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
    std::fs::write(&entry, &bytes).unwrap();

    // The corrupt entry must NOT be served: the daemon quarantines it
    // and recomputes.
    conn.send(SWEEP);
    let (second, _) = conn.wait_for("result");
    assert_eq!(second.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(second.get("artifact").unwrap().to_string(), first_artifact);
    assert!(
        cache_dir
            .join("quarantine")
            .join(format!("{key}.json"))
            .exists(),
        "corrupt entry moved to quarantine/"
    );

    // Healed: the third request hits.
    conn.send(SWEEP);
    let (third, _) = conn.wait_for("result");
    assert_eq!(third.get("cached"), Some(&Json::Bool(true)));
    handle.shutdown();
    handle.join();
}

/// Simulated `kill -9` mid-write: a leftover `tmp-*` partial and an
/// entry torn under its final name. A restarted daemon's startup scan
/// removes the partial, quarantines the torn entry, and still serves
/// every committed entry.
#[test]
fn restart_after_a_torn_write_recovers_committed_entries() {
    let (handle, sock, cache_dir) = daemon("torn", |_| {});
    let mut conn = Conn::open(&sock);
    conn.send(SWEEP);
    let (first, _) = conn.wait_for("result");
    let key = first.get("key").and_then(Json::as_str).unwrap().to_string();
    handle.shutdown();
    handle.join();

    // Forge the crash debris a kill -9 mid-write can leave: an
    // abandoned temp file, plus an entry whose tail was lost.
    std::fs::write(cache_dir.join("tmp-424242-0"), b"{\"schema\":\"nox-").unwrap();
    let committed = std::fs::read_to_string(cache_dir.join(format!("{key}.json"))).unwrap();
    let torn_key = content_key("a request whose entry tore");
    std::fs::write(
        cache_dir.join(format!("{torn_key}.json")),
        &committed[..committed.len() / 2],
    )
    .unwrap();

    // Restart on the same cache dir: the scan heals, the committed
    // entry survives and is served as a hit.
    let cache = Cache::open(&cache_dir).unwrap();
    assert_eq!(cache.scan.partials_removed, 1);
    assert_eq!(cache.scan.quarantined, 1);
    assert_eq!(cache.scan.valid, 1);
    assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
    drop(cache);

    let mut cfg =
        nox_serve::daemon::ServeConfig::new(cache_dir.parent().unwrap().join("sock2"), &cache_dir);
    cfg.threads = 2;
    let sock2 = cfg.socket.clone();
    let handle2 = nox_serve::daemon::spawn(cfg, None).unwrap();
    let mut conn2 = Conn::open(&sock2);
    conn2.send(SWEEP);
    let (served, frames) = conn2.wait_for("result");
    assert_eq!(served.get("cached"), Some(&Json::Bool(true)));
    assert!(frames.iter().any(|f| kind(f) == "cache_hit"));
    handle2.shutdown();
    handle2.join();
}

/// Profile artifacts are wall-clock attribution and must never be
/// cached; two profile requests both compute.
#[test]
fn profile_requests_are_never_cached() {
    let req = Request::parse(r#"{"req":"profile","harness":"table1","tier":"smoke"}"#).unwrap();
    assert_eq!(req.canonical(), None);
}
