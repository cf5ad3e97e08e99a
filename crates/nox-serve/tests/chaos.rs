//! Chaos suite: every failure mode in the DESIGN.md §15 table, driven
//! against an in-process daemon. Each scenario asserts the *daemon's*
//! observable behavior — structured frames, graceful exits, surviving
//! connections — not internal state.

#![cfg(unix)]

mod common;

use common::{daemon, kind, Conn};
use nox_analysis::json::Json;

/// Malformed input: fuzz-style garbage lines each get a structured
/// `bad_request` error on a surviving connection, and the daemon still
/// does real work afterwards.
#[test]
fn malformed_lines_get_structured_errors_and_the_daemon_survives() {
    let (handle, sock, _) = daemon("malformed", |_| {});
    let mut conn = Conn::open(&sock);
    let hostile = [
        "not json at all",
        "{\"req\":",
        "{}",
        "[1,2,3]",
        "42",
        "\"claims\"",
        "{\"req\":\"run\",\"harness\":\"table2\",\"tier\":42}",
        "{\"req\":\"sweep\",\"rates\":[1e999]}",
        "{\"req\":\"run\",\"harness\":\"table2\",\"id\":\"\"}",
        // Large but bounded, and truncated mid-string.
        &format!(
            "{{\"req\":\"run\",\"harness\":\"table2\",\"pad\":\"{}",
            "x".repeat(100_000)
        ),
        &"[".repeat(200),
        "{\"req\":\"debug\",\"op\":\"sleep\"}",
    ];
    for bad in hostile {
        conn.send(bad);
        let (err, _) = conn.wait_terminal();
        assert_eq!(kind(&err), "error", "for input {bad:?}");
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "for input {bad:?}"
        );
    }
    // Same connection, real request: still served.
    conn.send(r#"{"req":"ping","id":"alive"}"#);
    let (pong, _) = conn.wait_for("pong");
    assert_eq!(pong.get("id").and_then(Json::as_str), Some("alive"));
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.bad_requests, hostile.len() as u64);
}

/// Panic containment: a job that panics produces `error {kind:panic}`
/// and the daemon keeps serving.
#[test]
fn a_panicking_job_is_contained_and_the_daemon_keeps_serving() {
    let (handle, sock, _) = daemon("panic", |_| {});
    let mut conn = Conn::open(&sock);
    conn.send(r#"{"req":"debug","op":"panic","id":"boom"}"#);
    let (err, _) = conn.wait_terminal();
    assert_eq!(kind(&err), "error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("panic"));
    assert_eq!(err.get("id").and_then(Json::as_str), Some("boom"));
    // The daemon survives: the next job on the same connection runs fine.
    conn.send(r#"{"req":"debug","op":"sleep","ms":5,"id":"after"}"#);
    let (res, _) = conn.wait_terminal();
    assert_eq!(kind(&res), "result");
    assert_eq!(res.get("id").and_then(Json::as_str), Some("after"));
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.computed, 1);
}

/// Backpressure: with the queue full, further requests are shed with a
/// structured `reject {reason:overload, retry_after_ms}` — the queue
/// never grows past its bound.
#[test]
fn a_saturated_queue_sheds_load_with_retry_hints() {
    let (handle, sock, _) = daemon("overload", |cfg| cfg.queue_cap = 2);
    let mut conn = Conn::open(&sock);
    // One long job occupies the worker (wait for its `start` so the
    // queue is empty again), then two more fill the queue exactly.
    conn.send(r#"{"req":"debug","op":"sleep","ms":400,"id":"s0"}"#);
    conn.wait_for("start");
    for i in 1..3 {
        conn.send(&format!(
            r#"{{"req":"debug","op":"sleep","ms":400,"id":"s{i}"}}"#
        ));
        let (frame, _) = conn.wait_for("ack");
        assert!(frame.get("queue_depth").and_then(Json::as_u64).unwrap() <= 2);
    }
    // The queue is now at capacity (worker holds s0, queue holds s1+s2
    // in the worst case): the 4th request must be shed.
    conn.send(r#"{"req":"debug","op":"sleep","ms":400,"id":"shed"}"#);
    let (frame, _) = conn.wait_terminal();
    assert_eq!(kind(&frame), "reject");
    assert_eq!(frame.get("reason").and_then(Json::as_str), Some("overload"));
    assert_eq!(frame.get("id").and_then(Json::as_str), Some("shed"));
    let hint = frame
        .get("retry_after_ms")
        .and_then(Json::as_u64)
        .expect("overload reject carries a retry_after_ms hint");
    assert!((100..=60_000).contains(&hint) || hint == 1_000);
    // The accepted jobs all finish.
    for _ in 0..3 {
        let (frame, _) = conn.wait_for("result");
        assert_eq!(frame.get("cached"), Some(&Json::Bool(false)));
    }
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.computed, 3);
}

/// Deadlines: a request whose deadline passes mid-run is cancelled at
/// the next stage boundary with `error {kind:deadline}` — promptly,
/// not after the job would have finished.
#[test]
fn a_past_deadline_request_is_cancelled_promptly() {
    let (handle, sock, _) = daemon("deadline", |_| {});
    let mut conn = Conn::open(&sock);
    let sw = nox_telemetry::Stopwatch::start();
    conn.send(r#"{"req":"debug","op":"sleep","ms":60000,"deadline_ms":80,"id":"late"}"#);
    let (err, _) = conn.wait_terminal();
    let waited_ms = sw.elapsed_ns() / 1_000_000;
    assert_eq!(kind(&err), "error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline"));
    assert!(
        waited_ms < 10_000,
        "cancellation took {waited_ms} ms for an 80 ms deadline"
    );
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.deadline_misses, 1);
}

/// The watchdog: a job running past the hang threshold is flagged with
/// a `watchdog` event while it is still running.
#[test]
fn the_watchdog_flags_a_hung_job() {
    let (handle, sock, _) = daemon("watchdog", |cfg| cfg.watchdog_ms = 100);
    let mut conn = Conn::open(&sock);
    conn.send(r#"{"req":"debug","op":"sleep","ms":600,"id":"slow"}"#);
    let (flag, _) = conn.wait_for("watchdog");
    assert_eq!(flag.get("id").and_then(Json::as_str), Some("slow"));
    assert!(flag.get("running_ms").and_then(Json::as_u64).unwrap() >= 100);
    // The job still completes; the watchdog detects, it does not kill.
    let (res, _) = conn.wait_for("result");
    assert_eq!(res.get("id").and_then(Json::as_str), Some("slow"));
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.watchdog_flags, 1);
}

/// Graceful drain: after shutdown, already-queued work finishes and
/// new requests are refused with `reject {reason:draining}`.
#[test]
fn shutdown_drains_queued_work_and_refuses_new_requests() {
    let (handle, sock, _) = daemon("drain", |_| {});
    let mut conn = Conn::open(&sock);
    conn.send(r#"{"req":"debug","op":"sleep","ms":300,"id":"inflight"}"#);
    conn.wait_for("ack");
    handle.shutdown();
    // New work is refused while draining (on the still-open connection).
    conn.send(r#"{"req":"debug","op":"sleep","ms":5,"id":"refused"}"#);
    let (mut saw_inflight_result, mut saw_draining) = (false, false);
    for _ in 0..10 {
        let (frame, skipped) = conn.wait_terminal();
        for f in skipped.iter().chain([&frame]) {
            match (kind(f), f.get("id").and_then(Json::as_str)) {
                ("result", Some("inflight")) => saw_inflight_result = true,
                ("reject", Some("refused")) => {
                    assert_eq!(f.get("reason").and_then(Json::as_str), Some("draining"));
                    saw_draining = true;
                }
                _ => {}
            }
        }
        if saw_inflight_result && saw_draining {
            break;
        }
    }
    assert!(
        saw_inflight_result,
        "in-flight job must finish during drain"
    );
    assert!(saw_draining, "new work must be refused during drain");
    let stats = handle.join();
    assert_eq!(stats.computed, 1);
    assert_eq!(stats.rejected_draining, 1);
}

/// Ping answers inline even while a compute job runs, and reports the
/// drain state.
#[test]
fn ping_reports_queue_depth_and_draining() {
    let (handle, sock, _) = daemon("ping", |_| {});
    let mut conn = Conn::open(&sock);
    conn.send(r#"{"req":"ping","id":"p"}"#);
    let (pong, _) = conn.wait_for("pong");
    assert_eq!(pong.get("draining"), Some(&Json::Bool(false)));
    assert_eq!(pong.get("queue_depth").and_then(Json::as_u64), Some(0));
    handle.shutdown();
    conn.send(r#"{"req":"ping","id":"p2"}"#);
    let (pong, _) = conn.wait_for("pong");
    assert_eq!(pong.get("draining"), Some(&Json::Bool(true)));
    handle.join();
}

/// An oversized request line is rejected with a structured error and
/// the connection closed — the daemon never buffers without bound.
#[test]
fn an_oversized_line_is_rejected_not_buffered() {
    let (handle, sock, _) = daemon("oversize", |_| {});
    let mut conn = Conn::open(&sock);
    // 2 MiB with no newline: the daemon must give up at the 1 MiB cap
    // (it may hang up while we are still writing; that is the point).
    let huge = vec![b'x'; 2 * 1024 * 1024];
    conn.send_raw_lossy(&huge);
    let (err, _) = conn.wait_terminal();
    assert_eq!(kind(&err), "error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad_request"));
    // A fresh connection still works.
    let mut conn2 = Conn::open(&sock);
    conn2.send(r#"{"req":"ping","id":"ok"}"#);
    conn2.wait_for("pong");
    handle.shutdown();
    handle.join();
}

/// Debug ops are refused without the explicit opt-in flag.
#[test]
fn debug_ops_require_the_opt_in_flag() {
    let (handle, sock, _) = daemon("nodebug", |cfg| cfg.debug_ops = false);
    let mut conn = Conn::open(&sock);
    conn.send(r#"{"req":"debug","op":"panic","id":"d"}"#);
    let (err, _) = conn.wait_terminal();
    assert_eq!(kind(&err), "error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("bad_request"));
    handle.shutdown();
    handle.join();
}
