//! Live telemetry streaming: line-delimited JSON progress events.
//!
//! The CLI's `--stream <file|->` flag installs a sink here; instrumented
//! code emits one self-contained JSON object per line through
//! [`emit`]. Emission is serialized under one lock, and the sequence
//! number is assigned under that same lock, so the frame order on the
//! wire matches the order of `emit` calls exactly. Because `nox-exec`
//! reports job completions through an in-order cursor, that order is
//! deterministic at every thread count — the property the stream-framing
//! tests assert, and the wire contract `noxsim serve` inherits.
//!
//! When no sink is installed, [`emit`] is a single relaxed atomic load.
//!
//! # Resume contract
//!
//! Sequence numbers are **per sink installation**: every [`set`] starts
//! a fresh stream whose first frame carries `"seq":0`, and within one
//! installation the numbers are gap-free and strictly ascending. There
//! is no cross-connection sequencing — a client that reconnects (or a
//! `noxsim serve` client whose request is re-run after a daemon
//! restart) detects the restart by either signal:
//!
//! * the `seq` field going backwards (any non-successor value), or
//! * a fresh `run` event (the CLI) / `start` event (the serve daemon),
//!   which are only ever emitted at the head of a stream.
//!
//! On restart a consumer discards its partial tally and replays from
//! the new stream; because artifacts are deterministic, re-running a
//! request converges on byte-identical results, so resuming is always
//! safe. Torn frames: every frame is serialized in full and handed to
//! the sink as **one** `write_all` of a complete `{...}\n` line (the
//! framing tests pin this), so within a healthy process no partial line
//! is ever emitted; a crash (`kill -9`) can still tear at most the last
//! line on the wire, which a consumer must treat as end-of-stream —
//! never as data.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::Json;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

struct Sink {
    writer: Box<dyn Write + Send>,
    seq: u64,
}

/// Installs a stream sink; subsequent [`emit`] calls write to it.
///
/// Starts a fresh stream: the next frame carries `"seq":0` (the resume
/// contract's restart marker). A previously installed sink is flushed
/// before being dropped, so its final frame is never left torn in a
/// buffering writer.
pub fn set(writer: Box<dyn Write + Send>) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(old) = sink.as_mut() {
        let _ = old.writer.flush();
    }
    *sink = Some(Sink { writer, seq: 0 });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Removes the sink (flushing it), ending streaming.
pub fn clear() {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(mut s) = sink.take() {
        let _ = s.writer.flush();
    }
    ACTIVE.store(false, Ordering::Relaxed);
}

/// `true` when a sink is installed.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Classifies the `seq` field of a received frame against the last one
/// seen, implementing the consumer side of the resume contract: `Fresh`
/// for the head of a (re)started stream, `Next` for the expected
/// successor, `Gap` for anything else (frames lost, or a restart whose
/// head was missed — either way the consumer must resynchronize).
///
/// # Example
///
/// ```
/// use nox_telemetry::stream::{classify_seq, SeqStep};
///
/// assert_eq!(classify_seq(None, 0), SeqStep::Fresh);
/// assert_eq!(classify_seq(Some(0), 1), SeqStep::Next);
/// assert_eq!(classify_seq(Some(7), 0), SeqStep::Fresh); // stream restarted
/// assert_eq!(classify_seq(Some(7), 9), SeqStep::Gap);   // frame lost
/// ```
pub fn classify_seq(prev: Option<u64>, seq: u64) -> SeqStep {
    match (prev, seq) {
        (_, 0) => SeqStep::Fresh,
        (Some(p), s) if s == p + 1 => SeqStep::Next,
        _ => SeqStep::Gap,
    }
}

/// Result of [`classify_seq`]: how a frame's sequence number relates to
/// the stream the consumer thinks it is reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqStep {
    /// `seq == 0`: the head of a new stream (first connection, or a
    /// restart the consumer must treat as a fresh stream).
    Fresh,
    /// The gap-free successor of the previous frame.
    Next,
    /// Neither head nor successor: frames were lost, or a restart's
    /// head frame was missed.
    Gap,
}

/// Emits one event line: `{"event":<kind>,"seq":N,<fields...>}`, every
/// key and value serialized by [`Json`]'s `Display`.
///
/// A no-op when no sink is installed. A sink write error deactivates the
/// stream (progress telemetry must never abort a run).
pub fn emit(kind: &str, fields: &[(&str, Json)]) {
    if !active() {
        return;
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let Some(s) = sink.as_mut() else { return };
    let mut line = format!("{{\"event\":{},\"seq\":{}", Json::from(kind), s.seq);
    for (key, value) in fields {
        let _ = write!(line, ",{}:{value}", Json::from(*key));
    }
    line.push_str("}\n");
    s.seq += 1;
    // Write-and-flush per line: each frame is complete on the wire as
    // soon as it is emitted, which is the point of live streaming.
    if s.writer.write_all(line.as_bytes()).is_err() || s.writer.flush().is_err() {
        *sink = None;
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A sink capturing emitted bytes for inspection.
    #[derive(Clone, Default)]
    pub struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Capture {
        pub fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Tests share the process-global sink; serialize them.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn emit_without_sink_is_a_no_op() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        emit("job", &[("index", Json::UInt(1))]);
        assert!(!active());
    }

    #[test]
    fn frames_are_complete_json_lines_with_sequence_numbers() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cap = Capture::default();
        set(Box::new(cap.clone()));
        emit(
            "stage",
            &[("stage", Json::from("sweep.nox")), ("jobs", Json::UInt(12))],
        );
        emit(
            "job",
            &[
                ("index", Json::UInt(0)),
                ("ms", Json::Num(1.5)),
                ("ok", Json::Bool(true)),
            ],
        );
        clear();
        let out = cap.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"event":"stage","seq":0,"stage":"sweep.nox","jobs":12}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"job","seq":1,"index":0,"ms":1.5,"ok":true}"#
        );
    }

    /// A sink recording the byte span of every individual `write` call,
    /// to pin the one-write-per-frame (no torn line) property.
    #[derive(Clone, Default)]
    struct CallRecorder(Arc<StdMutex<Vec<Vec<u8>>>>);

    impl Write for CallRecorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_complete_line_write() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = CallRecorder::default();
        set(Box::new(rec.clone()));
        emit("run", &[("cmd", Json::from("claims"))]);
        emit("job", &[("index", Json::UInt(3)), ("ms", Json::Num(0.25))]);
        emit("done", &[]);
        clear();
        let calls = rec.0.lock().unwrap().clone();
        // Three frames -> exactly three write calls, each one a whole
        // newline-terminated JSON line: a frame can never be torn by
        // interleaved writers, only by a process crash mid-syscall.
        assert_eq!(calls.len(), 3);
        for call in &calls {
            let line = std::str::from_utf8(call).unwrap();
            assert!(
                line.ends_with('\n'),
                "frame not newline-terminated: {line:?}"
            );
            assert_eq!(line.matches('\n').count(), 1);
            assert!(line.starts_with('{') && line[..line.len() - 1].ends_with('}'));
        }
    }

    #[test]
    fn sequence_numbers_restart_per_installation() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // First "connection".
        let a = Capture::default();
        set(Box::new(a.clone()));
        emit("run", &[("cmd", Json::from("verify"))]);
        emit("job", &[("index", Json::UInt(0))]);
        // Reconnect: a second installation restarts the stream.
        let b = Capture::default();
        set(Box::new(b.clone()));
        emit("run", &[("cmd", Json::from("verify"))]);
        clear();
        let first: Vec<String> = a.contents().lines().map(str::to_string).collect();
        let second: Vec<String> = b.contents().lines().map(str::to_string).collect();
        assert!(first[0].contains("\"seq\":0") && first[1].contains("\"seq\":1"));
        // The new stream's head frame is seq 0 again and is a `run`
        // event — both restart signals of the resume contract.
        assert!(
            second[0].contains("\"event\":\"run\",\"seq\":0"),
            "{second:?}"
        );
    }

    #[test]
    fn a_reconnecting_consumer_detects_gaps_and_restarts() {
        // Consumer side of the contract, over a synthetic frame
        // sequence: connection 1 delivers seqs 0,1,2; the daemon
        // restarts; connection 2 delivers 0,1. A lossy tail delivers 4.
        let mut prev = None;
        let mut restarts = 0;
        let mut gaps = 0;
        for seq in [0u64, 1, 2, 0, 1, 4] {
            match classify_seq(prev, seq) {
                SeqStep::Fresh if prev.is_some() => restarts += 1,
                SeqStep::Fresh | SeqStep::Next => {}
                SeqStep::Gap => gaps += 1,
            }
            prev = Some(seq);
        }
        assert_eq!((restarts, gaps), (1, 1));
    }
}
