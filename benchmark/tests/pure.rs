//! The pure parts: the serve schedule, the percentile rule, span self
//! time, and the agreement between the metric registry, the result
//! object and `BENCHMARK.json`.

use std::time::Instant;

use nox::analysis::json::Json;
use nox_benchmark::serve::{schedule, HitOp, ServeSpec};
use nox_benchmark::spans::{self_times, Spans};
use nox_benchmark::stats::{highest_tail, quantile, tail_percentile, Digest};
use nox_benchmark::{Def, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[test]
fn serve_schedule_is_a_pure_function_of_the_seed() {
    let spec = ServeSpec::mixed(RUN_SECONDS);
    let a = schedule(7, &spec, spec.cold);
    assert_eq!(a, schedule(7, &spec, spec.cold));
    assert_ne!(a, schedule(8, &spec, spec.cold));
    assert_eq!((a.prefill.len(), a.cold.len()), (32, 100));

    // Every request is distinct (each cold one is a miss, each prefilled
    // one its own cache entry) and the daemon's parser accepts it.
    let mut keys: Vec<String> = a
        .prefill
        .iter()
        .chain(&a.cold)
        .map(|line| {
            let req = nox::serve::proto::Request::parse(line).expect(line);
            req.canonical().expect("sweeps are cacheable")
        })
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 132);

    // Every tenth hit-client step is a ping; the rest name a prefilled request.
    for (i, op) in a.hits.iter().enumerate() {
        match op {
            HitOp::Ping => assert_eq!(i % 10, 9),
            HitOp::Repeat(n) => assert!(i % 10 != 9 && *n < 32),
        }
    }
}

#[test]
fn tail_percentiles_need_ten_samples_beyond_them() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&samples, 900), Some(90.0));
    assert_eq!(tail_percentile(&samples, 990), None);
    assert_eq!(tail_percentile(&samples[..99], 900), None);
    assert_eq!(highest_tail(&samples), Some((900, 90.0)));
    assert_eq!(highest_tail(&samples[..39]), None);
    assert_eq!(highest_tail(&samples[..40]), Some((750, 30.0)));
    let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(highest_tail(&many), Some((999, 9990.0)));

    assert_eq!(quantile(&samples, 0.10), 10.0);
    assert_eq!(quantile(&samples, 0.5), 50.0);
    assert_eq!(quantile(&samples[..2], 0.10), 1.0);
}

#[test]
fn digest_fits_a_json_number_and_sees_every_word() {
    let digest = |words: &[u64]| {
        let mut d = Digest::default();
        words.iter().for_each(|w| d.push(*w));
        d.finish()
    };
    let a = digest(&[1, 2, 3]);
    assert!(a < 1 << 53);
    assert_eq!(a as f64 as u64, a);
    assert_ne!(a, digest(&[1, 2, 4]));
    assert_ne!(a, digest(&[2, 1, 3]));
}

#[test]
fn self_time_is_a_span_minus_its_children() {
    let mut spans = Spans::new(Instant::now(), 0, true);
    let busy = |ms| {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms {}
    };
    spans.time("outer", 0, |s| {
        s.time("inner", 0, |_| busy(4));
        s.time("inner", 1, |_| busy(4));
        busy(2);
    });
    let mut other = spans.fork(1);
    other.time("elsewhere", 0, |s| s.time("inner", 2, |_| busy(1)));
    spans.absorb(other);

    let all = spans.spans();
    assert_eq!(all.len(), 5);
    assert_eq!(all[1].parent, Some(0));
    assert_eq!(all[4].parent, Some(3), "absorbed spans keep their parents");
    let by_name = self_times(all);
    let (n, total, own) = by_name["outer"];
    assert_eq!(n, 1);
    assert!(
        total >= 0.010 && own >= 0.002 && own < total - 0.008,
        "{total} {own}"
    );
    assert_eq!(by_name["inner"].0, 3);

    // With recording off the stopwatch still works and keeps nothing.
    let mut quiet = Spans::new(Instant::now(), 0, false);
    let ((), secs) = quiet.time("outer", 0, |_| busy(1));
    assert!(secs >= 0.001 && quiet.spans().is_empty());
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn registry_result_object_and_benchmark_json_agree() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let registry = |defs: &[Def]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), registry(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), registry(PER_LAYER));
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    // The contract's lexical rules, and no name used twice.
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let ok = |s: &str, extra: &str, max| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(
            ok(d.name, "_.-", 64) && d.name.as_bytes()[0].is_ascii_alphanumeric(),
            "{}",
            d.name
        );
        assert!(ok(d.unit, "_/%.-", 16), "{} {}", d.name, d.unit);
        names.push(d.name);
    }
    names.sort_unstable();
    let n = names.len();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));

    // A run prints exactly its mode's metrics, with 0 for a layer the
    // workload never entered, and exactly the contract's four keys.
    let mut out = Outcome::default();
    out.check(true);
    out.set("nox-sim.cycles", 800_000.0);
    let result = out.to_json(true);
    let Json::Obj(fields) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), PER_LAYER.len());
    let value = |name| result.get("metrics")?.get(name)?.get("value")?.as_f64();
    assert_eq!(value("nox-sim.cycles"), Some(800_000.0));
    assert_eq!(value("nox-serve.cold_n"), Some(0.0));

    // One failed operation, or a value that is not a number, is not correct.
    out.check(false);
    assert!(!out.correct());
    let mut nan = Outcome::default();
    nan.check(true);
    nan.set("nox-sim.cycles", f64::NAN);
    assert!(!nan.correct());
}

#[test]
#[should_panic(expected = "not in the registry")]
fn an_unregistered_metric_is_a_bug() {
    let mut out = Outcome::default();
    out.set("wall_s", 1.0);
    out.metrics(true);
}
