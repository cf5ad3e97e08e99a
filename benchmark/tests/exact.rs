//! The "(exact)" metrics are simulated counts: for one seed they must
//! repeat bit for bit across runs in one process, and a different seed
//! must move them. Both workloads run here at a tiny size through the
//! same library functions the CLI calls, in one test, because
//! `profile::collect` flips a process-wide switch.

use std::collections::BTreeMap;

use nox_benchmark::mesh::{self, MeshSpec};
use nox_benchmark::serve::{self, ServeSpec};
use nox_benchmark::{Outcome, RunArgs, PER_LAYER};

fn args(seed: u64) -> RunArgs {
    RunArgs {
        seed,
        seconds: 1,
        traced: true,
        scratch: format!("out/test-exact-{}", std::process::id()).into(),
    }
}

/// The exact metrics of a traced run, after checking it was correct.
fn exact(out: &Outcome) -> BTreeMap<&'static str, u64> {
    assert!(
        out.correct(),
        "{} of {} operations failed",
        out.failed,
        out.attempted
    );
    out.metrics(true)
        .into_iter()
        .filter(|(d, _)| d.exact)
        .map(|(d, v)| (d.name, v.to_bits()))
        .collect()
}

fn differing<'a>(
    a: &'a BTreeMap<&'static str, u64>,
    b: &BTreeMap<&'static str, u64>,
) -> Vec<&'a str> {
    a.iter()
        .filter(|(k, v)| b[*k] != **v)
        .map(|(k, _)| *k)
        .collect()
}

#[test]
fn exact_metrics_repeat_for_a_seed_and_move_with_it() {
    assert!(PER_LAYER.iter().filter(|d| d.exact).count() >= 20);

    let spec = MeshSpec {
        rate_mbps: 2_000.0,
        segments: 3,
        segment_cycles: 300,
        warmup_cycles: 100,
    };
    let run = |seed| exact(&mesh::run("mesh_tiny", &spec, &args(seed)));
    let (a, b, other) = (run(1), run(1), run(2));
    assert_eq!(a, b, "same seed, different exact metrics");
    assert_eq!(f64::from_bits(a["nox-sim.cycles"]), 4.0 * 3.0 * 300.0);
    assert!(f64::from_bits(a["nox-sim.allocs_per_cycle"]) > 0.0);
    let moved = differing(&a, &other);
    for name in [
        "nox-sim.stats_digest",
        "nox-sim.link_flits",
        "nox-sim.allocs_per_cycle",
        "nox-traffic.events",
    ] {
        assert!(
            moved.contains(&name),
            "{name} ignored the seed; moved: {moved:?}"
        );
    }

    let spec = ServeSpec {
        prefill: 3,
        cold: 2,
        think_ms: 1,
    };
    let run = |seed| exact(&serve::run(&spec, &args(seed)));
    let (a, b, other) = (run(1), run(1), run(2));
    assert_eq!(a, b, "same seed, different exact metrics");
    // Prefill, the untraced reference, then the traced cold requests.
    assert_eq!(f64::from_bits(a["nox-serve.computed"]), 3.0 + 2.0 + 2.0);
    assert_eq!(f64::from_bits(a["nox-serve.cold_n"]), 2.0);
    assert_eq!(f64::from_bits(a["nox-serve.rejected"]), 0.0);
    // The probes step a network for the seeded cold request, so the step
    // count moves with the artifact bytes.
    assert_eq!(
        differing(&a, &other),
        ["nox-serve.cache.bytes", "nox-sim.steps"]
    );

    let _ = std::fs::remove_dir_all(args(0).scratch);
}
