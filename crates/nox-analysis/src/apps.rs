//! Application-workload runs (Figures 10, 11).
//!
//! Each workload produces two traces — request and reply network — that
//! run through two independent physical networks of the same router
//! architecture (§5.2's dual-network CMP). Latency is averaged over
//! packets of both networks; energy is summed.
//!
//! This module decides which traces a workload runs on:
//! [`workload_traces`] synthesizes them over the paper's 64 cores, and
//! [`measure_workload`] synthesizes them once and runs every
//! architecture's two networks on that one synthesis.

use nox_power::energy::EnergyModel;
use nox_sim::config::{Arch, NetConfig};
use nox_sim::sim::{run, RunSpec};
use nox_sim::topology::Mesh;
use nox_traffic::cmp::{synthesize, CmpTraces, Workload};

/// The outcome of one workload on one architecture.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Router architecture.
    pub arch: Arch,
    /// Workload name.
    pub workload: &'static str,
    /// Mean packet latency across both networks, nanoseconds.
    pub latency_ns: f64,
    /// Mean packet latency on the request network alone.
    pub request_latency_ns: f64,
    /// Mean packet latency on the reply network alone.
    pub reply_latency_ns: f64,
    /// Mean dynamic energy per packet across both networks, picojoules.
    pub energy_per_packet_pj: f64,
    /// Energy-delay^2 figure of merit (pJ * ns^2).
    pub ed2: f64,
    /// `true` when all measured packets of both networks drained.
    pub drained: bool,
}

/// Default measurement phases for application runs.
pub fn app_run_spec() -> RunSpec {
    RunSpec {
        warmup_ns: 1_500.0,
        measure_ns: 6_000.0,
        drain_ns: 60_000.0,
    }
}

/// Trace duration that comfortably covers [`app_run_spec`].
pub const APP_TRACE_NS: f64 = 40_000.0;

/// The request and reply traces of `w`: `trace_ns` of traffic from the
/// paper's 64 cores (one per router of the 8x8 mesh), drawn from `seed`.
pub fn workload_traces(w: &Workload, trace_ns: f64, seed: u64) -> CmpTraces {
    synthesize(Mesh::new(8, 8), w, trace_ns, seed)
}

/// Runs `workload` on both physical networks of `arch` with the default
/// trace length ([`APP_TRACE_NS`]): [`measure_workload`] with one
/// architecture.
pub fn run_workload(arch: Arch, w: &Workload, seed: u64, spec: &RunSpec) -> AppResult {
    measure_workload(&[arch], w, seed, spec, APP_TRACE_NS)
        .pop()
        .expect("one architecture, one result")
}

/// Runs `workload` on both physical networks of every architecture in
/// `archs`, in that order: its traffic is synthesized once
/// ([`workload_traces`], `trace_ns` long; `spec`'s warm-up and window
/// must fit inside it) and every architecture runs on that synthesis.
pub fn measure_workload(
    archs: &[Arch],
    w: &Workload,
    seed: u64,
    spec: &RunSpec,
    trace_ns: f64,
) -> Vec<AppResult> {
    let traces = workload_traces(w, trace_ns, seed);
    archs
        .iter()
        .map(|&arch| {
            let net = NetConfig::paper(arch);
            let model = EnergyModel::for_arch(arch);
            let rq = run(net, &traces.request, spec);
            let rp = run(net, &traces.reply, spec);

            let packets = (rq.latency_ns.count() + rp.latency_ns.count()).max(1) as f64;
            let latency_ns = (rq.latency_ns.sum() + rp.latency_ns.sum()) / packets;
            let energy_pj =
                model.total_pj(&rq.window_counters) + model.total_pj(&rp.window_counters);
            let ejected = (rq.window_counters.packets_ejected + rp.window_counters.packets_ejected)
                .max(1) as f64;
            let energy_per_packet_pj = energy_pj / ejected;

            AppResult {
                arch,
                workload: w.name,
                latency_ns,
                request_latency_ns: rq.avg_latency_ns(),
                reply_latency_ns: rp.avg_latency_ns(),
                energy_per_packet_pj,
                ed2: energy_per_packet_pj * latency_ns * latency_ns,
                drained: rq.drained && rp.drained,
            }
        })
        .collect()
}

/// Geometric-mean improvement of `a` over `b` in ED^2 across paired
/// results, in percent (positive = `a` better). This is how the paper
/// summarizes Figure 11 ("on average the NoX architecture outperforms
/// ... by 29.5%, 34.4%, and 2.7%").
pub fn mean_ed2_improvement_pct(a: &[AppResult], b: &[AppResult]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired result sets required");
    assert!(!a.is_empty(), "need at least one workload");
    let log_sum: f64 = a
        .iter()
        .zip(b)
        .map(|(ra, rb)| {
            assert_eq!(ra.workload, rb.workload, "mismatched workload pairing");
            (rb.ed2 / ra.ed2).ln()
        })
        .sum();
    ((log_sum / a.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nox_traffic::cmp::workload;

    fn quick_spec() -> RunSpec {
        RunSpec {
            warmup_ns: 500.0,
            measure_ns: 1_500.0,
            drain_ns: 40_000.0,
        }
    }

    #[test]
    fn light_workload_runs_on_all_architectures() {
        let w = workload("water").unwrap();
        let shared = measure_workload(&Arch::ALL, w, 3, &quick_spec(), APP_TRACE_NS);
        assert_eq!(shared.len(), Arch::ALL.len());
        for (arch, one_synthesis) in Arch::ALL.into_iter().zip(&shared) {
            let r = run_workload(arch, w, 3, &quick_spec());
            // One synthesis for all four measures what one per architecture does.
            assert_eq!(format!("{r:?}"), format!("{one_synthesis:?}"), "{arch}");
            assert!(r.drained, "{arch} failed to drain water");
            assert!(r.latency_ns > 0.0);
            assert!(r.energy_per_packet_pj > 0.0);
            assert!(r.ed2 > 0.0);
        }
    }

    #[test]
    fn reply_network_is_slower_than_request_network() {
        // Data packets (9 flits) dominate the reply network.
        let r = run_workload(Arch::Nox, workload("lu").unwrap(), 3, &quick_spec());
        assert!(r.reply_latency_ns > r.request_latency_ns);
    }

    #[test]
    fn ed2_improvement_is_signed_correctly() {
        let mk = |ed2: f64| AppResult {
            arch: Arch::Nox,
            workload: "x",
            latency_ns: 1.0,
            request_latency_ns: 1.0,
            reply_latency_ns: 1.0,
            energy_per_packet_pj: 1.0,
            ed2,
            drained: true,
        };
        let a = vec![mk(1.0)];
        let b = vec![mk(1.3)];
        let pct = mean_ed2_improvement_pct(&a, &b);
        assert!((pct - 30.0).abs() < 1e-9);
        assert!(mean_ed2_improvement_pct(&b, &a) < 0.0);
    }
}
