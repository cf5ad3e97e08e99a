//! The machine-checked protocol: the bounded model check of the NoX
//! output and decode FSMs (`nox-verify`), the mutation smoke that shows
//! the checker catches each disabled rule, the I7 CRC invariant, and a
//! sanitized sweep of the paper's mesh.
//!
//! Every part always runs; the verdict ([`VerifyResult::ok`]) is their
//! conjunction. `Full` explores [`Bounds::full`] and sanitizes two rates,
//! `Quick` and `Smoke` explore [`Bounds::quick`] at one rate. The I7
//! sweep runs at [`FaultBounds::quick`] at every tier.

use std::fmt::Write as _;

use crate::harness::Tier;
use crate::json::Json;
use crate::sweep::{run_rates, SweepConfig};
use nox_exec::Executor;
use nox_sim::config::{Arch, NetConfig};
use nox_sim::network::Network;
use nox_traffic::synthetic::UNIFORM_SEED;
use nox_verify::{
    check_decoder_crc_with, check_with, mutation_smoke_with, Bounds, CheckReport, FaultBounds,
    FaultCheckReport, MutationReport,
};

/// Versioned schema of the `--json` document.
pub const SCHEMA: &str = "nox-bench/verify/v1";

/// Cycle budget of one sanitized run; a run that has not drained by
/// then fails the sweep.
const SANITIZED_MAX_CYCLES: u64 = 500_000;

/// One architecture at one rate, stepped to quiescence with every
/// sanitizer audit on. An audit failure panics the run.
#[derive(Clone, Debug)]
pub struct SanitizedRun {
    /// Router architecture.
    pub arch: Arch,
    /// Offered load, MB/s/node.
    pub rate_mbps: f64,
    /// Whether the network drained within the cycle budget.
    pub drained: bool,
    /// Flits ejected.
    pub flits_ejected: u64,
    /// Cycles stepped.
    pub cycles: u64,
}

/// The four parts of the protocol check.
#[derive(Clone, Debug)]
pub struct VerifyResult {
    /// The model checker's bounds.
    pub bounds: Bounds,
    /// The bounded model check.
    pub model: CheckReport,
    /// One report per mutation, in `Mutation::ALL` order.
    pub mutations: Vec<MutationReport>,
    /// The I7 decoder-CRC sweep.
    pub fault: FaultCheckReport,
    /// The sanitized runs, architecture-major.
    pub sanitized: Vec<SanitizedRun>,
}

/// Runs every part at `tier`, fanned out over `exec`.
pub fn run(tier: Tier, exec: &Executor) -> VerifyResult {
    let (bounds, rates) = match tier {
        Tier::Full => (Bounds::full(), vec![500.0, 2_000.0]),
        Tier::Quick | Tier::Smoke => (Bounds::quick(), vec![800.0]),
    };
    VerifyResult {
        model: check_with(&bounds, exec),
        mutations: mutation_smoke_with(&bounds, exec),
        fault: check_decoder_crc_with(&FaultBounds::quick(), exec),
        sanitized: sanitized_sweep(rates, exec),
        bounds,
    }
}

/// Every architecture on the paper's mesh at every rate, under the
/// sanitizer: uniform single-flit Poisson traffic of 4 µs, one trace per
/// rate. The runs go rate-major, so a rate's trace lives only while its
/// networks run, and come back architecture-major.
fn sanitized_sweep(rates: Vec<f64>, exec: &Executor) -> Vec<SanitizedRun> {
    let cfg = SweepConfig {
        seed: UNIFORM_SEED,
        duration_ns: 4_000.0,
        ..SweepConfig::uniform(rates)
    };
    let nets = Arch::ALL.map(NetConfig::paper);
    let runs = run_rates(
        "verify.sanitized",
        exec,
        &cfg,
        &nets,
        |_, rate, net_cfg, trace| {
            let mut net = Network::new(net_cfg, trace, (0.0, f64::MAX));
            net.enable_sanitizer();
            let drained = net.run_to_quiescence(SANITIZED_MAX_CYCLES);
            let c = net.counters();
            SanitizedRun {
                arch: net_cfg.arch,
                rate_mbps: rate,
                drained,
                flits_ejected: c.flits_ejected,
                cycles: c.cycles,
            }
        },
    );
    (0..nets.len())
        .flat_map(|a| runs.iter().skip(a).step_by(nets.len()).cloned())
        .collect()
}

impl VerifyResult {
    /// The search was exhausted with no violation, every mutation was
    /// caught, I7 is clean and every sanitized run drained.
    pub fn ok(&self) -> bool {
        self.model.is_clean()
            && self.mutations.iter().all(|r| r.caught.is_some())
            && self.fault.is_clean()
            && self.sanitized.iter().all(|s| s.drained)
    }

    /// The four sections, each ending in its verdict.
    pub fn render(&self) -> String {
        let (b, m, f) = (&self.bounds, &self.model, &self.fault);
        let mut out = format!(
            "== bounded model check: {} scenarios (<= {} inputs, <= {} flits, depths {:?}) ==\n\
             explored {} states across {} scenarios; exhausted: {}\n",
            m.scenarios,
            b.max_inputs,
            b.max_total_flits,
            b.depths,
            m.states,
            m.scenarios,
            m.exhausted
        );
        for v in &m.violations {
            let _ = writeln!(out, "VIOLATION {v}");
        }
        let _ = match m.violations.len() {
            _ if !m.exhausted => writeln!(
                out,
                "state budget exhausted before closing the reachable space\n"
            ),
            0 => writeln!(
                out,
                "no violations: the protocol invariants hold over the bounded space\n"
            ),
            n => writeln!(out, "{n} protocol violation(s) found\n"),
        };

        out.push_str("== mutation smoke: each disabled rule must be caught ==\n");
        for r in &self.mutations {
            let (name, what) = (r.mutation.name(), r.mutation.description());
            let _ = match &r.caught {
                Some(v) => {
                    let (kind, states) = (v.kind.name(), r.states);
                    writeln!(
                        out,
                        "caught  {name:<24} ({what}) as {kind} after {states} states"
                    )
                }
                None => writeln!(out, "MISSED  {name:<24} ({what})"),
            };
        }
        let _ = match self.mutations.iter().filter(|r| r.caught.is_none()).count() {
            0 => writeln!(out, "all mutations caught: the invariants have teeth\n"),
            n => writeln!(out, "{n} mutation(s) survived the checker\n"),
        };

        let _ = writeln!(
            out,
            "== fault invariant I7: CRC shields every single-bit link strike ==\n\
             {} chain shapes, {} strike cases, {} presentations: {} corrupted, {} flagged, \
             max fan-out {}",
            f.shapes, f.cases, f.presented, f.corrupted, f.flagged, f.max_fanout
        );
        for v in &f.violations {
            let (label, key, want, got) = (&v.label, v.key, v.expected, v.actual);
            let _ = writeln!(
                out,
                "SILENT CORRUPTION {label}: key {key} expected {want:#x} got {got:#x}"
            );
        }
        let _ = match f.violations.len() {
            _ if f.is_clean() => writeln!(
                out,
                "no silent corruption: every corrupted presentation is CRC-flagged\n"
            ),
            n => writeln!(out, "fault invariant failed: {n} silent corruption(s)\n"),
        };

        out.push_str("== sanitized simulation smoke sweep ==\n");
        for s in &self.sanitized {
            let (arch, rate, flits, cycles) =
                (s.arch.name(), s.rate_mbps, s.flits_ejected, s.cycles);
            let _ = if s.drained {
                writeln!(
                    out,
                    "ok  {arch:<16} @ {rate:>5.0} MB/s/node: {flits} flits, {cycles} cycles, \
                     every audit clean"
                )
            } else {
                writeln!(
                    out,
                    "FAILED {arch} @ {rate:.0} MB/s/node: not drained after {cycles} cycles"
                )
            };
        }
        out.push_str(if self.sanitized.iter().all(|s| s.drained) {
            "sanitized sweep clean\n"
        } else {
            "sanitized sweep FAILED\n"
        });
        out
    }

    /// The versioned machine-readable document.
    pub fn to_json(&self) -> Json {
        let (m, f) = (&self.model, &self.fault);
        let mutations = self.mutations.iter().map(|r| {
            Json::obj()
                .field("mutation", r.mutation.name())
                .field("caught_as", r.caught.as_ref().map(|v| v.kind.name()))
                .field("states", r.states)
        });
        let sanitized = self.sanitized.iter().map(|s| {
            Json::obj()
                .field("arch", s.arch.name())
                .field("rate_mbps", s.rate_mbps)
                .field("drained", s.drained)
                .field("flits_ejected", s.flits_ejected)
                .field("cycles", s.cycles)
        });
        let violations: Vec<String> = m.violations.iter().map(ToString::to_string).collect();
        let silent: Vec<String> = f.violations.iter().map(|v| v.label.clone()).collect();
        let model_check = Json::obj()
            .field("scenarios", m.scenarios)
            .field("states", m.states)
            .field("exhausted", m.exhausted)
            .field("violations", violations);
        let fault_invariant = Json::obj()
            .field("cases", f.cases)
            .field("corrupted", f.corrupted)
            .field("flagged", f.flagged)
            .field("max_fanout", f.max_fanout)
            .field("silent", silent);
        Json::obj()
            .field("schema", SCHEMA)
            .field("ok", self.ok())
            .field("model_check", model_check)
            .field("mutations", Json::Arr(mutations.collect()))
            .field("fault_invariant", fault_invariant)
            .field("sanitized", Json::Arr(sanitized.collect()))
    }
}
