//! `noxsim` — command-line front end for the NoX reproduction.
//!
//! Every command, its positional arguments, the flags it accepts and its
//! one-line description live in one table ([`COMMANDS`]); `noxsim --help`
//! prints it, and a flag a command does not list is an error, not a
//! silent no-op.
//!
//! `--threads N` fans the heavy sweeps (`claims`, `run`, `profile`) out
//! over a deterministic worker pool
//! ([`nox::exec`]); results reduce in submission order, so every table,
//! claim status, and JSON artifact is bit-identical at any thread count.
//! `N` defaults to the machine's available parallelism; `--threads 1`
//! runs everything inline on the calling thread.
//!
//! `run` regenerates one figure or table of the paper, or runs the
//! protocol and deadlock checks, from the harness table
//! ([`nox::analysis::harness::HARNESSES`]); `profile` runs the same
//! harness under the span profiler and emits the `nox-bench/profile/v2`
//! phase-attribution artifact. `--stream FILE|-` additionally emits
//! line-delimited JSON progress events while an instrumented command
//! runs — the wire format `noxsim serve` speaks.

use std::collections::BTreeMap;
use std::process::ExitCode;

use nox::analysis::apps::{app_run_spec, measure_workload, workload_traces, APP_TRACE_NS};
use nox::analysis::harness::{self, fig12};
use nox::analysis::sweep::{measure_rate, point_from_result, SweepConfig};
use nox::analysis::{Json, Table, Tier};
use nox::power::energy::EnergyModel;
use nox::power::timing::CriticalPath;
use nox::prelude::*;
use nox::traffic::cmp::workload;
use nox::traffic::synthetic::{generate, Process};

type Opts = BTreeMap<String, String>;

/// One `noxsim` command: all that the argument parser, `--help` and the
/// dispatcher know about it.
struct Command {
    name: &'static str,
    /// How `--help` writes the command's one positional argument, or
    /// `""` when it takes none.
    positional: &'static str,
    /// Flags that take a value, with the placeholder `--help` shows.
    values: &'static [(&'static str, &'static str)],
    /// Flags that take none.
    switches: &'static [&'static str],
    help: &'static str,
    run: fn(&[String], &Opts) -> Result<(), String>,
}

const NONE: &str = "";
const HARNESS: &str = "HARNESS";
const ARCH: (&str, &str) = ("arch", "all|nonspec|fast|acc|nox");
const PATTERN: (&str, &str) = ("pattern", "uniform|transpose|...");
const RATE: (&str, &str) = ("rate", "MBPS");
const LEN: (&str, &str) = ("len", "FLITS");
const SEED: (&str, &str) = ("seed", "N");
const OUT: (&str, &str) = ("out", "FILE");
const THREADS: (&str, &str) = ("threads", "N|auto");
const STREAM: (&str, &str) = ("stream", "FILE|-");
const SOCKET: (&str, &str) = ("socket", "PATH");
const PROBE_OUT: (&str, &str) = ("probe-out", "FILE");
const WAVE: (&str, &str) = ("wave", "NODE");
const CHROME: (&str, &str) = ("chrome", "FILE");

const COMMANDS: &[Command] = &[
    Command {
        name: "sweep",
        positional: NONE,
        values: &[
            ARCH,
            PATTERN,
            ("process", "poisson|pareto"),
            ("rates", "MBPS,MBPS,..."),
            LEN,
            SEED,
            PROBE_OUT,
            WAVE,
            CHROME,
        ],
        switches: &["cmesh", "csv", "probe"],
        help: "latency/throughput/ED^2 over injection rates",
        run: |_, o| cmd_sweep(o),
    },
    Command {
        name: "app",
        positional: NONE,
        values: &[ARCH, ("workload", "tpcc|...|all"), SEED, PROBE_OUT, WAVE, CHROME],
        switches: &["csv", "probe"],
        help: "cache-coherent CMP workloads on two physical networks",
        run: |_, o| cmd_app(o),
    },
    Command {
        name: "power",
        positional: NONE,
        values: &[ARCH, RATE],
        switches: &["cmesh", "csv"],
        help: "Figure 12-style power breakdown at one rate",
        run: |_, o| cmd_power(o),
    },
    Command {
        name: "gen",
        positional: NONE,
        values: &[OUT, PATTERN, RATE, ("duration", "NS"), LEN, SEED],
        switches: &[],
        help: "generate a trace file (needs --out)",
        run: |_, o| cmd_gen(o),
    },
    Command {
        name: "replay",
        positional: NONE,
        values: &[("trace", "FILE"), ARCH, PROBE_OUT, WAVE, CHROME],
        switches: &["cmesh", "csv", "probe"],
        help: "run a trace file through a network (needs --trace)",
        run: |_, o| cmd_replay(o),
    },
    Command {
        name: "heatmap",
        positional: NONE,
        values: &[ARCH, RATE, PATTERN, LEN, SEED],
        switches: &["cmesh"],
        help: "per-router utilization/occupancy grids",
        run: |_, o| cmd_heatmap(o),
    },
    Command {
        name: "claims",
        positional: NONE,
        values: &[OUT, ("baseline", "FILE"), THREADS, STREAM],
        switches: &["quick", "smoke", "full", "update-baseline"],
        help: "evaluate the paper-conformance registry and diff CLAIMS_BASELINE.json (default tier quick; --update-baseline re-pins)",
        run: |_, o| cmd_claims(o),
    },
    Command {
        name: "run",
        positional: HARNESS,
        values: &[OUT, THREADS, STREAM],
        switches: &["quick", "smoke", "full", "json"],
        help: "run one harness: a figure or table of the paper, a study, or a check (default tier full; --json prints the nox-bench/<harness>/vN document)",
        run: cmd_run,
    },
    Command {
        name: "profile",
        positional: HARNESS,
        values: &[OUT, CHROME, THREADS, STREAM],
        switches: &["quick", "smoke", "full", "json"],
        help: "span-profile one harness (default tier quick); the nox-bench/profile/v2 artifact goes to --out or --json",
        run: cmd_profile,
    },
    Command {
        name: "serve",
        positional: NONE,
        values: &[
            SOCKET,
            ("cache-dir", "DIR"),
            ("queue-cap", "N"),
            THREADS,
            ("deadline-ms", "N"),
            ("watchdog-ms", "N"),
        ],
        switches: &["debug-ops"],
        help: "crash-safe simulation daemon on a Unix socket: bounded queue, deadlines, watchdog, SIGTERM drain, result cache",
        run: |_, o| cmd_serve(o),
    },
    Command {
        name: "client",
        positional: "REQUEST_JSON",
        values: &[SOCKET, ("attempts", "N"), ("rounds", "N")],
        switches: &["quiet"],
        help: "send one request line to a serve daemon and stream its events",
        run: cmd_client,
    },
    Command {
        name: "info",
        positional: NONE,
        values: &[],
        switches: &[],
        help: "clock periods, area, configuration summary",
        run: |_, _| cmd_info(),
    },
];

impl Command {
    /// `name ARGS [--flag VALUE] ... [--switch] ...`, as `--help` and the
    /// unknown-flag error print it.
    fn synopsis(&self) -> String {
        let mut s = self.name.to_string();
        if !self.positional.is_empty() {
            s.push(' ');
            s.push_str(self.positional);
        }
        for (flag, value) in self.values {
            s.push_str(&format!(" [--{flag} {value}]"));
        }
        for flag in self.switches {
            s.push_str(&format!(" [--{flag}]"));
        }
        s
    }

    /// Splits the arguments after the command name into positionals and
    /// flags, rejecting anything this command does not list.
    fn parse(&self, rest: &[String]) -> Result<(Vec<String>, Opts), String> {
        let mut positional = Vec::new();
        let mut opts = Opts::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            if self.switches.contains(&name) {
                opts.insert(name.to_string(), "true".into());
            } else if self.values.iter().any(|(flag, _)| *flag == name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                opts.insert(name.to_string(), value.clone());
            } else {
                return Err(format!(
                    "`{}` has no flag --{name}; usage: noxsim {}",
                    self.name,
                    self.synopsis()
                ));
            }
        }
        if positional.len() != usize::from(!self.positional.is_empty()) {
            return Err(format!(
                "`{}` got {} positional argument(s) {positional:?}; usage: noxsim {}",
                self.name,
                positional.len(),
                self.synopsis()
            ));
        }
        Ok((positional, opts))
    }
}

fn usage() -> String {
    let mut out = String::from("noxsim — the NoX router reproduction\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {}\n      {}\n", c.synopsis(), c.help));
    }
    out.push_str("\nharnesses (`run HARNESS`, `profile HARNESS`):\n");
    for h in harness::HARNESSES {
        out.push_str(&format!("  {:<9} {}\n", h.name, h.what));
    }
    out.push('\n');
    out.push_str(
        "--threads: deterministic worker pool (default: all cores; artifacts are \
         bit-identical at any thread count)\n\
         --stream: line-delimited JSON progress events to FILE (or stdout with `-`) \
         while the command runs\n\
         --probe, --probe-out, --wave, --chrome: cycle-level telemetry of the simulated \
         runs (`profile --chrome`: the recorded wall-clock spans)\n",
    );
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => {
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        Some((cmd, _)) if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            print!("{}", usage());
            Ok(())
        }
        Some((cmd, rest)) => match COMMANDS.iter().find(|c| c.name == cmd) {
            Some(c) => c
                .parse(rest)
                .and_then(|(positional, opts)| (c.run)(&positional, &opts)),
            None => Err(format!(
                "unknown command {cmd:?}; one of: {}",
                COMMANDS
                    .iter()
                    .map(|c| c.name)
                    .collect::<Vec<_>>()
                    .join(" ")
            )),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn archs(opts: &Opts) -> Result<Vec<Arch>, String> {
    let name = opts.get("arch").map(String::as_str).unwrap_or("all");
    Arch::parse(name).ok_or_else(|| format!("unknown --arch {name:?}"))
}

fn pattern(opts: &Opts) -> Result<Pattern, String> {
    let name = opts.get("pattern").map(String::as_str).unwrap_or("uniform");
    Pattern::parse(name).ok_or_else(|| format!("unknown --pattern {name:?}"))
}

/// The tier the `--quick` / `--smoke` / `--full` flags select, or the
/// command's default. When more than one is given the cheapest wins.
fn tier(opts: &Opts, default: Tier) -> Tier {
    ["smoke", "quick", "full"]
        .into_iter()
        .find(|name| opts.contains_key(*name))
        .and_then(Tier::parse)
        .unwrap_or(default)
}

fn net_config(opts: &Opts, arch: Arch) -> NetConfig {
    if opts.contains_key("cmesh") {
        NetConfig::cmesh_paper(arch)
    } else {
        NetConfig::paper(arch)
    }
}

fn f64_opt(opts: &Opts, key: &str, default: f64) -> Result<f64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
    }
}

fn u64_opt(opts: &Opts, key: &str, default: u64) -> Result<u64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer {v:?}")),
    }
}

/// An injection rate given as `--KEY`: finite MB/s/node, 0 or more.
fn checked_rate(key: &str, rate: f64) -> Result<f64, String> {
    if rate.is_finite() && rate >= 0.0 {
        Ok(rate)
    } else {
        Err(format!(
            "--{key}: {rate} is not a rate in MB/s/node (finite, 0 or more)"
        ))
    }
}

/// `--rate`, checked as [`checked_rate`].
fn rate_opt(opts: &Opts, default: f64) -> Result<f64, String> {
    checked_rate("rate", f64_opt(opts, "rate", default)?)
}

/// `--len`: a packet length in flits, an integer in `1..=65535`.
fn len_opt(opts: &Opts) -> Result<u16, String> {
    let len = u64_opt(opts, "len", 1)?;
    u16::try_from(len)
        .ok()
        .filter(|&len| len >= 1)
        .ok_or_else(|| format!("--len: {len} is not a flit count in 1..=65535"))
}

/// The worker pool selected by `--threads` (default: all available
/// cores). Every fan-out it drives reduces in submission order, so the
/// thread count never changes any output.
fn executor(opts: &Opts) -> Result<nox::exec::Executor, String> {
    match opts.get("threads") {
        None => Ok(nox::exec::Executor::default()),
        Some(v) => nox::exec::parse_threads(v)
            .map(nox::exec::Executor::new)
            .map_err(|e| format!("--threads: {e}")),
    }
}

/// Installs the line-delimited JSON event stream when `--stream FILE|-`
/// is given (`-` streams to stdout). Every subsequent executor stage and
/// job emits a progress event; see DESIGN.md §14 for the wire format.
/// Returns whether a stream was installed, for [`finish_stream`].
fn setup_stream(opts: &Opts, cmd: &str) -> Result<bool, String> {
    use nox::telemetry::stream;
    let Some(target) = opts.get("stream") else {
        return Ok(false);
    };
    let writer: Box<dyn std::io::Write + Send> = if target == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(
            std::fs::File::create(target)
                .map_err(|e| format!("--stream: could not create {target}: {e}"))?,
        )
    };
    stream::set(writer);
    stream::emit("run", &[("cmd", Json::from(cmd))]);
    Ok(true)
}

/// Emits the closing `done` event and detaches the stream sink.
fn finish_stream(streaming: bool) {
    if streaming {
        nox::telemetry::stream::emit("done", &[]);
        nox::telemetry::stream::clear();
    }
}

/// Prints a report — the JSON document under `--json`, the rendered text
/// otherwise — then writes the document to `--out` (or the command's
/// default artifact path, if it has one).
fn emit_report(
    opts: &Opts,
    text: &str,
    json: &Json,
    default_out: Option<&str>,
) -> Result<(), String> {
    if opts.contains_key("json") {
        println!("{json}");
    } else {
        print!("{text}");
    }
    if let Some(out) = opts.get("out").map(String::as_str).or(default_out) {
        std::fs::write(out, format!("{json}\n"))
            .map_err(|e| format!("could not write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Runs one row of the harness table — a figure or table of the paper,
/// a beyond-paper study, or a protocol or deadlock check — at the full
/// tier unless told otherwise. Non-zero exit when the harness's own
/// check fails (a golden trace diverged, the timing model drifted from
/// Table 2, a mutation survived the model checker, ...).
fn cmd_run(positional: &[String], opts: &Opts) -> Result<(), String> {
    let h = harness::find(&positional[0])?;
    let tier = tier(opts, Tier::Full);
    let exec = executor(opts)?;
    eprintln!(
        "running {} at the {} tier on {} thread(s)...",
        h.name,
        tier.name(),
        exec.threads()
    );
    let streaming = setup_stream(opts, "run")?;
    let report = (h.run)(tier, &exec);
    finish_stream(streaming);
    emit_report(opts, &report.text, &report.json, None)?;
    if report.ok {
        Ok(())
    } else {
        Err(format!("{}: the harness's own check failed", h.name))
    }
}

/// Runs one figure harness under the span profiler and reports where the
/// wall time went: the per-phase attribution table, executor worker
/// utilization, and latency histograms, plus the versioned
/// `nox-bench/profile/v2` JSON artifact (`--out FILE`, or `--json` to
/// print it). `--chrome FILE` additionally writes the recorded spans as
/// a Chrome trace-event document.
fn cmd_profile(positional: &[String], opts: &Opts) -> Result<(), String> {
    use nox::analysis::profile;

    let h = harness::find(&positional[0])?;
    let tier = tier(opts, Tier::Quick);
    let exec = executor(opts)?;
    let streaming = setup_stream(opts, "profile")?;
    eprintln!(
        "profiling {} at the {} tier on {} thread(s)...",
        h.name,
        tier.name(),
        exec.threads()
    );
    let (harness_report, report) =
        profile::collect(h.name, tier, exec.threads(), || (h.run)(tier, &exec));
    finish_stream(streaming);
    print!("{}", harness_report.text);
    if !harness_report.text.ends_with('\n') {
        println!();
    }
    emit_report(opts, &report.render(), &report.to_json(), None)?;
    if let Some(path) = opts.get("chrome") {
        std::fs::write(path, nox::probe::chrome::chrome_spans(report.acc.events()))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!(
            "wrote Chrome span trace ({} spans) to {path}",
            report.acc.events().len()
        );
    }
    Ok(())
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    let rates: Vec<f64> = match opts.get("rates") {
        None => (1..=10).map(|i| i as f64 * 300.0).collect(),
        Some(s) => s
            .split(',')
            .map(|r| {
                let rate = r.trim().parse().map_err(|_| format!("bad rate {r:?}"))?;
                checked_rate("rates", rate)
            })
            .collect::<Result<_, _>>()?,
    };
    let process = match opts.get("process") {
        None => Process::Poisson,
        Some(name) => Process::parse(name).ok_or_else(|| format!("unknown --process {name:?}"))?,
    };
    let cfg = SweepConfig {
        len: len_opt(opts)?,
        pattern: pattern(opts)?,
        process,
        seed: u64_opt(opts, "seed", 7)?,
        ..SweepConfig::uniform(rates)
    };
    let archs = archs(opts)?;

    let mut t = Table::new(
        format!("{} ({process:?}), {}-flit packets", cfg.pattern, cfg.len),
        &[
            "arch",
            "MB/s/node",
            "latency ns",
            "p99 ns",
            "accepted",
            "ED^2",
            "drained",
        ],
    );
    let mut probe = probe_cli::Collector::new(opts);
    // Rate-major, so each rate's trace is generated once and every
    // architecture runs on it; the probe's report set comes in (rate,
    // arch) order, and the table is printed architecture-major.
    let mut rows = vec![Vec::with_capacity(cfg.rates_mbps.len()); archs.len()];
    for &rate in &cfg.rates_mbps {
        let trace = cfg.trace(rate);
        for (&arch, rows) in archs.iter().zip(&mut rows) {
            let r = probe.run_or_plain(opts, net_config(opts, arch), &trace, &cfg.run, || {
                format!("{} @ {rate:.0} MB/s/node", arch.name())
            })?;
            let p99 = r.latency_percentile_ns(99.0);
            let p = point_from_result(rate, r, &EnergyModel::for_arch(arch));
            rows.push([
                arch.name().to_string(),
                format!("{rate:.0}"),
                format!("{:.2}", p.latency_ns),
                format!("{p99:.2}"),
                format!("{:.0}", p.accepted_mbps),
                format!("{:.3e}", p.ed2),
                p.drained.to_string(),
            ]);
        }
    }
    for row in rows.into_iter().flatten() {
        t.row(row);
    }
    emit(opts, &t);
    probe.finish(opts)?;
    Ok(())
}

fn cmd_app(opts: &Opts) -> Result<(), String> {
    let which = opts.get("workload").map(String::as_str).unwrap_or("all");
    let seed = u64_opt(opts, "seed", 13)?;
    let workloads: Vec<_> = if which == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![workload(which).ok_or_else(|| format!("unknown --workload {which:?}"))?]
    };
    let spec = app_run_spec();
    let mut t = Table::new(
        "application workloads (request + reply networks)",
        &["workload", "arch", "latency ns", "ED^2", "drained"],
    );
    let archs = archs(opts)?;
    for w in &workloads {
        for r in measure_workload(&archs, w, seed, &spec, APP_TRACE_NS) {
            t.row([
                w.name.to_string(),
                r.arch.name().to_string(),
                format!("{:.2}", r.latency_ns),
                format!("{:.3e}", r.ed2),
                r.drained.to_string(),
            ]);
        }
    }
    emit(opts, &t);
    // With the probe on, re-run each (workload, arch) pair's two physical
    // networks under telemetry. The synthesis is deterministic in the
    // seed, so the probed runs see exactly the traffic the table was built
    // from; it is made once per workload for all the architectures.
    let mut probe = probe_cli::Collector::new(opts);
    if probe.active() {
        for w in &workloads {
            let traces = workload_traces(w, APP_TRACE_NS, seed);
            for &arch in &archs {
                let net = NetConfig::paper(arch);
                for (trace, side) in [(&traces.request, "request"), (&traces.reply, "reply")] {
                    probe.run_or_plain(opts, net, trace, &spec, || {
                        format!("{} {} {side}", w.name, arch.name())
                    })?;
                }
            }
        }
    }
    probe.finish(opts)?;
    Ok(())
}

fn cmd_power(opts: &Opts) -> Result<(), String> {
    let rate = rate_opt(opts, fig12::RATE_MBPS)?;
    let nets: Vec<NetConfig> = archs(opts)?
        .into_iter()
        .map(|arch| net_config(opts, arch))
        .collect();
    let mut t = Table::new(
        format!("dynamic power (mW) @ {rate:.0} MB/s/node uniform"),
        &[
            "arch", "link", "buffer", "switch", "arb", "decode", "total", "link %",
        ],
    );
    // Figure 12's configuration at the quick tier, at `--rate`.
    for p in measure_rate(&fig12::sweep_config(Tier::Quick), rate, &nets) {
        t.row(fig12::PowerRow::of(&p).cells());
    }
    emit(opts, &t);
    Ok(())
}

fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let out = opts.get("out").ok_or("gen needs --out FILE")?;
    let duration_ns = f64_opt(opts, "duration", 10_000.0)?;
    if !(duration_ns.is_finite() && duration_ns > 0.0) {
        return Err(format!(
            "--duration: {duration_ns} is not a duration in ns (finite, above 0)"
        ));
    }
    let trace = generate(
        Mesh::new(8, 8),
        &SyntheticConfig {
            pattern: pattern(opts)?,
            process: Process::Poisson,
            rate_mbps_per_node: rate_opt(opts, 1_000.0)?,
            len: len_opt(opts)?,
            flit_bytes: 8,
            duration_ns,
            seed: u64_opt(opts, "seed", 7)?,
        },
    );
    let write_err = |e: std::io::Error| format!("could not write {out}: {e}");
    let mut file = std::fs::File::create(out).map_err(write_err)?;
    trace.write_to(&mut file).map_err(write_err)?;
    println!(
        "wrote {} packets ({} flits) to {out}",
        trace.len(),
        trace.total_flits()
    );
    Ok(())
}

fn cmd_replay(opts: &Opts) -> Result<(), String> {
    let path = opts.get("trace").ok_or("replay needs --trace FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let trace = Trace::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let spec = RunSpec {
        warmup_ns: 1_000.0,
        measure_ns: trace.horizon_ns() * 0.5,
        drain_ns: trace.horizon_ns() * 4.0 + 10_000.0,
    };
    let mut t = Table::new(
        format!("replay of {path} ({} packets)", trace.len()),
        &[
            "arch",
            "latency ns",
            "p99 ns",
            "accepted MB/s/node",
            "drained",
        ],
    );
    let mut probe = probe_cli::Collector::new(opts);
    for arch in archs(opts)? {
        let r = probe.run_or_plain(opts, net_config(opts, arch), &trace, &spec, || {
            format!("replay {path} on {}", arch.name())
        })?;
        t.row([
            arch.name().to_string(),
            format!("{:.2}", r.avg_latency_ns()),
            format!("{:.2}", r.latency_percentile_ns(99.0)),
            format!("{:.0}", r.accepted_mbps_per_node()),
            r.drained.to_string(),
        ]);
    }
    emit(opts, &t);
    probe.finish(opts)?;
    Ok(())
}

/// Per-router telemetry grids: one probed run per selected architecture
/// (default NoX alone) at a fixed injection rate, rendered as the mesh-
/// shaped utilization and occupancy heatmaps.
fn cmd_heatmap(opts: &Opts) -> Result<(), String> {
    use nox::sim::probe::ProbeConfig;

    let rate = rate_opt(opts, 2_000.0)?;
    let cfg = SweepConfig {
        len: len_opt(opts)?,
        pattern: pattern(opts)?,
        seed: u64_opt(opts, "seed", 7)?,
        ..SweepConfig::uniform(vec![rate])
    };
    let archs = if opts.contains_key("arch") {
        archs(opts)?
    } else {
        vec![Arch::Nox]
    };
    let trace = cfg.trace(rate);
    for arch in archs {
        let run = nox::probe::probed_run(
            net_config(opts, arch),
            &trace,
            &cfg.run,
            ProbeConfig::default(),
        );
        println!(
            "== {} @ {rate:.0} MB/s/node {}, {} cycles ==",
            arch.name(),
            cfg.pattern,
            run.result.cycles
        );
        println!("{}", nox::probe::heatmap::render(&run.probe));
    }
    Ok(())
}

/// Probe-enabled run plumbing shared by `sweep`, `app`, and `replay`.
mod probe_cli {
    use super::Opts;
    use nox::prelude::*;
    use nox::probe::{probed_run, report::run_report, Json};
    use nox::sim::probe::ProbeConfig;
    use nox::sim::sim::SimResult;

    /// Collects one JSON run report per probed simulation and emits the
    /// set when the command finishes.
    pub struct Collector {
        active: bool,
        reports: Vec<Json>,
        chrome_written: bool,
    }

    impl Collector {
        pub fn new(opts: &Opts) -> Collector {
            let active = ["probe", "probe-out", "wave", "chrome"]
                .iter()
                .any(|k| opts.contains_key(*k));
            Collector {
                active,
                reports: Vec::new(),
                chrome_written: false,
            }
        }

        pub fn active(&self) -> bool {
            self.active
        }

        /// Runs one simulation point — probed when any probe flag is set
        /// (recording its report and handling `--wave` / `--chrome`),
        /// plain otherwise. Either way the measurement result is
        /// identical; observation does not perturb the simulation.
        pub fn run_or_plain(
            &mut self,
            opts: &Opts,
            cfg: NetConfig,
            trace: &Trace,
            spec: &RunSpec,
            label: impl FnOnce() -> String,
        ) -> Result<SimResult, String> {
            if !self.active {
                return Ok(nox::sim::run(cfg, trace, spec));
            }
            let label = label();
            let run = probed_run(cfg, trace, spec, ProbeConfig::default());
            if let Some(node) = opts.get("wave") {
                let node: u16 = node
                    .parse()
                    .map_err(|_| format!("--wave: bad node {node:?}"))?;
                if usize::from(node) >= run.probe.topology().routers() {
                    return Err(format!(
                        "--wave: node {node} out of range (this network has {} routers)",
                        run.probe.topology().routers()
                    ));
                }
                println!("-- {label} --");
                print!(
                    "{}",
                    nox::probe::waveform::waveform(&run.probe, NodeId(node))
                );
            }
            if let Some(path) = opts.get("chrome") {
                if self.chrome_written {
                    return Err(
                        "--chrome covers a single run: pick one architecture with --arch".into(),
                    );
                }
                std::fs::write(path, nox::probe::chrome::chrome_trace(&run.probe))
                    .map_err(|e| format!("could not write {path}: {e}"))?;
                eprintln!("wrote Chrome trace for {label} to {path}");
                self.chrome_written = true;
            }
            self.reports.push(run_report(&run).field("label", &*label));
            Ok(run.result)
        }

        /// Writes the collected reports to `--probe-out` (or stdout).
        pub fn finish(self, opts: &Opts) -> Result<(), String> {
            if !self.active {
                return Ok(());
            }
            let n = self.reports.len();
            let doc = Json::obj()
                .field("schema", "nox-probe/report-set/v1")
                .field("reports", Json::Arr(self.reports));
            match opts.get("probe-out") {
                Some(path) => {
                    std::fs::write(path, doc.to_string())
                        .map_err(|e| format!("could not write {path}: {e}"))?;
                    eprintln!("wrote {n} probe report(s) to {path}");
                }
                None => println!("{doc}"),
            }
            Ok(())
        }
    }
}

/// Evaluates the full conformance-claim registry (EXPERIMENTS.md as
/// code), writes the versioned report, and diffs it against the
/// committed baseline — nonzero exit on any status regression.
fn cmd_claims(opts: &Opts) -> Result<(), String> {
    use nox::analysis::claims::{evaluate, Baseline, ClaimInputs};

    let tier = tier(opts, Tier::Quick);
    let exec = executor(opts)?;
    eprintln!(
        "gathering claim inputs at the {} tier (timing, synthetic sweeps, apps, power, area) \
         on {} thread(s)...",
        tier.name(),
        exec.threads()
    );
    let streaming = setup_stream(opts, "claims")?;
    let report = evaluate(&ClaimInputs::gather_with(tier, &exec));
    finish_stream(streaming);
    emit_report(
        opts,
        &report.render(),
        &report.to_json(),
        Some("claims_report.json"),
    )?;

    let baseline_path = opts
        .get("baseline")
        .map(String::as_str)
        .unwrap_or("CLAIMS_BASELINE.json");
    if opts.contains_key("update-baseline") {
        std::fs::write(baseline_path, format!("{}\n", report.baseline_json()))
            .map_err(|e| format!("could not write {baseline_path}: {e}"))?;
        println!("pinned current statuses to {baseline_path}");
        return Ok(());
    }
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(_) => {
            println!("no baseline at {baseline_path}; run with --update-baseline to pin one");
            return Ok(());
        }
    };
    let baseline = Baseline::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    for (id, pinned, current) in baseline.improvements(&report) {
        println!(
            "improved   {id}: {} -> {} (consider re-pinning with --update-baseline)",
            pinned.name(),
            current.name()
        );
    }
    let regressions = baseline.regressions(&report);
    for r in &regressions {
        match r.current {
            Some(c) => println!("REGRESSION {}: {} -> {}", r.id, r.baseline.name(), c.name()),
            None => println!(
                "REGRESSION {}: pinned {} but no longer evaluated",
                r.id,
                r.baseline.name()
            ),
        }
    }
    if !regressions.is_empty() {
        return Err(format!(
            "{} conformance regression(s) vs {baseline_path}",
            regressions.len()
        ));
    }
    println!("conformance matches {baseline_path}: no claim fell below its pinned status");
    Ok(())
}

#[cfg(not(unix))]
fn cmd_serve(_opts: &Opts) -> Result<(), String> {
    Err("serve needs Unix domain sockets; this build targets a non-Unix platform".into())
}

#[cfg(not(unix))]
fn cmd_client(_positional: &[String], _opts: &Opts) -> Result<(), String> {
    Err("client needs Unix domain sockets; this build targets a non-Unix platform".into())
}

/// Runs the crash-safe simulation daemon in the foreground until
/// SIGTERM/SIGINT, then drains gracefully (finishes accepted work,
/// refuses new requests) and exits 0. See DESIGN.md §15 for the wire
/// protocol and failure-mode table.
#[cfg(unix)]
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use nox::serve::daemon::{run, ServeConfig};

    let socket = opts
        .get("socket")
        .map(String::as_str)
        .unwrap_or("nox-serve.sock");
    let cache_dir = opts
        .get("cache-dir")
        .map(String::as_str)
        .unwrap_or(".nox-serve-cache");
    let mut cfg = ServeConfig::new(socket, cache_dir);
    cfg.queue_cap = u64_opt(opts, "queue-cap", cfg.queue_cap as u64)? as usize;
    if let Some(v) = opts.get("threads") {
        cfg.threads = nox::exec::parse_threads(v).map_err(|e| format!("--threads: {e}"))?;
    }
    cfg.default_deadline_ms = u64_opt(opts, "deadline-ms", cfg.default_deadline_ms)?;
    cfg.watchdog_ms = u64_opt(opts, "watchdog-ms", cfg.watchdog_ms)?;
    cfg.debug_ops = opts.contains_key("debug-ops");
    if cfg.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    run(cfg).map(|_| ())
}

/// Sends one request line to a running serve daemon, printing every
/// event frame as it streams back (suppress progress with --quiet).
/// Exits nonzero on reject/error outcomes so scripts can gate on it.
#[cfg(unix)]
fn cmd_client(positional: &[String], opts: &Opts) -> Result<(), String> {
    use nox::serve::client::{request_with_retry, ClientConfig, Outcome};

    let [req] = positional else {
        return Err(
            "client needs one request line, e.g. '{\"req\":\"run\",\"harness\":\"claims\",\"tier\":\"smoke\"}'".into(),
        );
    };
    let socket = opts
        .get("socket")
        .map(String::as_str)
        .unwrap_or("nox-serve.sock");
    let mut cfg = ClientConfig::new(socket);
    cfg.attempts = u64_opt(opts, "attempts", cfg.attempts as u64)? as u32;
    let rounds = u64_opt(opts, "rounds", 1)? as u32;
    let quiet = opts.contains_key("quiet");
    let outcome = request_with_retry(&cfg, req, rounds, |line| {
        if !quiet {
            println!("{line}");
        }
    })?;
    match outcome {
        Outcome::Done { cached, artifact } => {
            if quiet {
                println!("{artifact}");
            }
            eprintln!("client: done (cached: {cached})");
            Ok(())
        }
        Outcome::Rejected {
            reason,
            retry_after_ms,
        } => Err(format!(
            "rejected: {reason} (retry after {retry_after_ms} ms)"
        )),
        Outcome::Failed { kind, message } => Err(format!("{kind}: {message}")),
    }
}

fn cmd_info() -> Result<(), String> {
    let mut t = Table::new(
        "NoX reproduction — physical summary",
        &["arch", "mesh clock ns", "cmesh clock ns", "tile area um^2"],
    );
    for arch in Arch::ALL {
        t.row([
            arch.name().to_string(),
            format!("{:.2}", CriticalPath::new(arch).period_ps() / 1000.0),
            format!("{:.2}", CriticalPath::cmesh(arch).period_ps() / 1000.0),
            format!("{:.0}", Floorplan::for_arch(arch).area_um2()),
        ]);
    }
    println!("{t}");
    println!(
        "NoX area penalty: {:.1}%; decode overhead: {:.0} ps; link: {:.0} ps / 2 mm",
        Floorplan::nox().overhead_vs_baseline() * 100.0,
        CriticalPath::new(Arch::Nox).period_ps()
            - CriticalPath::new(Arch::SpecAccurate).period_ps(),
        Channel::paper().delay_ps(),
    );
    Ok(())
}

fn emit(opts: &Opts, t: &Table) {
    if opts.contains_key("csv") {
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
}
