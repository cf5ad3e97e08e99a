//! Command line of the repo benchmark.
//!
//! ```text
//! nox-benchmark [run] --workload NAME|all [--seed N] [--seconds N]
//!               [--trace 0|1 | --traced] [--out FILE]
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line
//! of standard output, the JSON object `BENCHMARK.json`'s contract asks
//! for. `--out FILE` also appends that object (with the workload, mode,
//! seed and the names of the exact metrics) to `FILE` as one JSON line,
//! which is what `repeat.sh` compares. `--workload all` runs each
//! workload in a process of its own, so `peak_rss_mib` is per workload.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use nox::analysis::json::Json;
use nox_benchmark::{run_workload, selfcheck, RunArgs, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: nox-benchmark [run] --workload NAME|all [--seed N] [--seconds N] \
                     [--trace 0|1 | --traced] [--out FILE]";

struct Cli {
    workload: String,
    run: RunArgs,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        run: RunArgs {
            seed: 1,
            seconds: RUN_SECONDS,
            traced: false,
            // Relative, so the daemon's socket path stays short however
            // deep the checkout is.
            scratch: if Path::new("benchmark/Cargo.toml").exists() {
                "benchmark/out".into()
            } else {
                "out".into()
            },
        },
        out: None,
    };
    let mut it = args
        .iter()
        .skip(usize::from(args.first().is_some_and(|a| a == "run")));
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            cli.run.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.run.seed = number()?,
            "--seconds" => cli.run.seconds = number()?.max(1),
            "--trace" => cli.run.traced = number()? != 0,
            "--out" => cli.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {} all",
            WORKLOADS.join(" ")
        ));
    }
    Ok(cli)
}

/// Runs every workload as a child process with the same flags.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &cli.run.seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.run.traced { "1" } else { "0" }]);
        if let Some(out) = &cli.out {
            cmd.arg("--out").arg(out);
        }
        println!("# {name}");
        ok &= cmd.status().is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&cli);
    }
    if let Err(e) = selfcheck() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = run_workload(&cli.workload, &cli.run).expect("workload name was validated");
    let traced = cli.run.traced;
    let metrics = outcome.metrics(traced);
    for (def, value) in &metrics {
        println!("{} {value} {}", def.name, def.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let doc = outcome.to_json(traced);
    if let Some(path) = &cli.out {
        let exact = metrics
            .iter()
            .filter(|(d, _)| d.exact)
            .map(|(d, _)| Json::from(d.name))
            .collect();
        let record = Json::obj()
            .field("workload", cli.workload.as_str())
            .field("traced", traced)
            .field("seed", cli.run.seed)
            .field("seconds", cli.run.seconds)
            .field("exact", Json::Arr(exact))
            .field("result", doc.clone());
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{doc}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
