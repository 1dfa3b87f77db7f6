//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `BENCHMARK.json` at the repository root holds the exact command, which
//! also sets the glibc malloc tunables the numbers are measured under.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! The lines before it give every metric with its sample count, the
//! provenance of the run and any mismatch the checker found.  The exit
//! code is 0 only when every result was correct.  See `perfbench/README.md`.

mod bench;
mod drive;
mod gen;
mod ladder;
mod stats;
mod target;

use std::process::{Command, ExitCode};

use bench::{Report, Which};

struct Args {
    which: Which,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <point_mix|batch_setops|durable_ingest> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        which: Which::PointMix,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < S <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    args.which = Which::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What a command prints, if it ran and succeeded.
fn output(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

/// Where the result came from: commit, toolchain, machine, inputs.
fn provenance(args: &Args) -> String {
    // Only a checkout that is itself a git work tree has a commit to name;
    // git is not asked to search parent directories.
    let git = |args: &[&str]| {
        std::path::Path::new(".git")
            .exists()
            .then(|| output("git", args))
            .flatten()
    };
    let sha = git(&["rev-parse", "HEAD"]).map_or("unknown".into(), |s| s.trim().to_string());
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.trim().is_empty());
    let rustc = output("rustc", &["-V"]).map_or("unknown".into(), |s| s.trim().to_string());
    let malloc = std::env::var("GLIBC_TUNABLES").unwrap_or_default();
    format!(
        "{{\"git_sha\": {}, \"git_dirty\": {}, \"rustc\": {}, \"nproc\": {}, \"workload\": {}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {}, \"glibc_tunables\": {}}}",
        json_str(&sha),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        json_str(&rustc),
        bench::nproc(),
        json_str(args.which.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.which.params()),
        json_str(&malloc),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match bench::run(args.which, args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.which.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        report
            .problems
            .push(format!("{} is not a finite number", m.name));
        report.correct = false;
    }
    println!("provenance {}", provenance(&args));
    for m in &report.metrics {
        println!(
            "metric {} = {} {} (samples: {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "metric error_rate = {error_rate} frac (samples: {}; carried as failed/attempted)",
        report.attempted
    );
    for p in &report.problems {
        println!("problem {p}");
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
