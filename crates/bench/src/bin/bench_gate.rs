//! `bench_gate`: the CI perf-regression gate.
//!
//! Compares a freshly measured `BENCH_engine.json` against a baseline and
//! exits non-zero when any `engine_rounds` metric regresses past
//! tolerance or any `allocs_per_place` count is non-zero (see
//! [`pal_bench::gate`] for the exact rules).
//!
//! ```text
//! bench_gate [--baseline PATH] [--current PATH] [--tolerance X]
//! ```
//!
//! `--current` defaults to the workspace `BENCH_engine.json` (the file
//! the benches just refreshed). `--baseline` defaults to the committed
//! copy, read via `git show HEAD:BENCH_engine.json` — pass a path
//! instead when the working tree predates the bench run (CI snapshots
//! the checkout's copy before benching) or to gate against an arbitrary
//! reference.

use pal_bench::{bench_json, gate};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    baseline: Option<PathBuf>,
    current: PathBuf,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: None,
        current: bench_json::workspace_path(),
        tolerance: gate::DEFAULT_TOLERANCE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => args.current = PathBuf::from(value("--current")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.tolerance.is_finite() && args.tolerance >= 1.0) {
        return Err(format!(
            "--tolerance must be >= 1.0, got {}",
            args.tolerance
        ));
    }
    Ok(args)
}

/// The committed baseline: `git show HEAD:BENCH_engine.json`.
fn committed_baseline() -> Result<bench_json::BenchSections, String> {
    let out = Command::new("git")
        .args(["show", "HEAD:BENCH_engine.json"])
        .output()
        .map_err(|e| format!("running git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git show HEAD:BENCH_engine.json failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    bench_json::from_json(&text)
        .map_err(|e| format!("committed BENCH_engine.json is not in bench_json's shape: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline = match &args.baseline {
        Some(path) => bench_json::load(path).map_err(|e| format!("baseline: {e}"))?,
        None => committed_baseline()?,
    };
    let current = bench_json::load(&args.current).map_err(|e| format!("current: {e}"))?;
    let report = gate::check(&baseline, &current, args.tolerance);
    for line in &report.lines {
        println!("bench-gate: {line}");
    }
    for failure in &report.failures {
        eprintln!("bench-gate: FAIL {failure}");
    }
    if report.passed() {
        println!(
            "bench-gate: OK — {} metric(s) within {}x tolerance",
            report.lines.len(),
            args.tolerance
        );
    }
    Ok(report.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench-gate: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
