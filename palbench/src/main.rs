//! `palbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path palbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed into a work directory
//! under `.palbench/` (relative to the current directory), then runs
//! measured repeats of it, each in a fresh process, for about `--seconds`
//! seconds. With `--trace 0` it reports the end-to-end metrics, measured
//! with tracing off; with `--trace 1` it alternates untraced and traced
//! repeats and reports the per-layer metrics of the traced ones. Every
//! repeat's outputs are checked. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `palbench/NOTES.md` for the workloads and metrics.

mod inputs;
mod registry;
mod report;
mod run;
mod tracing;

use report::{median, Better, Report, END_TO_END, PER_LAYER, SIMULATED};
use run::Mode;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: palbench --workload <paper_sweep|adaptive_drift|serving_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up-only processes per untraced run.
const SETUP_ONLY_REPEATS: usize = 10;
/// Fewest measured repeats per run, even past `--seconds`.
const MIN_REPEATS: usize = 3;
/// Fewest untraced/traced repeat pairs per traced run.
const MIN_PAIRS: usize = 2;

/// Campaign cells each workload runs (scenario rows × policy columns).
fn cells(workload: &str) -> usize {
    match workload {
        "paper_sweep" => 36,
        "adaptive_drift" => 24,
        _ => 4,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("--child") {
        child(&argv[1..])
    } else {
        parent(&argv)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("palbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `argv`.
fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

/// `palbench --child <workload> --dir <inputs> --scratch <dir> --mode
/// <setup|timed|traced> [--spans <file>]`: one repeat, reported on
/// standard output.
fn child(argv: &[String]) -> Result<(), String> {
    let workload = argv.first().ok_or(USAGE)?;
    let dir = flag(argv, "--dir").ok_or("--child needs --dir")?;
    let scratch = flag(argv, "--scratch").ok_or("--child needs --scratch")?;
    let mode = flag(argv, "--mode")
        .and_then(Mode::parse)
        .ok_or("--child needs --mode")?;
    let spans = flag(argv, "--spans").map(PathBuf::from);
    let out = run::repeat(
        workload,
        Path::new(dir),
        Path::new(scratch),
        mode,
        spans.as_ref(),
    )?;
    print!("{out}");
    Ok(())
}

/// Runs child repeats of one workload.
struct Runner {
    exe: PathBuf,
    workload: String,
    inputs: PathBuf,
    work: PathBuf,
    spans: PathBuf,
    launched: usize,
}

impl Runner {
    /// Run one repeat in a fresh process; `None` if it failed.
    fn repeat(&mut self, mode: Mode) -> (String, Option<Report>, f64) {
        self.launched += 1;
        let label = format!("{} repeat {}", mode.arg(), self.launched);
        let scratch = self.work.join(format!("out-{}", self.launched));
        let start = Instant::now();
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--child")
            .arg(&self.workload)
            .arg("--dir")
            .arg(&self.inputs)
            .arg("--scratch")
            .arg(&scratch)
            .arg("--mode")
            .arg(mode.arg());
        if mode == Mode::Traced {
            cmd.arg("--spans").arg(&self.spans);
        }
        let output = cmd.output();
        let elapsed = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&scratch);
        let report = match output {
            Ok(out) if out.status.success() => {
                Some(Report::parse(&String::from_utf8_lossy(&out.stdout)))
            }
            Ok(out) => {
                eprintln!(
                    "palbench: {label} failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                );
                None
            }
            Err(e) => {
                eprintln!("palbench: {label} did not start: {e}");
                None
            }
        };
        (label, report, elapsed)
    }
}

fn parent(argv: &[String]) -> Result<(), String> {
    let workload = flag(argv, "--workload").ok_or(USAGE)?;
    if !inputs::WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seed: u64 = flag(argv, "--seed")
        .and_then(|s| s.parse().ok())
        .ok_or(USAGE)?;
    let traced = match flag(argv, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return Err(USAGE.to_string()),
    };
    let seconds: f64 = flag(argv, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .ok_or(USAGE)?;

    // Every path is resolved at run time, below the current directory.
    let root = std::env::current_dir()
        .map_err(|e| format!("no current directory: {e}"))?
        .join(".palbench");
    let work = root.join(format!("{workload}-{}", std::process::id()));
    let inputs_dir = work.join("inputs");
    std::fs::create_dir_all(&inputs_dir)
        .map_err(|e| format!("creating {}: {e}", inputs_dir.display()))?;
    let mut runner = Runner {
        exe: std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?,
        workload: workload.to_string(),
        inputs: inputs_dir.clone(),
        work: work.clone(),
        spans: root.join(format!("{workload}.spans.jsonl")),
        launched: 0,
    };
    let result = inputs::generate(workload, seed, &inputs_dir)
        .map_err(|e| format!("generating inputs: {e}"))
        .map(|()| measure(&mut runner, seconds, traced));
    let _ = std::fs::remove_dir_all(&work);
    let line = result?;
    println!("{line}");
    Ok(())
}

/// The measurement loop; returns the JSON result line.
fn measure(runner: &mut Runner, seconds: f64, traced: bool) -> String {
    let start = Instant::now();
    let workload = runner.workload.clone();
    let mut setups: Vec<f64> = Vec::new();
    // Repeats that ran cells, for the checks.
    let mut repeats: Vec<(String, Option<Report>)> = Vec::new();
    let mut timed: Vec<Report> = Vec::new();
    let mut traced_reports: Vec<Report> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();

    if !traced {
        for _ in 0..SETUP_ONLY_REPEATS {
            if let (_, Some(r), _) = runner.repeat(Mode::Setup) {
                setups.extend(&r.setup_s);
            }
        }
        // One warm-up repeat, checked but not timed: the first repeat
        // after the set-ups runs about 10 % slow on `serving_stream`.
        let (label, report, mut longest) = runner.repeat(Mode::Timed);
        repeats.push((label, report));
        while timed.len() < MIN_REPEATS || start.elapsed().as_secs_f64() + longest <= seconds {
            let (label, report, took) = runner.repeat(Mode::Timed);
            longest = longest.max(took);
            if let Some(r) = &report {
                timed.push(r.clone());
            }
            repeats.push((label, report));
            if repeats.len() >= 4 * MIN_REPEATS && timed.is_empty() {
                break; // every repeat fails; stop early
            }
        }
    } else {
        let mut longest = 0.0f64;
        let mut pairs = 0;
        while pairs < MIN_PAIRS || start.elapsed().as_secs_f64() + longest <= seconds {
            // Alternate which side of the pair runs first.
            let order = if pairs % 2 == 0 {
                [Mode::Timed, Mode::Traced]
            } else {
                [Mode::Traced, Mode::Timed]
            };
            let pair_start = Instant::now();
            let mut run_s = [None, None];
            for mode in order {
                let (label, report, _) = runner.repeat(mode);
                if let Some(r) = &report {
                    let side = usize::from(mode == Mode::Traced);
                    run_s[side] = r.run_s;
                    if mode == Mode::Traced {
                        traced_reports.push(r.clone());
                    } else {
                        timed.push(r.clone());
                    }
                }
                repeats.push((label, report));
            }
            if let [Some(untraced), Some(traced)] = run_s {
                overheads.push(traced / untraced);
            }
            longest = longest.max(pair_start.elapsed().as_secs_f64());
            pairs += 1;
            if pairs >= 2 * MIN_PAIRS && traced_reports.is_empty() {
                break;
            }
        }
    }

    let verdict = report::check(&repeats, cells(&workload));
    for p in &verdict.problems {
        eprintln!("palbench: check failed: {p}");
    }
    let med = |f: &dyn Fn(&Report) -> Option<f64>, rs: &[Report]| {
        median(&rs.iter().filter_map(f).collect::<Vec<_>>())
    };
    let sim = |name: &str| med(&|r| r.metrics.get(name).copied(), &timed);

    println!(
        "palbench {workload}: {} measured repeats, {} set-ups, {} traced repeats, {:.1} s",
        timed.len(),
        setups.len(),
        traced_reports.len(),
        start.elapsed().as_secs_f64()
    );
    let per_repeat: Vec<String> = timed
        .iter()
        .filter_map(|r| r.run_s)
        .map(|s| format!("{s:.3}"))
        .collect();
    println!(
        "palbench {workload}: run_s per repeat [{}]",
        per_repeat.join(", ")
    );
    if let Some(csv) = timed.first().and_then(|r| r.csv.as_ref()) {
        println!("palbench {workload}: CSV digest {csv}");
    }
    let direction = |b: Better| match b {
        Better::Lower => "lower is better",
        Better::Higher => "higher is better",
    };
    let mut out: Vec<(&str, f64, &str)> = Vec::new();
    if !traced {
        for (name, unit, better) in END_TO_END {
            let value = match name {
                "setup_s" => median(&setups),
                "run_s" => med(&|r| r.run_s, &timed),
                "peak_rss_mb" => med(&|r| r.peak_rss_mb, &timed),
                other => sim(other),
            };
            println!("  {name:<24} {value:>16.6} {unit:<6} {}", direction(better));
            out.push((name, value, unit));
        }
        for (name, unit, better) in SIMULATED {
            let value = sim(name);
            println!(
                "  {name:<24} {value:>16.6} {unit:<6} {} (not in JSON)",
                direction(better)
            );
        }
    } else {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "tracing.overhead" => median(&overheads),
                other => med(&|r| r.layers.get(other).copied(), &traced_reports),
            };
            println!("  {name:<24} {value:>16.6} {unit}");
            out.push((name, value, unit));
        }
    }
    report::json(&verdict, &out)
}
