//! One measured repeat of a workload, in a process of its own.
//!
//! The repeat goes through the library path `palsim run` uses: the
//! campaign file goes to `campaign_from_path`, then
//! `Campaign::run_with_sink`, then CSV. `serving_stream` runs the way
//! `palsim run --spill --metrics` does: per-cell metrics streams, a
//! spill directory with a copy of the config, and results read back from
//! the spill. A traced repeat goes through the same calls with the
//! benchmark's traced registry and sink wrappers (see [`crate::tracing`]).
//!
//! The repeat reports on standard output, one `key value…` record per
//! line, for the parent process to aggregate (see `crate::report`).

use crate::inputs::{read_expected, RowExpectation, CAMPAIGN_FILE};
use crate::registry::bench_registry;
use crate::tracing::{self, CellSpan, TimedResultSink};
use pal_config::spill::fnv1a64;
use pal_config::{
    build_campaign, campaign_from_path, load_campaign_file, render_chain, spilled_results,
    MetricsDir, SpillSink,
};
use pal_sim::{Campaign, CampaignResult, CampaignRunStats, MemorySink, ResultSink, SimError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups a set-up-only repeat performs.
const SETUP_PASSES: usize = 5;

/// What a repeat measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set the campaign up [`SETUP_PASSES`] times and stop.
    Setup,
    /// Set up and run with tracing off.
    Timed,
    /// Set up and run through the traced registry and sinks.
    Traced,
}

impl Mode {
    /// Parse the `--mode` argument.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "setup" => Some(Mode::Setup),
            "timed" => Some(Mode::Timed),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    /// The `--mode` argument for this mode.
    pub fn arg(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Timed => "timed",
            Mode::Traced => "traced",
        }
    }
}

/// Whether `workload` streams metrics and spills results, as
/// `palsim run --spill --metrics` does.
fn streams(workload: &str) -> bool {
    workload == "serving_stream"
}

/// `palsim run --csv`'s header.
const CSV_HEADER: &str = "scenario,policy,seed,jobs,avg_jct_s,p99_jct_s,makespan_s,\
                          utilization,occupancy,migrations,rounds";

/// One result as `palsim run --csv` prints it.
fn csv_row(r: &CampaignResult) -> String {
    // Serving-only cells have no training records; their JCT columns
    // stay empty.
    let jct = if r.result.records.is_empty() {
        ",".into()
    } else {
        format!("{:.3},{:.3}", r.result.avg_jct(), r.result.p99_jct())
    };
    format!(
        "{},{},{},{},{},{:.3},{:.5},{:.5},{},{}",
        r.scenario,
        r.policy,
        r.seed,
        r.result.records.len(),
        jct,
        r.result.makespan(),
        r.result.utilization(),
        r.result.occupancy(),
        r.result.total_migrations(),
        r.result.rounds,
    )
}

/// The whole CSV of the cells that produced a result, as
/// `palsim run --csv` prints it.
fn render_csv(results: &[Option<CampaignResult>]) -> String {
    let mut out = String::with_capacity(64 * (results.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in results.iter().flatten() {
        out.push_str(&csv_row(r));
        out.push('\n');
    }
    out
}

/// Forwards every result to a spill and keeps a copy in memory, so the
/// spill read back can be checked against what the run produced.
struct TeeSink<'a> {
    spill: &'a SpillSink,
    memory: MemorySink,
}

impl ResultSink for TeeSink<'_> {
    fn accept(&self, cell: usize, result: CampaignResult) -> Result<(), SimError> {
        self.memory.accept(cell, result.clone())?;
        self.spill.accept(cell, result)
    }
}

/// A repeat's outcome before reporting.
struct Outcome {
    results: Vec<Option<CampaignResult>>,
    /// Per-cell reasons a cell failed its checks.
    failures: Vec<Option<String>>,
    stats: CampaignRunStats,
    csv: String,
    run_s: f64,
    sink_bytes: u64,
    spill_bytes: u64,
}

/// Total size of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Run `campaign` the way `palsim run` would, from the first cell to
/// rendered CSV, checking what can be checked on the way.
fn run_campaign(
    workload: &str,
    campaign: Campaign,
    config: &Path,
    scratch: &Path,
    traced: bool,
) -> Result<Outcome, String> {
    let n = campaign.num_cells();
    let mut failures: Vec<Option<String>> = vec![None; n];
    let spill_dir = scratch.join("spill");
    let metrics_dir = scratch.join("metrics");
    let start = Instant::now();
    let metrics = match streams(workload) {
        true => Some(
            MetricsDir::create(&metrics_dir)
                .map_err(|e| format!("cannot create {}: {e}", metrics_dir.display()))?,
        ),
        false => None,
    };
    let campaign = match (traced, &metrics) {
        (true, real) => campaign.metrics_sinks(tracing::sink_factory(real.clone())),
        (false, Some(real)) => {
            let factory = real.clone();
            campaign.metrics_sinks(move |cell| factory.sink_for(cell))
        }
        (false, None) => campaign,
    };
    let (results, stats) = if let Some(metrics) = metrics {
        let spill = SpillSink::create(&spill_dir, &campaign).map_err(|e| render_chain(&e))?;
        std::fs::copy(config, spill_dir.join(CAMPAIGN_FILE))
            .map_err(|e| format!("cannot copy the config into the spill: {e}"))?;
        let tee = TeeSink {
            spill: &spill,
            memory: MemorySink::new(n),
        };
        let stats = if traced {
            campaign.run_with_sink(&TimedResultSink(&tee))
        } else {
            campaign.run_with_sink(&tee)
        }
        .map_err(|e| render_chain(&e))?;
        let memory = tee.memory.into_results();
        drop(spill);
        if let Some(err) = metrics.first_error() {
            return Err(format!("metrics incomplete: {err}"));
        }
        let spilled = spilled_results(&spill_dir, &campaign).map_err(|e| render_chain(&e))?;
        for (cell, (back, kept)) in spilled.iter().zip(&memory).enumerate() {
            let same = kept.as_ref().is_some_and(|m| {
                m.result.same_outcome(&back.result) && csv_row(m) == csv_row(back)
            });
            if !same {
                failures[cell] = Some("spill read back differs from the run's result".into());
            }
        }
        (spilled.into_iter().map(Some).collect::<Vec<_>>(), stats)
    } else {
        let sink = MemorySink::new(n);
        let stats = if traced {
            campaign.run_with_sink(&TimedResultSink(&sink))
        } else {
            campaign.run_with_sink(&sink)
        }
        .map_err(|e| render_chain(&e))?;
        (sink.into_results(), stats)
    };
    let csv = render_csv(&results);
    let run_s = start.elapsed().as_secs_f64();
    let sink_bytes = dir_bytes(&metrics_dir);
    let spill_bytes = dir_bytes(&spill_dir);
    Ok(Outcome {
        results,
        failures,
        stats,
        csv,
        run_s,
        sink_bytes,
        spill_bytes,
    })
}

/// Row-level checks: every trace job is accounted for, and every serving
/// request is counted.
fn check_rows(outcome: &mut Outcome, rows: &[RowExpectation]) {
    for (cell, slot) in outcome.results.iter().enumerate() {
        let Some(r) = slot else {
            outcome.failures[cell] = Some("cell produced no result".into());
            continue;
        };
        let Some(row) = rows.iter().find(|row| row.tag == r.scenario) else {
            outcome.failures[cell] = Some(format!("unexpected scenario `{}`", r.scenario));
            continue;
        };
        let accounted = r.result.records.len() + r.result.rejected.len();
        if accounted != row.jobs {
            outcome.failures[cell] = Some(format!(
                "{accounted} jobs accounted for, trace has {}",
                row.jobs
            ));
        }
        let served: u64 = r.result.serving.iter().map(|s| s.requests).sum();
        if served != row.requests {
            outcome.failures[cell] = Some(format!(
                "{served} serving requests counted, {} offered",
                row.requests
            ));
        }
    }
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The simulated end-to-end metrics of a set of results.
fn sim_metrics(results: &[&CampaignResult], out: &mut String) {
    let training: Vec<&CampaignResult> = results
        .iter()
        .copied()
        .filter(|r| !r.result.records.is_empty())
        .collect();
    let of = |f: fn(&CampaignResult) -> f64| training.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let util = of(|r| r.result.utilization());
    let deployments: Vec<&pal_sim::ServingMetrics> =
        results.iter().flat_map(|r| &r.result.serving).collect();
    let requests: u64 = deployments.iter().map(|s| s.requests).sum();
    let attained: u64 = deployments.iter().map(|s| s.slo_attained).sum();
    // No requests means none missed its deadline — the convention of
    // `ServingMetrics::slo_attainment`.
    let slo = if requests == 0 {
        1.0
    } else {
        attained as f64 / requests as f64
    };
    let p99_ms: Vec<f64> = deployments.iter().map(|s| s.latency_p99 * 1e3).collect();
    let metrics = [
        ("sim_jct_geomean_s", geomean(&of(|r| r.result.avg_jct()))),
        (
            "sim_p99_jct_geomean_s",
            geomean(&of(|r| r.result.p99_jct())),
        ),
        (
            "sim_makespan_geomean_s",
            geomean(&of(|r| r.result.makespan())),
        ),
        (
            "sim_utilization_mean",
            util.iter().sum::<f64>() / util.len().max(1) as f64,
        ),
        ("slo_attainment", slo),
        ("serving_p99_ms", geomean(&p99_ms)),
    ];
    for (name, v) in metrics {
        let _ = writeln!(out, "metric {name} {v}");
    }
}

/// Per-layer metrics of a traced repeat.
fn layer_metrics(
    outcome: &Outcome,
    parse_ms: f64,
    build_ms: f64,
    requests: u64,
    out: &mut String,
) -> Vec<CellSpan> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let setup = tracing::setup();
    let cells = tracing::cells();
    let mut acc = tracing::CellAcc::default();
    let mut accept = tracing::Layer::default();
    let (mut cell_ns_max, mut cell_ns_sum, mut self_ns, mut serving_only_ns) =
        (0u64, 0u64, 0u64, 0u64);
    for c in &cells {
        acc.merge(&c.acc);
        accept.calls += c.accept.calls;
        accept.ns += c.accept.ns;
        cell_ns_max = cell_ns_max.max(c.ns());
        cell_ns_sum += c.ns();
        self_ns += c.self_ns();
        if c.scenario == "serving_only" {
            serving_only_ns += c.ns();
        }
    }
    let results: Vec<&CampaignResult> = outcome.results.iter().flatten().collect();
    let engine_place_s: f64 = results
        .iter()
        .map(|r| r.result.placement_compute_times.iter().sum::<f64>())
        .sum();
    let deployments: Vec<&pal_sim::ServingMetrics> =
        results.iter().flat_map(|r| &r.result.serving).collect();
    let served: u64 = deployments.iter().map(|s| s.requests).sum();
    let batches: u64 = deployments.iter().map(|s| s.batches).sum();
    let p99_ms: Vec<f64> = deployments.iter().map(|s| s.latency_p99 * 1e3).collect();
    let run_ms = outcome.run_s * 1e3;
    let workers = outcome.stats.workers as f64;
    let table_build = {
        let mut t = setup.table_build;
        t.calls += acc.table_build.calls;
        t.ns += acc.table_build.ns;
        t
    };
    let metrics: [(&str, f64); 48] = [
        ("config.parse_ms", parse_ms),
        ("config.build_ms", build_ms),
        ("trace.generate_ms", ms(setup.trace.ns)),
        ("trace.jobs", setup.trace_jobs as f64),
        ("trace.requests", requests as f64),
        ("profile.synth_ms", ms(setup.profile.ns)),
        ("profile.builds", setup.profile.calls as f64),
        ("pal.table_builds", tracing::table_builds() as f64),
        ("pal.table_build_ms", ms(table_build.ns)),
        ("campaign.cells", outcome.stats.cells_run as f64),
        ("campaign.steals", outcome.stats.steals as f64),
        ("campaign.cell_ms_max", ms(cell_ns_max)),
        ("campaign.cell_ms_sum", ms(cell_ns_sum)),
        (
            "campaign.parallel_eff",
            ratio(ms(cell_ns_sum), workers * run_ms),
        ),
        ("engine.steps", acc.steps as f64),
        ("engine.sim_rounds", acc.sim_rounds as f64),
        ("engine.job_rounds", acc.job_rounds as f64),
        ("engine.self_ms", ms(self_ns)),
        (
            "engine.ns_per_job_round",
            ratio(self_ns as f64, acc.job_rounds as f64),
        ),
        ("sched.order_calls", acc.sched_order.calls as f64),
        ("sched.keys_sorted", acc.keys_sorted as f64),
        ("sched.order_ms", ms(acc.sched_order.ns)),
        (
            "sched.ns_per_key",
            ratio(acc.sched_order.ns as f64, acc.keys_sorted as f64),
        ),
        ("sched.hook_calls", acc.sched_hook.calls as f64),
        ("sched.hook_ms", ms(acc.sched_hook.ns)),
        ("admit.calls", acc.admit.calls as f64),
        ("admit.rejected", acc.admit_rejected as f64),
        ("place.order_calls", acc.place_order.calls as f64),
        ("place.calls", acc.place.calls as f64),
        ("place.gpus", acc.place_gpus as f64),
        ("place.ms", ms(acc.place_order.ns + acc.place.ns)),
        (
            "place.ns_per_call",
            ratio(acc.place.ns as f64, acc.place.calls as f64),
        ),
        ("place.engine_ms", engine_place_s * 1e3),
        ("adaptive.observe_calls", acc.observe.calls as f64),
        ("adaptive.rebins", acc.rebins as f64),
        ("adaptive.observe_ms", ms(acc.observe.ns)),
        (
            "adaptive.ms_per_rebin",
            ratio(ms(acc.observe.ns), acc.rebins as f64),
        ),
        ("serving.requests", served as f64),
        ("serving.batches", batches as f64),
        ("serving.mean_batch", ratio(served as f64, batches as f64)),
        ("serving.only_ms", ms(serving_only_ns)),
        ("serving.p99_ms", geomean(&p99_ms)),
        ("sink.events", acc.sink.calls as f64),
        ("sink.ms", ms(acc.sink.ns)),
        ("sink.bytes", outcome.sink_bytes as f64),
        (
            "sink.ns_per_event",
            ratio(acc.sink.ns as f64, acc.sink.calls as f64),
        ),
        ("spill.accept_ms", ms(accept.ns)),
        ("spill.bytes", outcome.spill_bytes as f64),
    ];
    for (name, v) in metrics {
        let _ = writeln!(out, "layer {name} {v}");
    }
    cells
}

/// Write the spans of a traced repeat as JSON lines: one cell span per
/// line, its layer spans aggregated inside it.
fn write_spans(path: &Path, cells: &[CellSpan]) -> std::io::Result<()> {
    let mut out = String::new();
    for c in cells {
        let a = &c.acc;
        let layer = |l: tracing::Layer| format!("{{\"calls\":{},\"ns\":{}}}", l.calls, l.ns);
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"cell\",\"scenario\":\"{}\",\"policy\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"children\":{{\
             \"sched.order\":{},\"sched.hook\":{},\"sched.other\":{},\"admit\":{},\
             \"place.order\":{},\"place.place\":{},\"place.other\":{},\"adaptive.observe\":{},\
             \"pal.table\":{},\"sink\":{},\"result.accept\":{}}}}}",
            c.cell,
            c.scenario,
            c.policy,
            c.start_ns,
            c.end_ns,
            c.self_ns(),
            layer(a.sched_order),
            layer(a.sched_hook),
            layer(a.sched_other),
            layer(a.admit),
            layer(a.place_order),
            layer(a.place),
            layer(a.place_other),
            layer(a.observe),
            layer(a.table_build),
            layer(a.sink),
            layer(c.accept),
        );
    }
    std::fs::write(path, out)
}

/// Per-cell counts that must repeat exactly at a fixed seed.
fn write_counts(cells: &[CellSpan], out: &mut String) {
    for c in cells {
        let a = &c.acc;
        let _ = writeln!(
            out,
            "counts {} {} {} {} {} {} {} {} {}",
            c.cell,
            a.steps,
            a.sim_rounds,
            a.job_rounds,
            a.keys_sorted,
            a.place.calls,
            a.rebins,
            a.batches,
            a.sink.calls
        );
    }
}

/// Run one repeat of `workload` from the inputs in `dir`, using
/// `scratch` for its spill and metrics output (deleted afterwards), and
/// return the report lines.
pub fn repeat(
    workload: &str,
    dir: &Path,
    scratch: &Path,
    mode: Mode,
    spans: Option<&PathBuf>,
) -> Result<String, String> {
    let config = dir.join(CAMPAIGN_FILE);
    let rows = read_expected(dir).map_err(|e| format!("reading expectations: {e}"))?;
    let mut out = String::new();
    // Traced set-up: parse and build timed apart, plus the declared
    // serving requests.
    let mut traced_setup = None;
    let campaign = match mode {
        Mode::Setup => {
            // Several set-ups per process: the first pays the cold start,
            // the others measure the set-up work itself.
            for _ in 0..SETUP_PASSES {
                let start = Instant::now();
                let campaign =
                    campaign_from_path(&config, &bench_registry()).map_err(|e| render_chain(&e))?;
                let _ = writeln!(out, "setup_s {}", start.elapsed().as_secs_f64());
                drop(campaign);
            }
            return Ok(out);
        }
        Mode::Timed => {
            campaign_from_path(&config, &bench_registry()).map_err(|e| render_chain(&e))?
        }
        Mode::Traced => {
            tracing::init();
            let registry = tracing::traced_registry();
            let start = Instant::now();
            let file = load_campaign_file(&config).map_err(|e| render_chain(&e))?;
            let parsed = Instant::now();
            let campaign = build_campaign(&file, &registry, dir).map_err(|e| render_chain(&e))?;
            let built = Instant::now();
            tracing::flush_thread_into_setup();
            let requests: u64 = file
                .scenario
                .iter()
                .flat_map(|s| &s.serving)
                .map(|s| s.workload.num_requests)
                .sum();
            traced_setup = Some((
                (parsed - start).as_secs_f64() * 1e3,
                (built - parsed).as_secs_f64() * 1e3,
                requests,
            ));
            campaign
        }
    };
    std::fs::create_dir_all(scratch).map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let outcome = run_campaign(workload, campaign, &config, scratch, mode == Mode::Traced);
    let _ = std::fs::remove_dir_all(scratch);
    let mut outcome = outcome?;
    check_rows(&mut outcome, &rows);
    let _ = writeln!(out, "run_s {}", outcome.run_s);
    let _ = writeln!(
        out,
        "peak_rss_mb {}",
        pal_bench::memory::peak_rss_mib().unwrap_or(0.0)
    );
    let _ = writeln!(out, "csv {:016x}", fnv1a64(outcome.csv.as_bytes()));
    let done: Vec<&CampaignResult> = outcome.results.iter().flatten().collect();
    sim_metrics(&done, &mut out);
    for (cell, slot) in outcome.results.iter().enumerate() {
        let digest = slot.as_ref().map_or(0, |r| fnv1a64(csv_row(r).as_bytes()));
        match &outcome.failures[cell] {
            None => {
                let _ = writeln!(out, "cell {cell} {digest:016x} ok");
            }
            Some(why) => {
                let _ = writeln!(out, "cell {cell} {digest:016x} failed {why}");
            }
        }
    }
    if let Some((parse_ms, build_ms, requests)) = traced_setup {
        let cells = layer_metrics(&outcome, parse_ms, build_ms, requests, &mut out);
        write_counts(&cells, &mut out);
        if let Some(path) = spans {
            write_spans(path, &cells).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(out)
}
