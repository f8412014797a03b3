//! Aggregating repeats into the benchmark's result: checks, medians,
//! the human-readable table and the final JSON line.

use std::collections::BTreeMap;

/// Direction of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics of the JSON result: name, unit, direction.
/// Host metrics are measured with tracing off; `slo_attainment` is
/// simulated.
pub const END_TO_END: [(&str, &str, Better); 4] = [
    ("setup_s", "s", Better::Lower),
    ("run_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("slo_attainment", "ratio", Better::Higher),
];

/// Simulated end-to-end metrics, printed with the table but kept out of
/// the JSON result. They are deterministic per seed, so their spread
/// across seeds is the spread of the inputs — wider than any bound a
/// timing could use — and `serving_p99_ms` is undefined without serving.
/// The benchmark checks instead that they repeat exactly (CSV digests).
pub const SIMULATED: [(&str, &str, Better); 5] = [
    ("sim_jct_geomean_s", "s", Better::Lower),
    ("sim_p99_jct_geomean_s", "s", Better::Lower),
    ("sim_makespan_geomean_s", "s", Better::Lower),
    ("sim_utilization_mean", "ratio", Better::Higher),
    ("serving_p99_ms", "ms", Better::Lower),
];

/// The per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("config.parse_ms", "ms"),
    ("config.build_ms", "ms"),
    ("trace.generate_ms", "ms"),
    ("trace.jobs", "count"),
    ("trace.requests", "count"),
    ("profile.synth_ms", "ms"),
    ("profile.builds", "count"),
    ("pal.table_builds", "count"),
    ("pal.table_build_ms", "ms"),
    ("campaign.cells", "count"),
    ("campaign.steals", "count"),
    ("campaign.cell_ms_max", "ms"),
    ("campaign.cell_ms_sum", "ms"),
    ("campaign.parallel_eff", "ratio"),
    ("engine.steps", "count"),
    ("engine.sim_rounds", "count"),
    ("engine.job_rounds", "count"),
    ("engine.self_ms", "ms"),
    ("engine.ns_per_job_round", "ns"),
    ("sched.order_calls", "count"),
    ("sched.keys_sorted", "count"),
    ("sched.order_ms", "ms"),
    ("sched.ns_per_key", "ns"),
    ("sched.hook_calls", "count"),
    ("sched.hook_ms", "ms"),
    ("admit.calls", "count"),
    ("admit.rejected", "count"),
    ("place.order_calls", "count"),
    ("place.calls", "count"),
    ("place.gpus", "count"),
    ("place.ms", "ms"),
    ("place.ns_per_call", "ns"),
    ("place.engine_ms", "ms"),
    ("adaptive.observe_calls", "count"),
    ("adaptive.rebins", "count"),
    ("adaptive.observe_ms", "ms"),
    ("adaptive.ms_per_rebin", "ms"),
    ("serving.requests", "count"),
    ("serving.batches", "count"),
    ("serving.mean_batch", "count"),
    ("serving.only_ms", "ms"),
    ("serving.p99_ms", "ms"),
    ("sink.events", "count"),
    ("sink.ms", "ms"),
    ("sink.bytes", "bytes"),
    ("sink.ns_per_event", "ns"),
    ("spill.accept_ms", "ms"),
    ("spill.bytes", "bytes"),
    ("tracing.overhead", "ratio"),
];

/// One cell's line of a repeat report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLine {
    pub digest: String,
    pub failure: Option<String>,
}

/// A parsed repeat report (see `crate::run`).
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    pub run_s: Option<f64>,
    pub peak_rss_mb: Option<f64>,
    pub csv: Option<String>,
    /// Simulated end-to-end metrics.
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics (traced repeats).
    pub layers: BTreeMap<String, f64>,
    pub cells: Vec<CellLine>,
    /// Per-cell deterministic counts (traced repeats), by cell index.
    pub counts: BTreeMap<usize, String>,
}

impl Report {
    /// Parse a child's standard output.
    pub fn parse(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = || rest.trim().parse::<f64>().ok();
            match key {
                "setup_s" => r.setup_s.extend(num()),
                "run_s" => r.run_s = num(),
                "peak_rss_mb" => r.peak_rss_mb = num(),
                "csv" => r.csv = Some(rest.to_string()),
                "metric" | "layer" => {
                    if let Some((name, v)) = rest.split_once(' ') {
                        if let Ok(v) = v.parse() {
                            let map = if key == "metric" {
                                &mut r.metrics
                            } else {
                                &mut r.layers
                            };
                            map.insert(name.to_string(), v);
                        }
                    }
                }
                "cell" => {
                    let mut parts = rest.splitn(3, ' ');
                    let _index = parts.next();
                    let digest = parts.next().unwrap_or("").to_string();
                    let status = parts.next().unwrap_or("failed no status");
                    let failure = match status {
                        "ok" => None,
                        other => Some(other.trim_start_matches("failed ").to_string()),
                    };
                    r.cells.push(CellLine { digest, failure });
                }
                "counts" => {
                    if let Some((cell, counts)) = rest.split_once(' ') {
                        if let Ok(cell) = cell.parse() {
                            r.counts.insert(cell, counts.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
        r
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Outcome of checking every repeat's cells.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Check every repeat that ran cells: each cell passed its own checks,
/// its CSV digest equals the first repeat's, and — for traced repeats —
/// its deterministic counts equal the first traced repeat's. A repeat
/// that died counts all `cells` as failed.
pub fn check(repeats: &[(String, Option<Report>)], cells: usize) -> Verdict {
    let mut v = Verdict::default();
    let reference = repeats
        .iter()
        .filter_map(|(_, r)| r.as_ref())
        .find(|r| r.cells.len() == cells);
    let counts_ref = repeats
        .iter()
        .filter_map(|(_, r)| r.as_ref())
        .find(|r| !r.counts.is_empty())
        .map(|r| r.counts.clone());
    for (label, report) in repeats {
        v.attempted += cells as u64;
        let (Some(report), Some(reference)) = (report, reference) else {
            v.failed += cells as u64;
            v.problems.push(format!("{label}: repeat failed"));
            continue;
        };
        for cell in 0..cells {
            let problem = match report.cells.get(cell) {
                None => Some("no result".to_string()),
                Some(line) => match &line.failure {
                    Some(why) => Some(why.clone()),
                    None if line.digest != reference.cells[cell].digest => {
                        Some("CSV row differs from the first repeat's".to_string())
                    }
                    None => match (&counts_ref, report.counts.get(&cell)) {
                        (Some(expected), Some(got)) if expected.get(&cell) != Some(got) => Some(
                            "deterministic counts differ from the first traced repeat's".into(),
                        ),
                        _ => None,
                    },
                },
            };
            if let Some(why) = problem {
                v.failed += 1;
                v.problems.push(format!("{label}: cell {cell}: {why}"));
            }
        }
    }
    v.attempted = v.attempted.max(1);
    v
}

/// The final JSON line.
pub fn json(verdict: &Verdict, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn report_round_trip_and_checks() {
        let text = "setup_s 0.5\nrun_s 1.25\ncsv 00ff\nmetric sim_jct_geomean_s 10\n\
                    cell 0 abcd ok\ncell 1 beef failed 3 jobs accounted for, trace has 4\n";
        let r = Report::parse(text);
        assert_eq!(r.setup_s, vec![0.5]);
        assert_eq!(r.metrics["sim_jct_geomean_s"], 10.0);
        assert_eq!(
            r.cells[1].failure.as_deref(),
            Some("3 jobs accounted for, trace has 4")
        );
        let v = check(&[("a".into(), Some(r.clone())), ("b".into(), None)], 2);
        assert_eq!((v.attempted, v.failed), (4, 3));
    }

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn listed(list: &str) -> Vec<(String, String)> {
        // Tests run from the package directory; the file sits beside it.
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let root = pal_config::parse_json(&text).expect("valid JSON");
        let Some(serde::Value::Seq(items)) = root.get(list) else {
            panic!("`{list}` is not a list");
        };
        let field = |item: &serde::Value, key: &str| match item.get(key) {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("`{key}` of a `{list}` entry: {other:?}"),
        };
        items
            .iter()
            .map(|item| (field(item, "name"), field(item, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(listed("end_to_end"), own(&e2e));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_has_the_contract_keys() {
        let v = Verdict {
            attempted: 4,
            failed: 0,
            problems: vec![],
        };
        let line = json(&v, &[("run_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
