//! The CI perf-regression gate over `BENCH_engine.json`.
//!
//! [`check`] compares a freshly measured bench file against the committed
//! baseline and reports hard failures across the gated sections
//! ([`GATED_SECTIONS`]: `engine_rounds`, `campaign_startup`,
//! `campaign_throughput`, `serving_latency`, `observer_overhead`, and
//! `core_kernels`):
//!
//! - any **deterministic** metric (the `rounds/*` simulated/executed
//!   round counts, the `builds/*` PM-score table build counts, the
//!   `cells/*` campaign cells-completed counts of the fleet-execution
//!   grid, the `served/*` serving outcomes of a seeded 1M-request
//!   stream, the `overhead/*` within-run null-sink wall-time ratio, the
//!   `allocs/*` heap-allocation counts of `core_kernels` (per PM-score
//!   binning call, per warm K-Means sweep, per metrics-sink event) —
//!   bit-exact or machine-common-mode-free by construction) more than
//!   [`DETERMINISTIC_TOLERANCE`] (1.05×) over its baseline, and any
//!   `allocs/*` count above its baseline at all ([`EXACT_PREFIX`]) —
//!   these need no noise allowance, so even a small skip-efficiency or
//!   cache-efficiency regression fails; intentional changes to the bench
//!   scenario or engine re-commit the refreshed baseline instead;
//! - any *wall-time* metric more than `tolerance ×` the run's **median**
//!   wall-time ratio (taken across every gated section, so all the
//!   metrics vote on the common mode): the baseline is usually committed
//!   from a different machine than the CI runner, so the common-mode
//!   speed difference shows up in every metric equally and the median
//!   cancels it, while a real regression — an accidentally quadratic
//!   round loop, skipping silently disabled on one path, per-cell table
//!   rebuilds sneaking back into campaign start-up — is differential and
//!   sticks out (a backstop still fails any wall-time metric beyond
//!   `tolerance × `[`MACHINE_SPEED_ALLOWANCE`]` ×` baseline absolutely,
//!   so a uniform global slowdown cannot hide in the median);
//! - any `placement_hot_path` `allocs_per_place/*` metric above zero —
//!   the zero-allocation hot-path contract is absolute.
//!
//! `mem/*` keys (peak-RSS readings from the large-scale benches) are
//! **informational**: they vary with allocator and kernel behaviour in
//! ways wall-time normalization doesn't model, so the gate prints them
//! for trend-watching but never fails on them, and they are excluded
//! from the wall-time median vote.
//!
//! The tolerance defaults to [`DEFAULT_TOLERANCE`] (2×): generous enough
//! that shared-runner noise never trips it, tight enough that a real
//! regression fails the build. Metrics present on only one side are
//! reported but never fail the gate, so adding or retiring a bench
//! doesn't require lockstep baseline edits.

use crate::bench_json::BenchSections;

/// Default regression tolerance: fail when a metric exceeds 2× its
/// reference (baseline for deterministic counts, median-normalized
/// baseline for wall times).
pub const DEFAULT_TOLERANCE: f64 = 2.0;

/// How much *uniform* machine-speed difference between the baseline's
/// machine and the current runner is tolerated before the absolute
/// wall-time backstop fires (`tolerance × this × baseline`).
pub const MACHINE_SPEED_ALLOWANCE: f64 = 4.0;

/// Tolerance for the deterministic count metrics (`rounds/*`,
/// `builds/*`): they are bit-exact re-runs of the same computation, so
/// anything beyond a rounding hair is a real skip- or cache-efficiency
/// regression and fails regardless of the wall-time `--tolerance`.
pub const DETERMINISTIC_TOLERANCE: f64 = 1.05;

/// The sections gated relative to the baseline, each with the key prefix
/// of its deterministic (machine-independent) count metrics; every other
/// key in a gated section is treated as a wall time.
pub const GATED_SECTIONS: &[(&str, &str)] = &[
    ("engine_rounds", "rounds/"),
    ("campaign_startup", "builds/"),
    ("campaign_throughput", "cells/"),
    ("serving_latency", "served/"),
    ("observer_overhead", "overhead/"),
    ("core_kernels", "allocs/"),
];

/// Key prefix of deterministic integer counts held exactly: any rise
/// over the baseline fails, since even one extra allocation per call is
/// a real change and [`DETERMINISTIC_TOLERANCE`] would let it through.
pub const EXACT_PREFIX: &str = "allocs/";

/// Key prefix of informational metrics (peak-RSS readings): reported in
/// the gate output for trend-watching, but never gated and excluded from
/// the wall-time median.
pub const INFORMATIONAL_PREFIX: &str = "mem/";

/// The section holding the absolute zero-allocation contract.
const ALLOC_SECTION: &str = "placement_hot_path";
/// Key prefix of the allocation-count metrics within [`ALLOC_SECTION`].
const ALLOC_PREFIX: &str = "allocs_per_place/";

/// Outcome of one gate run: every comparison made, and the failures.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Human-readable line per metric compared (pass and fail alike).
    pub lines: Vec<String>,
    /// Human-readable description of each hard failure.
    pub failures: Vec<String>,
}

impl GateReport {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The lower median of the wall-time ratios: robust against a minority
/// of regressed metrics inflating their own reference, and exact for the
/// common case of a uniform machine-speed factor.
fn median_ratio(ratios: &mut [f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("NaN bench ratio"));
    Some(ratios[(ratios.len() - 1) / 2])
}

/// Compare `current` against `baseline` under the given tolerance.
pub fn check(baseline: &BenchSections, current: &BenchSections, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let empty = Default::default();

    // One global median across every gated section's wall-time metrics:
    // the machine-speed common mode is a property of the run, so all the
    // sections vote on it together.
    let mut wall_ratios: Vec<f64> = GATED_SECTIONS
        .iter()
        .flat_map(|&(section, det_prefix)| {
            let base = baseline.get(section).unwrap_or(&empty);
            let cur = current.get(section).unwrap_or(&empty);
            cur.iter()
                .filter(move |(key, _)| {
                    !key.starts_with(det_prefix) && !key.starts_with(INFORMATIONAL_PREFIX)
                })
                .filter_map(|(key, &now)| {
                    base.get(key)
                        .filter(|&&was| was > 0.0)
                        .map(|&was| now / was)
                })
        })
        .collect();
    let median = median_ratio(&mut wall_ratios);
    if let Some(m) = median {
        report.lines.push(format!(
            "median wall-time ratio {m:.2}x across gated sections (machine-speed common mode)"
        ));
    }
    for &(section, det_prefix) in GATED_SECTIONS {
        let base = baseline.get(section).unwrap_or(&empty);
        let cur = current.get(section).unwrap_or(&empty);
        for (key, &now) in cur {
            if key.starts_with(INFORMATIONAL_PREFIX) {
                let vs = match base.get(key) {
                    Some(&was) if was > 0.0 => format!(" ({:.2}x baseline {was:.1})", now / was),
                    _ => String::new(),
                };
                report
                    .lines
                    .push(format!("{section}/{key}: {now:.1}{vs} — informational"));
                continue;
            }
            match base.get(key) {
                Some(&was) if was > 0.0 => {
                    let ratio = now / was;
                    if key.starts_with(det_prefix) {
                        // Deterministic counts: gate near-exactly — no noise
                        // allowance applies to a bit-exact re-run.
                        let limit = if key.starts_with(EXACT_PREFIX) {
                            1.0
                        } else {
                            DETERMINISTIC_TOLERANCE
                        };
                        if ratio > limit {
                            report.failures.push(format!(
                                "{section}/{key}: {now:.1} is {ratio:.2}x baseline {was:.1} \
                                 (deterministic count, tolerance {limit}x)"
                            ));
                        } else {
                            report
                                .lines
                                .push(format!("{section}/{key}: {ratio:.2}x baseline — ok"));
                        }
                    } else {
                        // Wall times: gate against the median-normalized ratio
                        // (cancels cross-machine speed), with an absolute
                        // backstop so a uniform slowdown can't hide in it.
                        let median = median.expect("key contributed a ratio");
                        let normalized = ratio / median;
                        if normalized > tolerance {
                            report.failures.push(format!(
                                "{section}/{key}: {now:.1} is {ratio:.2}x baseline {was:.1}, \
                                 {normalized:.2}x this run's median ratio (tolerance {tolerance}x)"
                            ));
                        } else if ratio > tolerance * MACHINE_SPEED_ALLOWANCE {
                            report.failures.push(format!(
                                "{section}/{key}: {now:.1} is {ratio:.2}x baseline {was:.1}, \
                                 past the absolute backstop ({tolerance}x tolerance × \
                                 {MACHINE_SPEED_ALLOWANCE}x machine allowance)"
                            ));
                        } else {
                            report.lines.push(format!(
                                "{section}/{key}: {normalized:.2}x median-normalized — ok"
                            ));
                        }
                    }
                }
                Some(_) => report
                    .lines
                    .push(format!("{section}/{key}: baseline is zero — skipped")),
                None => report.lines.push(format!(
                    "{section}/{key}: no baseline (new metric) — skipped"
                )),
            }
        }
        for key in base.keys().filter(|k| !cur.contains_key(*k)) {
            report.lines.push(format!(
                "{section}/{key}: missing from current run — skipped"
            ));
        }
    }

    let allocs = current.get(ALLOC_SECTION).unwrap_or(&empty);
    for (key, &now) in allocs.iter().filter(|(k, _)| k.starts_with(ALLOC_PREFIX)) {
        if now > 0.0 {
            report.failures.push(format!(
                "{ALLOC_SECTION}/{key}: {now} allocations per placement (must be 0)"
            ));
        } else {
            report
                .lines
                .push(format!("{ALLOC_SECTION}/{key}: 0 allocations — ok"));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sections(entries: &[(&str, &[(&str, f64)])]) -> BenchSections {
        entries
            .iter()
            .map(|(section, kvs)| {
                (
                    section.to_string(),
                    kvs.iter()
                        .map(|&(k, v)| (k.to_string(), v))
                        .collect::<BTreeMap<_, _>>(),
                )
            })
            .collect()
    }

    #[test]
    fn identical_numbers_pass() {
        let s = sections(&[
            ("engine_rounds", &[("engine_step/saturated_round", 1e5)]),
            ("placement_hot_path", &[("allocs_per_place/PAL", 0.0)]),
        ]);
        let r = check(&s, &s, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(r.lines.len(), 3, "median line + 2 metrics: {:?}", r.lines);
    }

    #[test]
    fn uniform_machine_speed_difference_passes() {
        // Baseline committed on a machine 2.5x faster than the runner:
        // every wall-time ratio shares the factor, the median cancels it.
        let base = sections(&[(
            "engine_rounds",
            &[("a/b", 100.0), ("a/c", 40.0), ("a/d", 70.0)],
        )]);
        let cur = sections(&[(
            "engine_rounds",
            &[("a/b", 250.0), ("a/c", 100.0), ("a/d", 175.0)],
        )]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn uniform_catastrophic_slowdown_hits_the_backstop() {
        // A 10x-across-the-board regression cannot hide in the median.
        let base = sections(&[("engine_rounds", &[("a/b", 100.0), ("a/c", 40.0)])]);
        let cur = sections(&[("engine_rounds", &[("a/b", 1000.0), ("a/c", 400.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert_eq!(r.failures.len(), 2);
        assert!(r.failures[0].contains("backstop"), "{}", r.failures[0]);
    }

    #[test]
    fn noise_within_tolerance_passes() {
        let base = sections(&[("engine_rounds", &[("a/b", 100.0)])]);
        let cur = sections(&[("engine_rounds", &[("a/b", 199.0)])]);
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn synthetic_2x_regression_fails() {
        let base = sections(&[("engine_rounds", &[("a/b", 100.0), ("a/c", 50.0)])]);
        let cur = sections(&[("engine_rounds", &[("a/b", 201.0), ("a/c", 50.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("a/b"), "{}", r.failures[0]);
    }

    #[test]
    fn executed_rounds_regression_fails_like_throughput() {
        // Event-driven skipping silently disabled: executed rounds jump
        // back to the simulated count.
        let base = sections(&[(
            "engine_rounds",
            &[("rounds/sticky_drain/executed_event_on", 150.0)],
        )]);
        let cur = sections(&[(
            "engine_rounds",
            &[("rounds/sticky_drain/executed_event_on", 3000.0)],
        )]);
        assert!(!check(&base, &cur, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn even_small_executed_rounds_regressions_fail() {
        // The counts are bit-exact, so the wall-time noise tolerance does
        // not apply: eroding the skip win by 1.5x must fail.
        let base = sections(&[(
            "engine_rounds",
            &[("rounds/sticky_drain/executed_event_on", 100.0)],
        )]);
        let cur = sections(&[(
            "engine_rounds",
            &[("rounds/sticky_drain/executed_event_on", 150.0)],
        )]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(r.failures[0].contains("deterministic count"));
    }

    #[test]
    fn table_build_count_regression_fails_bit_exactly() {
        // The cache silently bypassed: the 4×4 grid's one build becomes
        // eight. Deterministic, so no wall-time noise allowance applies.
        let base = sections(&[("campaign_startup", &[("builds/4x4_one_profile", 1.0)])]);
        let cur = sections(&[("campaign_startup", &[("builds/4x4_one_profile", 8.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("deterministic count"),
            "{}",
            r.failures[0]
        );
    }

    #[test]
    fn campaign_wall_times_share_the_global_median() {
        // Both gated sections 3x slower (machine speed): the shared median
        // cancels the factor for campaign_startup's lone wall metric just
        // as it does for engine_rounds'.
        let base = sections(&[
            ("engine_rounds", &[("a/b", 100.0), ("a/c", 40.0)]),
            (
                "campaign_startup",
                &[("campaign_grid/4x4/shared_cache", 50.0)],
            ),
        ]);
        let cur = sections(&[
            ("engine_rounds", &[("a/b", 300.0), ("a/c", 120.0)]),
            (
                "campaign_startup",
                &[("campaign_grid/4x4/shared_cache", 150.0)],
            ),
        ]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{:?}", r.failures);
        // ... while a campaign-only differential regression fails.
        let cur = sections(&[
            ("engine_rounds", &[("a/b", 100.0), ("a/c", 40.0)]),
            (
                "campaign_startup",
                &[("campaign_grid/4x4/shared_cache", 201.0)],
            ),
        ]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("campaign_startup"),
            "{}",
            r.failures[0]
        );
    }

    #[test]
    fn cells_completed_drift_fails_bit_exactly() {
        // The 16×16 grid must always complete all 256 cells. Upward
        // drift (cells running more than once) fails here; *dropped*
        // cells read below baseline, which this one-sided gate does not
        // fire on — the bench itself asserts full completion and fails
        // the CI step directly in that case.
        let base = sections(&[("campaign_throughput", &[("cells/16x16/completed", 256.0)])]);
        let cur = sections(&[("campaign_throughput", &[("cells/16x16/completed", 248.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(r.passed(), "under-baseline counts are the bench's assert");
        let cur = sections(&[("campaign_throughput", &[("cells/16x16/completed", 512.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("deterministic count"),
            "{}",
            r.failures[0]
        );
    }

    #[test]
    fn serving_outcome_drift_fails_bit_exactly() {
        // A sampler or batcher change that shifts the seeded 1M-request
        // run's p99 is a semantic change, not noise: deterministic gating
        // applies, wall-time tolerance does not.
        let base = sections(&[("serving_latency", &[("served/1m/p99_latency_ms", 40.0)])]);
        let cur = sections(&[("serving_latency", &[("served/1m/p99_latency_ms", 55.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("deterministic count"),
            "{}",
            r.failures[0]
        );
        // The wall-time key in the same section stays noise-tolerant.
        let base = sections(&[(
            "serving_latency",
            &[("serving_run/open_loop/1m_requests", 100.0)],
        )]);
        let cur = sections(&[(
            "serving_latency",
            &[("serving_run/open_loop/1m_requests", 180.0)],
        )]);
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn null_sink_overhead_ratio_gates_without_wall_noise_allowance() {
        // The ratio is machine-common-mode-free (both sides run
        // interleaved on the same machine), so the 2x wall tolerance does
        // not apply: a 20% null-sink tax must fail against the 1.0
        // baseline, while sub-5% measurement jitter passes.
        let base = sections(&[("observer_overhead", &[("overhead/null_sink_ratio", 1.0)])]);
        let cur = sections(&[("observer_overhead", &[("overhead/null_sink_ratio", 1.04)])]);
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).passed());
        let cur = sections(&[("observer_overhead", &[("overhead/null_sink_ratio", 1.2)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("deterministic count"),
            "{}",
            r.failures[0]
        );
    }

    #[test]
    fn binning_allocation_count_gates_bit_exactly() {
        // A kernel change that allocates per restart or per K multiplies
        // the per-call count; no wall-time noise allowance applies.
        let base = sections(&[("core_kernels", &[("allocs/score_binning/64", 20.0)])]);
        let cur = sections(&[("core_kernels", &[("allocs/score_binning/64", 21.0)])]);
        assert!(check(&base, &base, DEFAULT_TOLERANCE).passed());
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("deterministic count"),
            "{}",
            r.failures[0]
        );
    }

    #[test]
    fn any_nonzero_alloc_count_fails() {
        let s = sections(&[("placement_hot_path", &[("allocs_per_place/PAL", 0.5)])]);
        let r = check(&s, &s, DEFAULT_TOLERANCE);
        assert!(!r.passed());
        assert!(r.failures[0].contains("allocations per placement"));
    }

    #[test]
    fn new_and_retired_metrics_are_reported_not_failed() {
        let base = sections(&[("engine_rounds", &[("old/metric", 10.0)])]);
        let cur = sections(&[("engine_rounds", &[("new/metric", 10.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(r.passed());
        assert_eq!(r.lines.len(), 2);
    }

    #[test]
    fn mem_metrics_are_informational_never_gated() {
        // A 10x peak-RSS blow-up is reported but does not fail the gate —
        // allocator behaviour is too machine-dependent to hard-gate.
        let base = sections(&[("engine_rounds", &[("mem/peak_rss_mb/large_100k", 100.0)])]);
        let cur = sections(&[("engine_rounds", &[("mem/peak_rss_mb/large_100k", 1000.0)])]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{:?}", r.failures);
        assert!(
            r.lines.iter().any(|l| l.contains("informational")),
            "{:?}",
            r.lines
        );
    }

    #[test]
    fn mem_metrics_do_not_vote_on_the_wall_median() {
        // Two honest wall metrics at 3x (machine speed) plus a mem key at
        // 1x: were the mem key in the median vote, the median would drop
        // to 1x and the wall metrics would read as 3x-normalized failures.
        let base = sections(&[(
            "engine_rounds",
            &[("a/b", 100.0), ("a/c", 40.0), ("mem/peak_rss_mb/x", 500.0)],
        )]);
        let cur = sections(&[(
            "engine_rounds",
            &[("a/b", 300.0), ("a/c", 120.0), ("mem/peak_rss_mb/x", 500.0)],
        )]);
        let r = check(&base, &cur, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn non_alloc_hot_path_metrics_are_not_gated() {
        // single_place wall times live in placement_hot_path but are not
        // under the alloc prefix; they may drift with runner noise.
        let base = sections(&[("placement_hot_path", &[("single_place/PAL/64", 100.0)])]);
        let cur = sections(&[("placement_hot_path", &[("single_place/PAL/64", 900.0)])]);
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).passed());
    }
}
