//! Criterion benchmarks for the core algorithmic kernels underlying PAL:
//! K-Means binning, silhouette scoring, classifier fitting, Adaptive-PAL
//! re-binning, L×V matrix construction, a full end-to-end Sia
//! simulation round-trip, and the per-event cost of the `--metrics`
//! file sink (`metrics_sink/serving_batch`, ns per serving-batch event
//! into a temp-dir `CellMetricsSink`).
//!
//! The wall times are merged into the repo-root `BENCH_engine.json`
//! (section `core_kernels`) together with three heap-allocation counts
//! taken by a wrapping global allocator: `allocs/score_binning/64`, the
//! allocations of one `ScoreBinning::bin` call on a 64-GPU class profile,
//! which depends only on the input, so the gate holds it bit-exact (a
//! K-Means or silhouette change that allocates per restart or per K shows
//! up as a multiple of it); `allocs/kmeans_warm_sweep/64`, a full K
//! sweep on a warm `KMeansScratch`; and `allocs/metrics_sink/serving_batch`,
//! the allocations per serving-batch event of a warm metrics sink. The
//! bench asserts the last two are zero.

use criterion::{criterion_group, BenchmarkId, Criterion};
use pal::{AdaptiveConfig, AdaptivePal, AppClassifier, LvMatrix};
use pal_bench::{longhorn_profile, run_policy, PolicyKind, PROFILE_SEED};
use pal_cluster::{ClusterTopology, GpuId, JobClass, LocalityModel};
use pal_config::CellMetricsSink;
use pal_gpumodel::{GpuSpec, Workload};
use pal_kmeans::{KMeans, KMeansScratch, ScoreBinning};
use pal_sim::sched::Fifo;
use pal_sim::{MetricsSink, PlacementPolicy, RoundObservation, ServingBatchEvent};
use pal_trace::{JobId, ModelCatalog, SiaPhillyConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper counting every alloc/realloc.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_1d");
    for n in [128usize, 512] {
        let profile = longhorn_profile(n.min(448), PROFILE_SEED);
        let points: Vec<[f64; 1]> = profile
            .class_scores(JobClass::A)
            .iter()
            .map(|&v| [v])
            .collect();
        group.bench_with_input(BenchmarkId::new("k4", n), &n, |b, _| {
            b.iter(|| black_box(KMeans::new(4, 7).fit(&points)))
        });
    }
    group.finish();
}

fn bench_binning(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_binning_k_sweep");
    for n in [64usize, 256] {
        let profile = longhorn_profile(n, PROFILE_SEED);
        let scores = profile.class_scores(JobClass::A).to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ScoreBinning::default().bin(&scores)))
        });
    }
    group.finish();
}

/// An Adaptive-PAL policy on a stale 64-GPU profile whose estimates of
/// every class have drifted towards a different truth, not yet re-binned.
fn drifted_adaptive_pal() -> AdaptivePal {
    let profile = longhorn_profile(64, PROFILE_SEED);
    let truth = longhorn_profile(64, PROFILE_SEED ^ 0xD21F7);
    let config = AdaptiveConfig {
        rebin_every: usize::MAX,
        ..AdaptiveConfig::default()
    };
    let mut policy = AdaptivePal::with_config(&profile, config);
    for step in 0..96usize {
        let class = JobClass(step % 3);
        let gpus: Vec<GpuId> = (0..4)
            .map(|j| GpuId(((step * 7 + j * 13) % 64) as u32))
            .collect();
        let slow: Vec<f64> = gpus.iter().map(|&g| truth.score(class, g)).collect();
        policy.observe(&RoundObservation {
            job: JobId(step as u32),
            class,
            gpus: &gpus,
            per_gpu_slowdown: &slow,
            locality_penalty: 1.0,
        });
    }
    policy
}

/// One `AdaptivePal::rebin` with every class's estimates changed — the
/// full three-class cost the online loop pays when all classes drift.
fn bench_adaptive_rebin(c: &mut Criterion) {
    let drifted = drifted_adaptive_pal();
    let mut group = c.benchmark_group("adaptive_rebin");
    group.bench_with_input(BenchmarkId::from_parameter(64), &drifted, |b, drifted| {
        b.iter(|| {
            let mut policy = drifted.clone();
            policy.rebin();
            black_box(policy.table().num_gpus())
        })
    });
    group.finish();
}

/// Heap allocations of one `ScoreBinning::bin` call on the 64-GPU
/// class-A profile (asserted identical across calls).
fn score_binning_allocs() -> f64 {
    let scores = longhorn_profile(64, PROFILE_SEED)
        .class_scores(JobClass::A)
        .to_vec();
    let binning = ScoreBinning::default();
    let mut counts = Vec::new();
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        black_box(binning.bin(black_box(&scores)));
        counts.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocation count varies across identical bin calls: {counts:?}"
    );
    println!(
        "allocs/score_binning/64: {} allocations per bin call",
        counts[0]
    );
    counts[0] as f64
}

/// Heap allocations of a whole K = 2..=11 sweep of `KMeans::fit_with`
/// (ten restarts each) on an already-grown scratch: asserted zero.
fn warm_kmeans_sweep_allocs() -> f64 {
    let points: Vec<[f64; 1]> = longhorn_profile(64, PROFILE_SEED)
        .class_scores(JobClass::A)
        .iter()
        .map(|&v| [v])
        .collect();
    let mut scratch = KMeansScratch::default();
    let sweep = |scratch: &mut KMeansScratch<1>| {
        for k in 2..=11 {
            black_box(KMeans::new(k, k as u64).fit_with(&points, scratch).inertia);
        }
    };
    sweep(&mut scratch);
    let before = ALLOCS.load(Ordering::Relaxed);
    sweep(&mut scratch);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    println!("allocs/kmeans_warm_sweep/64: {allocs} allocations");
    assert_eq!(allocs, 0, "K-Means allocated on a warm scratch");
    allocs as f64
}

/// A metrics sink writing into a fresh temp directory, and that directory.
fn temp_metrics_sink(tag: &str) -> (CellMetricsSink, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pal-bench-metrics-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create metrics temp dir");
    let sink = CellMetricsSink::create(
        &dir.join("cell.events.jsonl"),
        &dir.join("cell.rounds.csv"),
        Arc::default(),
    )
    .expect("create metrics sink");
    (sink, dir)
}

/// Serving batches shaped like an open-loop stream's: fractional clocks
/// with full-precision digits, batches of one to three, short queues.
fn serving_batch_events() -> Vec<ServingBatchEvent> {
    (0..4096usize)
        .map(|i| {
            let start = i as f64 * 0.2713 + (i % 7) as f64 * 0.0131;
            let batch_size = 1 + i % 3;
            ServingBatchEvent {
                workload: "chat-poisson@x1".into(),
                start,
                finish: start + 0.05 + (i % 5) as f64 * 0.0173,
                batch_size,
                slo_met: batch_size - usize::from(i % 11 == 0),
                queued: i % 17,
            }
        })
        .collect()
}

/// One serving-batch event encoded and buffered by the `--metrics` sink.
fn bench_metrics_sink(c: &mut Criterion) {
    let events = serving_batch_events();
    let (mut sink, dir) = temp_metrics_sink("ns");
    let mut group = c.benchmark_group("metrics_sink");
    group.sample_size(200_000);
    let mut next = 0;
    group.bench_function("serving_batch", |b| {
        b.iter(|| {
            sink.on_serving_batch(black_box(&events[next % events.len()]));
            next += 1;
        })
    });
    group.finish();
    drop(sink);
    std::fs::remove_dir_all(&dir).ok();
}

/// Heap allocations per serving-batch event of a warm metrics sink:
/// asserted zero.
fn metrics_sink_allocs() -> f64 {
    let events = serving_batch_events();
    let (mut sink, dir) = temp_metrics_sink("allocs");
    for event in &events {
        sink.on_serving_batch(event);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for event in &events {
        sink.on_serving_batch(black_box(event));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    drop(sink);
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "allocs/metrics_sink/serving_batch: {allocs} allocations over {} events",
        events.len()
    );
    assert_eq!(allocs, 0, "the metrics sink allocated once warm");
    allocs as f64 / events.len() as f64
}

fn bench_classifier_fit(c: &mut Criterion) {
    let workloads: Vec<Workload> = Workload::ALL.to_vec();
    let spec = GpuSpec::v100();
    c.bench_function("classifier_fit_11_apps", |b| {
        b.iter(|| black_box(AppClassifier::fit_workloads(&workloads, &spec, 3, 1)))
    });
}

fn bench_lv_matrix(c: &mut Criterion) {
    let levels: Vec<f64> = (0..12).map(|i| 0.85 + i as f64 * 0.15).collect();
    c.bench_function("lv_matrix_build_12_levels", |b| {
        b.iter(|| black_box(LvMatrix::new(&levels, 1.0, 1.7)))
    });
}

fn bench_full_simulation(c: &mut Criterion) {
    let topo = ClusterTopology::sia_64();
    let profile = longhorn_profile(64, PROFILE_SEED);
    let locality = LocalityModel::frontera_per_model();
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let trace = SiaPhillyConfig::default().generate(1, &catalog);
    let mut group = c.benchmark_group("sia_trace_end_to_end");
    group.sample_size(20);
    for kind in [PolicyKind::Tiresias, PolicyKind::PmFirst, PolicyKind::Pal] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| black_box(run_policy(&trace, topo, &profile, &locality, Fifo, kind)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans,
    bench_binning,
    bench_adaptive_rebin,
    bench_classifier_fit,
    bench_lv_matrix,
    bench_full_simulation,
    bench_metrics_sink
);

fn main() {
    benches();
    let mut measurements = criterion::take_measurements();
    measurements.push((
        "allocs/score_binning/64".to_string(),
        score_binning_allocs(),
    ));
    measurements.push((
        "allocs/kmeans_warm_sweep/64".to_string(),
        warm_kmeans_sweep_allocs(),
    ));
    measurements.push((
        "allocs/metrics_sink/serving_batch".to_string(),
        metrics_sink_allocs(),
    ));
    pal_bench::bench_json::update_workspace("core_kernels", &measurements)
        .expect("update BENCH_engine.json");
}
