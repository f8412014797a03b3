//! Event-driven round skipping (PR 4) must be unobservable: for any
//! scenario, a run with `Scenario::event_driven(true)` produces a
//! `SimResult` bit-identical to fixed-round stepping — same records, same
//! telemetry series, same simulated round count — differing only in how
//! many rounds the engine actually executed.
//!
//! The property sweeps arbitrary small traces across every scheduler ×
//! placement combination (including the stateful Adaptive-PAL, whose
//! per-round EWMA observations the skip path must replay exactly, and a
//! custom key-based scheduler that opts into skipping without incremental
//! keys) in both sticky and non-sticky modes. A deterministic companion
//! test pins the point of the feature: a sticky drain workload executes
//! ≥5× fewer rounds than it simulates.

use pal::{AdaptivePal, PalPlacement, PmFirstPlacement};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_sim::job_state::ActiveJob;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, SchedKey, SchedulingPolicy, Srsf, Srtf};
use pal_sim::{PlacementPolicy, Scenario, SimResult};
use pal_trace::{JobId, JobSpec, Trace};
use proptest::prelude::*;

/// 3 classes × `gpus` GPUs of non-flat variability, so placement choices
/// (and therefore any divergence in them) change finish times.
fn profile(gpus: usize) -> VariabilityProfile {
    VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..gpus)
                    .map(|g| 1.0 + ((g * 7 + c * 13) % 10) as f64 * 0.05)
                    .collect()
            })
            .collect(),
    )
}

fn scheduler(pick: usize) -> Box<dyn SchedulingPolicy + Send + Sync> {
    match pick {
        0 => Box::new(Fifo),
        // Low demotion threshold so attained-service crossings fire
        // inside small traces — a hop must stop where one shifts the order.
        1 => Box::new(Las {
            threshold_gpu_seconds: 1800.0,
        }),
        2 => Box::new(Srtf),
        3 => Box::new(Srsf),
        // A custom key-based scheduler that opts into skip mode through
        // `order_stable_rounds`; the event core does not apply to it.
        _ => Box::new(MultiLevelLasOptIn),
    }
}

fn placement(pick: usize, profile: &VariabilityProfile) -> Box<dyn PlacementPolicy + Send> {
    match pick {
        0 => Box::new(PackedPlacement::deterministic()),
        1 => Box::new(PackedPlacement::randomized(11)),
        2 => Box::new(RandomPlacement::new(7)),
        3 => Box::new(PmFirstPlacement::new(profile)),
        4 => Box::new(PalPlacement::new(profile)),
        _ => Box::new(AdaptivePal::new(profile)),
    }
}

fn spec(id: u32, arrival: f64, demand: usize, iters: u64, class: usize) -> JobSpec {
    JobSpec {
        id: JobId(id),
        model: Workload::ResNet50,
        class: JobClass(class),
        arrival,
        gpu_demand: demand,
        iterations: iters,
        base_iter_time: 1.0,
    }
}

fn run(
    jobs: &[JobSpec],
    sched_pick: usize,
    place_pick: usize,
    sticky: bool,
    event_driven: bool,
) -> SimResult {
    run_mode(jobs, sched_pick, place_pick, sticky, event_driven, false)
}

fn run_mode(
    jobs: &[JobSpec],
    sched_pick: usize,
    place_pick: usize,
    sticky: bool,
    event_driven: bool,
    event_core: bool,
) -> SimResult {
    run_with(
        jobs,
        scheduler(sched_pick),
        place_pick,
        sticky,
        event_driven,
        event_core,
    )
}

fn run_with(
    jobs: &[JobSpec],
    scheduler: Box<dyn SchedulingPolicy + Send + Sync>,
    place_pick: usize,
    sticky: bool,
    event_driven: bool,
    event_core: bool,
) -> SimResult {
    let topo = ClusterTopology::new(2, 4);
    let prof = profile(topo.total_gpus());
    Scenario::new(Trace::new("equiv", jobs.to_vec()), topo)
        .profile(prof.clone())
        .locality(LocalityModel::uniform(1.5))
        .scheduler_boxed(scheduler)
        .placement_boxed(placement(place_pick, &prof))
        .sticky(sticky)
        .event_driven(event_driven)
        .event_core(event_core)
        .run()
        .expect("equivalence scenario runs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 60 })]
    #[test]
    fn event_driven_matches_fixed_round_everywhere(
        raw in proptest::collection::vec(
            (0.0f64..30_000.0, 1usize..=4, 1u64..6_000, 0usize..3),
            1..12,
        ),
        sched_pick in 0usize..5,
        place_pick in 0usize..6,
        sticky in any::<bool>(),
    ) {
        let jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(arrival, demand, iters, class))| {
                spec(i as u32, arrival, demand, iters, class)
            })
            .collect();
        let on = run(&jobs, sched_pick, place_pick, sticky, true);
        let off = run(&jobs, sched_pick, place_pick, sticky, false);
        prop_assert!(
            on.same_outcome(&off),
            "event-driven diverged (sched {sched_pick}, place {place_pick}, sticky {sticky})"
        );
        prop_assert_eq!(off.executed_rounds, off.rounds);
        prop_assert!(on.executed_rounds <= off.executed_rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]
    /// The discrete-event engine core (kinetic order + certificate
    /// heaps) must be just as unobservable as round skipping: for any
    /// trace × scheduler × placement × stickiness, `event_core(true)`
    /// reproduces fixed-round stepping bit-for-bit — and never executes
    /// *more* rounds than the probing skip path, whose stop conditions
    /// it strictly subsumes (it replays through in-prefix order shifts
    /// the probe must stop at).
    #[test]
    fn event_core_matches_fixed_round_everywhere(
        raw in proptest::collection::vec(
            (0.0f64..30_000.0, 1usize..=4, 1u64..6_000, 0usize..3),
            1..12,
        ),
        sched_pick in 0usize..4,
        place_pick in 0usize..6,
        sticky in any::<bool>(),
    ) {
        let jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(arrival, demand, iters, class))| {
                spec(i as u32, arrival, demand, iters, class)
            })
            .collect();
        let core = run_mode(&jobs, sched_pick, place_pick, sticky, true, true);
        let skip = run_mode(&jobs, sched_pick, place_pick, sticky, true, false);
        let fixed = run_mode(&jobs, sched_pick, place_pick, sticky, false, false);
        prop_assert!(
            core.same_outcome(&fixed),
            "event core diverged from fixed-round (sched {sched_pick}, place {place_pick}, sticky {sticky})"
        );
        prop_assert!(
            core.same_outcome(&skip),
            "event core diverged from round skipping (sched {sched_pick}, place {place_pick}, sticky {sticky})"
        );
        prop_assert!(
            core.executed_rounds <= skip.executed_rounds,
            "event core executed {} rounds, probing skip only {}",
            core.executed_rounds,
            skip.executed_rounds
        );
    }
}

#[test]
fn event_core_replays_through_in_prefix_crossings() {
    // The workload the event core exists for: a saturated sticky SRTF
    // queue whose running jobs constantly swap priority. Every such
    // crossing breaks the probing skip (the cached order shifts), but
    // the kinetic sequence repairs it in place and replays on; only
    // completions (which change the prefix set) dispatch rounds.
    let jobs: Vec<JobSpec> = (0..16)
        .map(|i| {
            // Staggered sizes so remaining-work curves cross repeatedly.
            spec(
                i,
                (i as f64) * 25.0,
                1 + (i as usize % 4),
                120_000 + 9_000 * ((i * 5) % 16) as u64,
                i as usize % 3,
            )
        })
        .collect();
    for sched_pick in [2, 3] {
        // SRTF and SRSF: linearly drifting keys.
        let core = run_mode(&jobs, sched_pick, 0, true, true, true);
        let skip = run_mode(&jobs, sched_pick, 0, true, true, false);
        assert!(core.same_outcome(&skip), "sched {sched_pick} diverged");
        assert!(
            core.executed_rounds * 5 <= core.rounds,
            "sched {sched_pick}: event core executed {} of {} simulated rounds",
            core.executed_rounds,
            core.rounds
        );
        assert!(
            core.executed_rounds <= skip.executed_rounds,
            "sched {sched_pick}: core {} > skip {}",
            core.executed_rounds,
            skip.executed_rounds
        );
    }
}

#[test]
fn sticky_drain_executes_far_fewer_rounds() {
    // The workload event-driven skipping exists for: a burst of long jobs
    // drains under sticky placement, so after the last queue change the
    // only events are completions (plus early LAS demotions). Simulated
    // rounds stay in the thousands; executed rounds collapse.
    let jobs: Vec<JobSpec> = (0..12)
        .map(|i| {
            spec(
                i,
                (i as f64) * 40.0,
                1 + (i as usize % 3),
                200_000 + 17_000 * i as u64,
                i as usize % 3,
            )
        })
        .collect();
    for sched_pick in 0..4 {
        let on = run(&jobs, sched_pick, 0, true, true);
        let off = run(&jobs, sched_pick, 0, true, false);
        assert!(on.same_outcome(&off), "sched {sched_pick} diverged");
        assert!(
            on.executed_rounds * 5 <= on.rounds,
            "sched {sched_pick}: executed {} of {} simulated rounds — skip not engaging",
            on.executed_rounds,
            on.rounds
        );
    }
}

#[test]
fn non_sticky_never_skips() {
    // Non-sticky rounds re-place every running job (consuming RNG for
    // seeded policies), so they must run every round even with
    // event-driven stepping enabled.
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| spec(i, (i as f64) * 100.0, 2, 50_000, i as usize % 3))
        .collect();
    let r = run(&jobs, 0, 1, false, true);
    assert_eq!(r.executed_rounds, r.rounds);
}

#[test]
fn las_demotion_that_keeps_the_order_does_not_end_a_hop() {
    // One 2-GPU job of 20 rounds under sticky LAS: it crosses the default
    // 3600 GPU-s demotion threshold after 6 rounds, but alone in the queue
    // its order cannot change, so the hop after the first round runs
    // straight to the round the job finishes in.
    let trace = Trace::new("demote", vec![spec(0, 0.0, 2, 6_000, 0)]);
    let run = |event_driven| {
        Scenario::new(trace.clone(), ClusterTopology::new(1, 4))
            .scheduler(Las::default())
            .sticky(true)
            .event_driven(event_driven)
            .run()
            .expect("single-job scenario runs")
    };
    let skip = run(true);
    let fixed = run(false);
    assert!(skip.same_outcome(&fixed), "skip mode diverged from fixed");
    assert_eq!(skip.rounds, 20);
    assert_eq!(skip.executed_rounds, 2);
}

/// Multi-level least attained service — one queue per `QUANTUM` GPU-s of
/// attained service, FIFO within a queue — written the way a third-party
/// key-based scheduler would be: `key` only, no incremental-key hooks. A
/// running job that drops a level can fall behind a waiting job, so its
/// order shifts preempt. [`MultiLevelLasOptIn`] differs only in
/// overriding `order_stable_rounds`.
struct MultiLevelLas;
struct MultiLevelLasOptIn;

const QUANTUM: f64 = 10_800.0;

fn level(job: &ActiveJob) -> f64 {
    (job.attained_service / QUANTUM).floor()
}

impl SchedulingPolicy for MultiLevelLas {
    fn name(&self) -> &'static str {
        "MLFQ-LAS"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        level(job)
    }
}

impl SchedulingPolicy for MultiLevelLasOptIn {
    fn name(&self) -> &'static str {
        "MLFQ-LAS"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        level(job)
    }

    fn order_stable_rounds(
        &self,
        _jobs: &[ActiveJob],
        _sorted: &[SchedKey],
        _progress_per_round: &[f64],
        _round_duration: f64,
    ) -> usize {
        // Optimistic on purpose: the engine's per-boundary re-check of
        // every key must end the hop at each real order shift.
        usize::MAX
    }
}

/// Long overlapping jobs that keep the 8-GPU cluster over-subscribed, so
/// waiting jobs sit behind running ones whose keys keep moving.
fn contended_jobs() -> Vec<JobSpec> {
    (0..10)
        .map(|i| {
            spec(
                i,
                (i as f64) * 500.0,
                1 + (i as usize % 3),
                20_000 + 3_000 * i as u64,
                i as usize % 3,
            )
        })
        .collect()
}

#[test]
fn custom_key_scheduler_skips_only_when_it_opts_in() {
    let jobs = contended_jobs();
    let fixed = run_with(&jobs, Box::new(MultiLevelLas), 4, true, false, false);
    assert_eq!(fixed.executed_rounds, fixed.rounds);
    assert!(
        fixed.records.iter().any(|r| r.preemptions > 0),
        "no order shift preempted a job: the re-check would go untested"
    );

    // The default hook answers 0: every round is executed, even with
    // skipping (and the event core, which needs incremental keys) on.
    for event_core in [false, true] {
        let default = run_with(&jobs, Box::new(MultiLevelLas), 4, true, true, event_core);
        assert!(default.same_outcome(&fixed));
        assert_eq!(default.executed_rounds, default.rounds);
    }

    // Opting in skips; re-deriving every key per boundary keeps it exact.
    let opt_in = run_with(&jobs, Box::new(MultiLevelLasOptIn), 4, true, true, false);
    assert!(opt_in.same_outcome(&fixed), "opt-in skip mode diverged");
    assert!(
        opt_in.executed_rounds * 3 <= opt_in.rounds,
        "executed {} of {} simulated rounds — opt-in skip not engaging",
        opt_in.executed_rounds,
        opt_in.rounds
    );
}
