//! Adaptive-PAL re-bins only the classes whose estimates moved. Whatever
//! the observation sequence, its table must equal a full re-bin of every
//! class from the estimates of its last re-bin, and an exported-then-
//! imported policy must hold the same table and keep tracking the
//! original.

use pal::{AdaptiveConfig, AdaptivePal, PmScoreTable};
use pal_cluster::{GpuId, JobClass, VariabilityProfile};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};
use pal_sim::{PlacementPolicy, RoundObservation};
use pal_trace::JobId;
use proptest::prelude::*;
use serde::Deserialize;

const GPUS: usize = 16;

fn profile(seed: u64) -> VariabilityProfile {
    let gpus = profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, GPUS, seed);
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    VariabilityProfile::from_modeled_gpus(&apps, &gpus)
}

/// `(class, first GPU, GPU count, slowdown)` per `observe` call.
fn observations() -> impl Strategy<Value = Vec<(usize, usize, usize, f64)>> {
    proptest::collection::vec(
        (
            prop_oneof![4 => Just(0usize), 1 => Just(1usize), 1 => Just(2usize)],
            0usize..GPUS,
            1usize..5,
            0.7f64..3.5,
        ),
        1..48,
    )
}

fn observe(policy: &mut AdaptivePal, (class, first, count, slow): (usize, usize, usize, f64)) {
    let gpus: Vec<GpuId> = (0..count)
        .map(|j| GpuId(((first + 5 * j) % GPUS) as u32))
        .collect();
    let slowdowns: Vec<f64> = gpus
        .iter()
        .enumerate()
        .map(|(j, _)| slow + 0.1 * j as f64)
        .collect();
    policy.observe(&RoundObservation {
        job: JobId(0),
        class: JobClass(class),
        gpus: &gpus,
        per_gpu_slowdown: &slowdowns,
        locality_penalty: 1.0,
    });
}

/// The table a full re-bin of every class would give: from the exported
/// re-bin source, or from the design-time profile before any re-bin.
fn full_rebin(
    policy: &AdaptivePal,
    initial: &VariabilityProfile,
    cfg: &AdaptiveConfig,
) -> PmScoreTable {
    let state = policy.export_state().expect("Adaptive-PAL is stateful");
    let source = Option::<Vec<Vec<f64>>>::from_value(state.get("rebin_source").unwrap()).unwrap();
    match source {
        Some(src) => PmScoreTable::build(&VariabilityProfile::from_raw(src), &cfg.binning),
        None => PmScoreTable::build(initial, &cfg.binning),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn per_class_reuse_equals_full_rebin_and_survives_export(
        seed in 0u64..500,
        obs in observations(),
        rebin_every in 1usize..10,
        alpha in prop_oneof![Just(0.25), Just(1.0), Just(0.6)],
    ) {
        let initial = profile(seed);
        let cfg = AdaptiveConfig { alpha, rebin_every, ..AdaptiveConfig::default() };
        let mut policy = AdaptivePal::with_config(&initial, cfg.clone());
        let mid = obs.len() / 2;
        for (i, &o) in obs.iter().enumerate() {
            observe(&mut policy, o);
            if i == mid {
                prop_assert_eq!(policy.table(), &full_rebin(&policy, &initial, &cfg));
            }
        }
        prop_assert_eq!(policy.table(), &full_rebin(&policy, &initial, &cfg));

        let mut restored = AdaptivePal::with_config(&initial, cfg.clone());
        restored.import_state(&policy.export_state().unwrap()).unwrap();
        prop_assert_eq!(restored.table(), policy.table());

        // Both keep going in lockstep, forced re-bin included.
        for &o in obs.iter().rev().take(8) {
            observe(&mut policy, o);
            observe(&mut restored, o);
        }
        policy.rebin();
        restored.rebin();
        prop_assert_eq!(restored.table(), policy.table());
        prop_assert_eq!(policy.table(), &full_rebin(&policy, &initial, &cfg));
    }
}
