//! The fixed-width K-Means kernel and table-based silhouette must be bit
//! for bit what the row-of-`Vec` implementation produced (kept in
//! `oracle/`): same chosen K, same silhouette bits, same scores, levels
//! and outliers, on inputs built to hit the kernel's corner cases.

mod oracle;

use pal_kmeans::{min_cluster_silhouette, KMeans, ScoreBinning};
use proptest::prelude::*;

/// Profiles mixing a small palette of repeated levels (duplicates and
/// constant runs, often fewer distinct values than `k_max`), free values
/// near 1, and far values that land beyond 3σ.
fn tricky_profile() -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(0.8f64..1.4, 1..7),
        proptest::collection::vec(
            (0usize..64, 0u32..10, 0.8f64..1.4, 3.0f64..40.0, 1usize..5),
            1..60,
        ),
    )
        .prop_map(|(palette, picks)| {
            let mut v = Vec::new();
            for (i, kind, free, far, run) in picks {
                let x = match kind {
                    0..=5 => palette[i % palette.len()],
                    6..=8 => free,
                    _ => far,
                };
                v.extend(std::iter::repeat_n(x, run));
            }
            v
        })
}

/// Profiles drawn from at most three levels plus at most one far value.
fn few_distinct_profile() -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(prop_oneof![Just(0.9), Just(1.0), Just(1.25)], 1..40),
        0u32..2,
    )
        .prop_map(|(mut v, far)| {
            if far == 1 {
                v.push(9.5);
            }
            v
        })
}

fn binning_config() -> impl Strategy<Value = ScoreBinning> {
    (2usize..5, 0usize..9, 0u64..1000).prop_map(|(k_min, extra, seed)| ScoreBinning {
        k_min,
        k_max: k_min + extra,
        seed,
        ..ScoreBinning::default()
    })
}

fn assert_same(values: &[f64], cfg: &ScoreBinning) {
    let got = cfg.bin(values);
    let want = oracle::bin(cfg, values);
    prop_assert_eq!(got.k, want.k);
    prop_assert_eq!(got.silhouette.to_bits(), want.silhouette.to_bits());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&got.scores), bits(&want.scores));
    prop_assert_eq!(bits(&got.levels), bits(&want.levels));
    prop_assert_eq!(got.level_of, want.level_of);
    prop_assert_eq!(got.outlier_indices, want.outlier_indices);
}

fn assert_same_fit<const D: usize>(pts: &[[f64; D]], k: usize, seed: u64) {
    let got = KMeans::new(k, seed).fit(pts);
    let rows: Vec<Vec<f64>> = pts.iter().map(|p| p.to_vec()).collect();
    let want = oracle::kmeans(&rows, k, seed);
    prop_assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
    prop_assert_eq!(&got.assignments, &want.assignments);
    let got_bits: Vec<u64> = got
        .centroids
        .iter()
        .flatten()
        .map(|x| x.to_bits())
        .collect();
    let want_bits: Vec<u64> = want
        .centroids
        .iter()
        .flatten()
        .map(|x| x.to_bits())
        .collect();
    prop_assert_eq!(got_bits, want_bits);
    if got.assignments.iter().any(|&a| a > 0) {
        prop_assert_eq!(
            min_cluster_silhouette(pts, &got.assignments).to_bits(),
            oracle::min_cluster_silhouette(&rows, &want.assignments).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bin_matches_oracle_on_tricky_profiles(values in tricky_profile()) {
        assert_same(&values, &ScoreBinning::default());
    }

    #[test]
    fn bin_matches_oracle_on_few_distinct_values(values in few_distinct_profile()) {
        assert_same(&values, &ScoreBinning::default());
    }

    #[test]
    fn bin_matches_oracle_under_any_config(values in tricky_profile(), cfg in binning_config()) {
        assert_same(&values, &cfg);
    }

    #[test]
    fn two_dim_fit_matches_oracle(
        raw in proptest::collection::vec((0usize..6, 0.0f64..10.0, 0.0f64..25.0), 3..40),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        // Snap some points onto a grid so duplicates (and empty-cluster
        // repairs) occur.
        let pts: Vec<[f64; 2]> = raw
            .iter()
            .map(|&(snap, d, f)| if snap < 3 { [snap as f64, 2.0 * snap as f64] } else { [d, f] })
            .collect();
        prop_assume!(k <= pts.len());
        assert_same_fit(&pts, k, seed);
    }

    #[test]
    fn fit_matches_oracle_with_more_clusters_than_distinct_points(
        picks in proptest::collection::vec(0usize..3, 2..30),
        k in 2usize..7,
        seed in 0u64..1000,
    ) {
        // k-means++ runs out of distinct points, seeds duplicate
        // centroids, and Lloyd repairs the empty clusters that leaves —
        // choosing among points that are all at distance zero.
        let palette = [[0.5, 1.0], [2.0, 1.0], [2.0, 3.5]];
        let pts: Vec<[f64; 2]> = picks.iter().map(|&i| palette[i]).collect();
        prop_assume!(k <= pts.len());
        assert_same_fit(&pts, k, seed);
        let line: Vec<[f64; 1]> = pts.iter().map(|p| [p[1]]).collect();
        assert_same_fit(&line, k, seed);
    }
}
