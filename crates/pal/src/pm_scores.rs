//! Per-class PM-score tables (Section III-B).
//!
//! A PM-score "indicates how slow or fast the GPU is relative to the median
//! GPU in the cluster", computed per class. To scale to large clusters the
//! raw per-GPU scores are binned with K-Means (K chosen by silhouette
//! score, >3σ outliers kept exact) and every GPU carries its bin centroid
//! as its score (Figure 5).

use pal_cluster::{GpuId, JobClass, VariabilityProfile};
use pal_kmeans::{BinnedScores, ScoreBinning};
use serde::{Deserialize, Serialize};

/// Binned PM-scores for every class of a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmScoreTable {
    per_class: Vec<BinnedScores>,
}

impl PmScoreTable {
    /// Build the table from a variability profile (the "design time"
    /// construction of Section IV-C — profiles are static).
    ///
    /// Panics on a zero-class profile: a table with no classes has no
    /// scores to serve, and every downstream consumer (L×V matrices,
    /// class orderings) indexes by class. `VariabilityProfile::from_raw`
    /// already rejects empty score sets, so this guards only hand-rolled
    /// or deserialized inputs.
    pub fn build(profile: &VariabilityProfile, binning: &ScoreBinning) -> Self {
        assert!(
            profile.num_classes() > 0,
            "cannot build a PM-score table from a zero-class profile"
        );
        let per_class = (0..profile.num_classes())
            .map(|c| binning.bin(profile.class_scores(JobClass(c))))
            .collect();
        PmScoreTable { per_class }
    }

    /// The table of `scores` (one raw score vector per class), given that
    /// this table was built from `source` with `binning`: a class whose
    /// scores are bitwise equal to its source keeps this table's bins, the
    /// others are binned afresh. [`ScoreBinning::bin`] is a pure function
    /// of its input, so the result equals a full
    /// [`build`](PmScoreTable::build) of `scores` — at the cost of the
    /// changed classes only.
    ///
    /// Panics if `source` or `scores` has a different class count than
    /// this table.
    pub fn rebin_changed(
        &self,
        source: &[Vec<f64>],
        scores: &[Vec<f64>],
        binning: &ScoreBinning,
    ) -> Self {
        assert!(
            source.len() == self.num_classes() && scores.len() == self.num_classes(),
            "re-binning {} classes from {} sources against a {}-class table",
            scores.len(),
            source.len(),
            self.num_classes()
        );
        let per_class = self
            .per_class
            .iter()
            .zip(source.iter().zip(scores))
            .map(|(binned, (was, now))| {
                let unchanged = was.len() == now.len()
                    && was.iter().zip(now).all(|(a, b)| a.to_bits() == b.to_bits());
                if unchanged {
                    binned.clone()
                } else {
                    binning.bin(now)
                }
            })
            .collect();
        PmScoreTable { per_class }
    }

    /// Build with the paper's default binning configuration (K ∈ 2..=11,
    /// 3σ outliers).
    pub fn build_default(profile: &VariabilityProfile) -> Self {
        PmScoreTable::build(profile, &ScoreBinning::default())
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// Number of GPUs; 0 for a table with no classes (e.g. one
    /// deserialized from an empty `per_class` list) instead of a panic.
    pub fn num_gpus(&self) -> usize {
        self.per_class.first().map_or(0, |c| c.scores.len())
    }

    /// The (binned) PM-score of `gpu` for `class` — `ComputePMScore` of
    /// Algorithm 1.
    pub fn score(&self, class: JobClass, gpu: GpuId) -> f64 {
        self.per_class[class.0].scores[gpu.index()]
    }

    /// Sorted distinct PM-score levels of a class (bin centroids plus
    /// outlier values) — the V-columns of the class's L×V matrix.
    pub fn levels(&self, class: JobClass) -> &[f64] {
        &self.per_class[class.0].levels
    }

    /// The chosen K (inlier bin count) for a class.
    pub fn bins_of(&self, class: JobClass) -> usize {
        self.per_class[class.0].k
    }

    /// Full binning result for a class (silhouette, outliers, …).
    pub fn binned(&self, class: JobClass) -> &BinnedScores {
        &self.per_class[class.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_gpumodel::{ClusterFlavor, GpuSpec, Workload};

    fn table(n: usize) -> PmScoreTable {
        let gpus = pal_gpumodel::profiler::build_cluster_gpus(
            &GpuSpec::v100(),
            ClusterFlavor::Longhorn,
            n,
            42,
        );
        let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
        let profile = VariabilityProfile::from_modeled_gpus(&apps, &gpus);
        PmScoreTable::build_default(&profile)
    }

    #[test]
    fn table_covers_all_classes_and_gpus() {
        let t = table(128);
        assert_eq!(t.num_classes(), 3);
        assert_eq!(t.num_gpus(), 128);
    }

    #[test]
    fn scores_are_levels() {
        let t = table(64);
        for c in 0..3 {
            let class = JobClass(c);
            for g in 0..64 {
                let s = t.score(class, GpuId(g));
                assert!(
                    t.levels(class).iter().any(|&l| (l - s).abs() < 1e-12),
                    "score {s} not a level of class {class}"
                );
            }
        }
    }

    #[test]
    fn levels_sorted_ascending() {
        let t = table(128);
        for c in 0..3 {
            let levels = t.levels(JobClass(c));
            for w in levels.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn class_a_has_wider_levels_than_class_c() {
        let t = table(256);
        let spread = |c: usize| {
            let l = t.levels(JobClass(c));
            l[l.len() - 1] - l[0]
        };
        assert!(
            spread(0) > spread(2),
            "class A spread {} <= class C spread {}",
            spread(0),
            spread(2)
        );
    }

    #[test]
    fn level_count_far_below_gpu_count() {
        // The whole point of binning: a handful of levels for hundreds of
        // GPUs.
        let t = table(256);
        for c in 0..3 {
            assert!(
                t.levels(JobClass(c)).len() <= 24,
                "class {c} has {} levels",
                t.levels(JobClass(c)).len()
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(table(64), table(64));
    }

    #[test]
    fn rebin_changed_equals_a_full_build() {
        let gpus = pal_gpumodel::profiler::build_cluster_gpus(
            &GpuSpec::v100(),
            ClusterFlavor::Longhorn,
            48,
            42,
        );
        let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
        let profile = VariabilityProfile::from_modeled_gpus(&apps, &gpus);
        let binning = ScoreBinning::default();
        let source: Vec<Vec<f64>> = (0..3)
            .map(|c| profile.class_scores(JobClass(c)).to_vec())
            .collect();
        let table = PmScoreTable::build(&profile, &binning);
        // Class B drifts; A and C keep their bins.
        let mut scores = source.clone();
        scores[1][5] *= 1.8;
        let rebinned = table.rebin_changed(&source, &scores, &binning);
        let full = PmScoreTable::build(&VariabilityProfile::from_raw(scores), &binning);
        assert_eq!(rebinned, full);
        assert_ne!(rebinned.binned(JobClass::B), table.binned(JobClass::B));
    }

    #[test]
    fn empty_table_reports_zero_gpus_without_panicking() {
        // Regression: `num_gpus` indexed `per_class[0]` and panicked on a
        // class-less table (reachable via deserialization — `from_raw`
        // profiles always carry ≥1 class).
        let t = PmScoreTable {
            per_class: Vec::new(),
        };
        assert_eq!(t.num_gpus(), 0);
        assert_eq!(t.num_classes(), 0);
    }
}
