//! Golden digests for the clustering kernels: PM-score binning on seeded
//! Longhorn profiles, the application classifier on the workload zoo, and
//! Adaptive-PAL's re-binned table after a seeded drift.
//!
//! The `GOLDEN_*` values were captured from the `Vec<Vec<f64>>` K-Means and
//! per-K silhouette implementation that preceded the fixed-width kernel.
//! Every field is hashed bit for bit (silhouette and scores by their IEEE
//! bits), so any change to the summation order of K-Means, silhouette or
//! re-binning shows up here.

use pal::{AdaptivePal, AppClassifier};
use pal_bench::{longhorn_profile, PROFILE_SEED};
use pal_cluster::{GpuId, JobClass};
use pal_gpumodel::{GpuSpec, Workload};
use pal_kmeans::{BinnedScores, ScoreBinning};
use pal_sim::{PlacementPolicy, RoundObservation};
use pal_trace::JobId;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn usizes(&mut self, xs: &[usize]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x as u64);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }
}

fn digest_binned(h: &mut Fnv, b: &BinnedScores) {
    h.u64(b.k as u64);
    h.f64(b.silhouette);
    h.f64s(&b.scores);
    h.f64s(&b.levels);
    h.usizes(&b.level_of);
    h.usizes(&b.outlier_indices);
}

/// `(gpus, class, digest)` of `ScoreBinning::default().bin` on
/// `longhorn_profile(gpus, PROFILE_SEED)`.
const GOLDEN_BINNING: &[(usize, usize, u64)] = &[
    (64, 0, 0x2b15_dd7b_66a8_9d51),
    (64, 1, 0xc550_42dd_2e7e_ee70),
    (64, 2, 0xf66c_7464_86e5_e354),
    (256, 0, 0x87b4_501e_d46e_8081),
    (256, 1, 0x7444_4e12_1991_a071),
    (256, 2, 0x4143_6248_e77e_3ac1),
    (448, 0, 0x55fa_ac07_1b13_f147),
    (448, 1, 0x15fb_9c4a_bd87_3cd0),
    (448, 2, 0x7dad_7b27_8b76_2c77),
];

/// `(k, seed, digest)` of `AppClassifier::fit_workloads` on the full zoo
/// measured on a V100.
const GOLDEN_CLASSIFIER: &[(usize, u64, u64)] = &[
    (3, 0xC1A55, 0xca53_941b_4d34_de1c),
    (5, 42, 0x41cc_874d_dbbc_2f55),
    (2, 7, 0x4d7e_8ca8_5a51_b0ca),
];

/// Digest of Adaptive-PAL's table after [`drift`].
const GOLDEN_ADAPTIVE: u64 = 0x7bc6_f33f_88f5_cc9e;

#[test]
fn score_binning_matches_golden_digests() {
    let mut got = Vec::new();
    for gpus in [64usize, 256, 448] {
        let profile = longhorn_profile(gpus, PROFILE_SEED);
        for c in 0..profile.num_classes() {
            let mut h = Fnv::new();
            digest_binned(
                &mut h,
                &ScoreBinning::default().bin(profile.class_scores(JobClass(c))),
            );
            got.push((gpus, c, h.0));
        }
    }
    assert_eq!(got, GOLDEN_BINNING, "binning digests drifted: {got:#x?}");
}

#[test]
fn classifier_matches_golden_digests() {
    let workloads: Vec<Workload> = Workload::ALL.to_vec();
    let mut got = Vec::new();
    for (k, seed) in [(3usize, 0xC1A55u64), (5, 42), (2, 7)] {
        let c = AppClassifier::fit_workloads(&workloads, &GpuSpec::v100(), k, seed);
        let mut h = Fnv::new();
        for &(d, f) in c.centroids() {
            h.f64(d);
            h.f64(f);
        }
        for i in 0..workloads.len() {
            h.u64(c.class_of_sample(i).0 as u64);
        }
        got.push((k, seed, h.0));
    }
    assert_eq!(
        got, GOLDEN_CLASSIFIER,
        "classifier digests drifted: {got:#x?}"
    );
}

/// A stale 64-GPU profile drifting towards a different truth, four GPUs
/// per observation and many re-bins. Every other stretch of 32 calls
/// observes class A only, so some re-bins see classes B and C unchanged.
fn drift() -> AdaptivePal {
    let profile = longhorn_profile(64, PROFILE_SEED);
    let truth = longhorn_profile(64, PROFILE_SEED ^ 0xD21F7);
    let mut policy = AdaptivePal::new(&profile);
    for step in 0..400usize {
        let class = JobClass(if (step / 32) % 2 == 0 { step % 3 } else { 0 });
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

#[test]
fn adaptive_rebin_matches_golden_digest() {
    let policy = drift();
    let mut h = Fnv::new();
    for c in 0..policy.table().num_classes() {
        digest_binned(&mut h, policy.table().binned(JobClass(c)));
    }
    assert_eq!(h.0, GOLDEN_ADAPTIVE, "adaptive digest drifted: {:#x}", h.0);
}
