//! Lloyd's K-Means with k-means++ seeding over fixed-width points.
//!
//! Points are `[f64; D]` with a const-generic dimension, so the distance
//! and update loops compile to straight-line code for the two widths the
//! paper needs (`D = 1` for PM-score binning, `D = 2` for application
//! classification). All working memory lives in a [`KMeansScratch`] that
//! callers keep across restarts and K values, so a fit allocates nothing
//! once the scratch has grown.
//!
//! Deterministic given a seed; handles empty clusters by re-seeding them on
//! the farthest point from its centroid (a standard, stable repair).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration and entry point for K-Means clustering.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations before giving up on convergence.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement (squared distance).
    pub tol: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Independent restarts; the run with the lowest inertia wins
    /// (scikit-learn's `n_init`, guarding against bad seedings).
    pub n_init: usize,
}

/// Result of a K-Means run over `D`-dimensional points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KMeansResult<const D: usize> {
    /// Cluster centroids, `k` of them.
    pub centroids: Vec<[f64; D]>,
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Working memory of [`KMeans::fit_with`]: the best restart so far, the
/// restart in progress, and the per-iteration buffers. Reusing one across
/// fits (restarts, a K sweep) makes every fit after the first
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct KMeansScratch<const D: usize> {
    best: KMeansResult<D>,
    run: KMeansResult<D>,
    sums: Vec<[f64; D]>,
    counts: Vec<usize>,
    d2: Vec<f64>,
}

impl KMeans {
    /// K-Means with sensible defaults (`max_iters = 200`, `tol = 1e-10`,
    /// `n_init = 10`).
    pub fn new(k: usize, seed: u64) -> Self {
        KMeans {
            k,
            max_iters: 200,
            tol: 1e-10,
            seed,
            n_init: 10,
        }
    }

    /// Cluster `points` into `k` groups, keeping the best of `n_init`
    /// restarts by inertia.
    ///
    /// Panics if `points` is empty, `k == 0`, or `k > points.len()`.
    pub fn fit<const D: usize>(&self, points: &[[f64; D]]) -> KMeansResult<D> {
        let mut scratch = KMeansScratch::default();
        self.fit_with(points, &mut scratch);
        scratch.best
    }

    /// [`fit`](KMeans::fit) into caller-held scratch; the result borrows
    /// it and stays valid until the scratch's next fit.
    pub fn fit_with<'s, const D: usize>(
        &self,
        points: &[[f64; D]],
        scratch: &'s mut KMeansScratch<D>,
    ) -> &'s KMeansResult<D> {
        assert!(self.n_init >= 1, "need at least one restart");
        assert!(!points.is_empty(), "kmeans on empty input");
        assert!(self.k > 0, "k must be positive");
        assert!(
            self.k <= points.len(),
            "k = {} exceeds point count {}",
            self.k,
            points.len()
        );
        for i in 0..self.n_init {
            self.fit_once(
                points,
                self.seed.wrapping_add(i as u64 * 0x9E37_79B9),
                scratch,
            );
            // The first restart always wins: `best` still holds the
            // previous fit's result.
            if i == 0 || scratch.run.inertia < scratch.best.inertia {
                std::mem::swap(&mut scratch.run, &mut scratch.best);
            }
        }
        &scratch.best
    }

    /// One Lloyd run from a single k-means++ seeding, into `scratch.run`.
    fn fit_once<const D: usize>(&self, points: &[[f64; D]], seed: u64, s: &mut KMeansScratch<D>) {
        let k = self.k;
        let run = &mut s.run;
        let mut rng = StdRng::seed_from_u64(seed);
        kmeanspp_init(points, k, &mut rng, &mut run.centroids, &mut s.d2);
        run.assignments.clear();
        run.assignments.resize(points.len(), 0);
        run.iterations = 0;

        for iter in 0..self.max_iters {
            run.iterations = iter + 1;
            // Assignment step.
            for (a, p) in run.assignments.iter_mut().zip(points) {
                *a = nearest(p, &run.centroids).0;
            }
            // Update step.
            s.sums.clear();
            s.sums.resize(k, [0.0; D]);
            s.counts.clear();
            s.counts.resize(k, 0);
            for (p, &a) in points.iter().zip(&run.assignments) {
                s.counts[a] += 1;
                for (sum, &x) in s.sums[a].iter_mut().zip(p) {
                    *sum += x;
                }
            }
            let mut movement = 0.0;
            for c in 0..k {
                if s.counts[c] == 0 {
                    // Empty cluster: re-seed on the point farthest from its
                    // current centroid.
                    let far = farthest(points, &run.centroids, &run.assignments);
                    movement += sq_dist(&run.centroids[c], &points[far]);
                    run.centroids[c] = points[far];
                    run.assignments[far] = c;
                    continue;
                }
                let count = s.counts[c] as f64;
                let new_c = s.sums[c].map(|sum| sum / count);
                movement += sq_dist(&run.centroids[c], &new_c);
                run.centroids[c] = new_c;
            }
            if movement <= self.tol {
                break;
            }
        }

        // Final assignment pass so assignments match the final centroids.
        run.inertia = 0.0;
        for (a, p) in run.assignments.iter_mut().zip(points) {
            let (c, d) = nearest(p, &run.centroids);
            *a = c;
            run.inertia += d;
        }
    }
}

/// Squared Euclidean distance.
pub(crate) fn sq_dist<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// Index and squared distance of the nearest centroid (the first on ties).
fn nearest<const D: usize>(p: &[f64; D], centroids: &[[f64; D]]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// Index of the point farthest from its assigned centroid (the last on
/// ties).
fn farthest<const D: usize>(
    points: &[[f64; D]],
    centroids: &[[f64; D]],
    assignments: &[usize],
) -> usize {
    let mut far = (0, sq_dist(&points[0], &centroids[assignments[0]]));
    for (i, (p, &a)) in points.iter().zip(assignments).enumerate().skip(1) {
        let d = sq_dist(p, &centroids[a]);
        if d.partial_cmp(&far.1).expect("NaN distance") != std::cmp::Ordering::Less {
            far = (i, d);
        }
    }
    far.0
}

/// k-means++ seeding into `centroids`: first centroid uniform, subsequent
/// centroids sampled proportionally to squared distance from the nearest
/// chosen centroid (`d2` holds those distances).
fn kmeanspp_init<const D: usize>(
    points: &[[f64; D]],
    k: usize,
    rng: &mut StdRng,
    centroids: &mut Vec<[f64; D]>,
    d2: &mut Vec<f64>,
) {
    centroids.clear();
    let first = points[rng.gen_range(0..points.len())];
    centroids.push(first);
    d2.clear();
    d2.extend(points.iter().map(|p| sq_dist(p, &first)));
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            // All points coincide with existing centroids; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let c = points[idx];
        centroids.push(c);
        for (d, p) in d2.iter_mut().zip(points) {
            let to_c = sq_dist(p, &c);
            if to_c < *d {
                *d = to_c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push([0.0 + (i % 5) as f64 * 0.01, 0.0]);
            pts.push([10.0 + (i % 5) as f64 * 0.01, 10.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let r = KMeans::new(2, 42).fit(&two_blobs());
        // All points near (0,0) share a label, all near (10,10) another.
        let label0 = r.assignments[0];
        for (i, &a) in r.assignments.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(a, label0);
            } else {
                assert_ne!(a, label0);
            }
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = [[1.0], [2.0], [3.0]];
        let r = KMeans::new(3, 1).fit(&pts);
        assert!(r.inertia < 1e-20);
    }

    #[test]
    fn k1_centroid_is_mean() {
        let pts = [[1.0, 0.0], [3.0, 4.0]];
        let r = KMeans::new(1, 7).fit(&pts);
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-12);
        assert!((r.centroids[0][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let pts = two_blobs();
        let a = KMeans::new(3, 99).fit(&pts);
        let b = KMeans::new(3, 99).fit(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_matches_a_fresh_fit() {
        // A scratch that has already served other K values and inputs
        // must not leak state into the next fit.
        let pts = two_blobs();
        let mut scratch = KMeansScratch::default();
        for k in [5, 1, 3] {
            KMeans::new(k, 4).fit_with(&pts[..17], &mut scratch);
        }
        let reused = KMeans::new(2, 8).fit_with(&pts, &mut scratch).clone();
        assert_eq!(reused, KMeans::new(2, 8).fit(&pts));
    }

    #[test]
    fn inertia_non_increasing_in_k() {
        let pts: Vec<[f64; 1]> = (0..50).map(|i| [(i * i % 37) as f64]).collect();
        let mut last = f64::INFINITY;
        for k in 1..=6 {
            // Use best of a few seeds to smooth seeding luck.
            let best = (0..5)
                .map(|s| KMeans::new(k, s).fit(&pts).inertia)
                .fold(f64::INFINITY, f64::min);
            assert!(
                best <= last + 1e-9,
                "inertia increased from {last} to {best} at k={k}"
            );
            last = best;
        }
    }

    #[test]
    fn identical_points_dont_crash() {
        let pts = [[5.0]; 10];
        let r = KMeans::new(3, 0).fit(&pts);
        assert_eq!(r.assignments.len(), 10);
        assert!(r.inertia < 1e-20);
    }

    #[test]
    #[should_panic(expected = "exceeds point count")]
    fn k_too_large_panics() {
        KMeans::new(5, 0).fit(&[[1.0], [2.0]]);
    }

    #[test]
    fn assignments_point_to_nearest_centroid() {
        let pts = two_blobs();
        let r = KMeans::new(2, 3).fit(&pts);
        for (p, &a) in pts.iter().zip(&r.assignments) {
            let d_assigned = sq_dist(p, &r.centroids[a]);
            for c in &r.centroids {
                assert!(d_assigned <= sq_dist(p, c) + 1e-12);
            }
        }
    }
}
