//! Reference oracle: the row-of-`Vec` K-Means, per-K silhouette and
//! binning pipeline the library shipped before its fixed-width kernel,
//! kept verbatim in behaviour (same RNG draws, same summation orders) so
//! property tests can demand bit-identical output from the library.

use pal_kmeans::{BinnedScores, ScoreBinning};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Centroids, assignments and inertia of one K-Means fit.
pub struct Fit {
    pub centroids: Vec<Vec<f64>>,
    pub assignments: Vec<usize>,
    pub inertia: f64,
}

/// Best of `n_init = 10` restarts, `max_iters = 200`, `tol = 1e-10`.
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64) -> Fit {
    let mut best: Option<Fit> = None;
    for i in 0..10u64 {
        let r = fit_once(points, k, seed.wrapping_add(i * 0x9E37_79B9));
        if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best = Some(r);
        }
    }
    best.unwrap()
}

fn fit_once(points: &[Vec<f64>], k: usize, seed: u64) -> Fit {
    let dim = points[0].len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = kmeanspp_init(points, k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    for _ in 0..200 {
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest(p, &centroids).0;
        }
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                let (far_idx, _) = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, sq_dist(p, &centroids[assignments[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                movement += sq_dist(&centroids[c], &points[far_idx]);
                centroids[c] = points[far_idx].clone();
                assignments[far_idx] = c;
                continue;
            }
            let new_c: Vec<f64> = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
            movement += sq_dist(&centroids[c], &new_c);
            centroids[c] = new_c;
        }
        if movement <= 1e-10 {
            break;
        }
    }
    let mut inertia = 0.0;
    for (i, p) in points.iter().enumerate() {
        let (a, d) = nearest(p, &centroids);
        assignments[i] = a;
        inertia += d;
    }
    Fit {
        centroids,
        assignments,
        inertia,
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

fn kmeanspp_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
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
        centroids.push(points[idx].clone());
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, centroids.last().unwrap());
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// Per-sample silhouette coefficients.
pub fn silhouette_samples(points: &[Vec<f64>], assignments: &[usize]) -> Vec<f64> {
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "silhouette needs at least 2 clusters");
    let n = points.len();
    let mut cluster_sizes = vec![0usize; k];
    for &a in assignments {
        cluster_sizes[a] += 1;
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let ci = assignments[i];
        if cluster_sizes[ci] <= 1 {
            out.push(0.0);
            continue;
        }
        let mut dist_sums = vec![0.0f64; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            dist_sums[assignments[j]] += sq_dist(&points[i], &points[j]).sqrt();
        }
        let a = dist_sums[ci] / (cluster_sizes[ci] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != ci && cluster_sizes[c] > 0)
            .map(|c| dist_sums[c] / cluster_sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        out.push(if denom == 0.0 { 0.0 } else { (b - a) / denom });
    }
    out
}

/// The smallest per-cluster mean silhouette.
pub fn min_cluster_silhouette(points: &[Vec<f64>], assignments: &[usize]) -> f64 {
    let s = silhouette_samples(points, assignments);
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let mut sums = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    for (&a, &si) in assignments.iter().zip(&s) {
        sums[a] += si;
        counts[a] += 1;
    }
    (0..k)
        .filter(|&c| counts[c] > 0)
        .map(|c| sums[c] / counts[c] as f64)
        .fold(f64::INFINITY, f64::min)
}

/// `ScoreBinning::bin` as it was.
pub fn bin(cfg: &ScoreBinning, values: &[f64]) -> BinnedScores {
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    let mut inlier_idx = Vec::with_capacity(n);
    let mut outlier_idx = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if sd > 0.0 && (v - mean).abs() > cfg.outlier_sigma * sd {
            outlier_idx.push(i);
        } else {
            inlier_idx.push(i);
        }
    }
    let inliers: Vec<Vec<f64>> = inlier_idx.iter().map(|&i| vec![values[i]]).collect();

    let mut scores = vec![0.0f64; n];
    let chosen_k;
    let chosen_sil;
    let distinct_inliers = {
        let mut v: Vec<f64> = inliers.iter().map(|p| p[0]).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.dedup();
        v.len()
    };
    if distinct_inliers >= 2 {
        let k_hi = cfg.k_max.min(distinct_inliers);
        /// Best (K, silhouette, assignments, centroids) found so far.
        type BestBinning = (usize, f64, Vec<usize>, Vec<Vec<f64>>);
        let mut best: Option<BestBinning> = None;
        for k in cfg.k_min..=k_hi.max(cfg.k_min) {
            if k > inliers.len() {
                break;
            }
            let r = kmeans(&inliers, k, cfg.seed ^ k as u64);
            let sil = min_cluster_silhouette(&inliers, &r.assignments);
            let better = match &best {
                None => true,
                Some((_, best_sil, _, _)) => sil > *best_sil + 1e-12,
            };
            if better {
                best = Some((k, sil, r.assignments, r.centroids));
            }
        }
        let (k, sil, assignments, centroids) = best.unwrap();
        chosen_k = k;
        chosen_sil = sil;
        for (pos, &i) in inlier_idx.iter().enumerate() {
            scores[i] = centroids[assignments[pos]][0];
        }
    } else {
        for &i in &inlier_idx {
            scores[i] = values[i];
        }
        chosen_k = 1;
        chosen_sil = 1.0;
    }
    for &i in &outlier_idx {
        scores[i] = values[i];
    }
    let mut levels: Vec<f64> = scores.clone();
    levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
    levels.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let level_of = scores
        .iter()
        .map(|&s| levels.iter().position(|&l| (l - s).abs() < 1e-12).unwrap())
        .collect();
    BinnedScores {
        k: chosen_k,
        silhouette: chosen_sil,
        scores,
        levels,
        level_of,
        outlier_indices: outlier_idx,
    }
}
