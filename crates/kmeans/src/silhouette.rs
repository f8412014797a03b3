//! Silhouette analysis (Rousseeuw 1987), the paper's criterion for choosing
//! the number of PM-score bins K: "We select the K value that gives
//! silhouette scores as close to +1 as possible for all bins so that we get
//! distinct and relatively well-separated bins" (Section III-B).
//!
//! Scoring a labelling needs every pairwise distance, and the K sweep
//! scores ten labellings of the same points, so [`Silhouette`] computes the
//! distances once and reuses them (and its per-cluster buffers) for every
//! labelling.

use crate::kmeans::sq_dist;

/// Pairwise Euclidean distances of one point set plus the buffers that
/// score labellings of it.
#[derive(Debug, Clone)]
pub struct Silhouette {
    n: usize,
    /// Row-major `n × n` distance table.
    dist: Vec<f64>,
    /// Per-sample coefficients of the last labelling scored.
    samples: Vec<f64>,
    /// Cluster sizes of the last labelling scored.
    sizes: Vec<usize>,
    /// Per-cluster sums (of distances from one point, then of samples).
    sums: Vec<f64>,
}

impl Silhouette {
    /// Build the distance table of `points`.
    pub fn new<const D: usize>(points: &[[f64; D]]) -> Self {
        let n = points.len();
        let mut dist = vec![0.0; n * n];
        for (i, p) in points.iter().enumerate() {
            for (j, q) in points.iter().enumerate().skip(i + 1) {
                // (x - y)² and (y - x)² are the same float, so the table
                // is exactly symmetric.
                let d = sq_dist(p, q).sqrt();
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        Silhouette {
            n,
            dist,
            samples: Vec::with_capacity(n),
            sizes: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Per-sample silhouette coefficients of `assignments`, see
    /// [`silhouette_samples`].
    pub fn samples(&mut self, assignments: &[usize]) -> &[f64] {
        self.score(assignments);
        &self.samples
    }

    /// The smallest per-cluster mean silhouette of `assignments`, see
    /// [`min_cluster_silhouette`].
    pub fn min_cluster(&mut self, assignments: &[usize]) -> f64 {
        let k = self.score(assignments);
        self.sums.clear();
        self.sums.resize(k, 0.0);
        for (&a, &s) in assignments.iter().zip(&self.samples) {
            self.sums[a] += s;
        }
        (0..k)
            .filter(|&c| self.sizes[c] > 0)
            .map(|c| self.sums[c] / self.sizes[c] as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Fill `samples` and `sizes` for `assignments`; returns the cluster
    /// count.
    fn score(&mut self, assignments: &[usize]) -> usize {
        assert_eq!(self.n, assignments.len(), "length mismatch");
        let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
        assert!(k >= 2, "silhouette needs at least 2 clusters");
        let n = self.n;
        self.sizes.clear();
        self.sizes.resize(k, 0);
        for &a in assignments {
            self.sizes[a] += 1;
        }
        self.samples.clear();
        for (i, &ci) in assignments.iter().enumerate() {
            if self.sizes[ci] <= 1 {
                self.samples.push(0.0);
                continue;
            }
            // Mean distance from i to every cluster, summed over j in
            // ascending order, skipping j = i.
            self.sums.clear();
            self.sums.resize(k, 0.0);
            let row = &self.dist[i * n..(i + 1) * n];
            for (&d, &aj) in row[..i].iter().zip(&assignments[..i]) {
                self.sums[aj] += d;
            }
            for (&d, &aj) in row[i + 1..].iter().zip(&assignments[i + 1..]) {
                self.sums[aj] += d;
            }
            let a = self.sums[ci] / (self.sizes[ci] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != ci && self.sizes[c] > 0)
                .map(|c| self.sums[c] / self.sizes[c] as f64)
                .fold(f64::INFINITY, f64::min);
            let denom = a.max(b);
            self.samples
                .push(if denom == 0.0 { 0.0 } else { (b - a) / denom });
        }
        k
    }
}

/// Per-sample silhouette coefficients `s(i) = (b(i) - a(i)) / max(a, b)`.
///
/// `a(i)` is the mean distance to other points in the same cluster and
/// `b(i)` the smallest mean distance to points of any other cluster.
/// Singleton clusters get `s(i) = 0` by convention (scikit-learn's choice).
///
/// Panics if lengths mismatch or fewer than 2 clusters are present.
pub fn silhouette_samples<const D: usize>(points: &[[f64; D]], assignments: &[usize]) -> Vec<f64> {
    Silhouette::new(points).samples(assignments).to_vec()
}

/// Mean silhouette over all samples.
pub fn mean_silhouette<const D: usize>(points: &[[f64; D]], assignments: &[usize]) -> f64 {
    let s = silhouette_samples(points, assignments);
    s.iter().sum::<f64>() / s.len() as f64
}

/// The smallest per-cluster mean silhouette.
///
/// The paper wants scores "as close to +1 as possible **for all bins**", so
/// we score a K by its worst bin, not its average.
pub fn min_cluster_silhouette<const D: usize>(points: &[[f64; D]], assignments: &[usize]) -> f64 {
    Silhouette::new(points).min_cluster(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: f64, n: usize) -> Vec<[f64; 1]> {
        (0..n).map(|i| [center + i as f64 * 0.01]).collect()
    }

    #[test]
    fn well_separated_clusters_score_high() {
        let mut pts = blob(0.0, 10);
        pts.extend(blob(100.0, 10));
        let assignments: Vec<usize> = (0..20).map(|i| if i < 10 { 0 } else { 1 }).collect();
        let m = mean_silhouette(&pts, &assignments);
        assert!(m > 0.99, "expected near-1 silhouette, got {m}");
    }

    #[test]
    fn wrong_assignment_scores_negative() {
        // Two tight blobs but swap one point's label: it should be negative.
        let mut pts = blob(0.0, 5);
        pts.extend(blob(100.0, 5));
        let mut assignments: Vec<usize> = (0..10).map(|i| if i < 5 { 0 } else { 1 }).collect();
        assignments[0] = 1; // point at 0.0 labeled with the far cluster
        let s = silhouette_samples(&pts, &assignments);
        assert!(
            s[0] < 0.0,
            "mislabeled point should be negative, got {}",
            s[0]
        );
    }

    #[test]
    fn singleton_cluster_is_zero() {
        let pts = [[0.0], [10.0], [10.1]];
        let assignments = vec![0, 1, 1];
        let s = silhouette_samples(&pts, &assignments);
        assert_eq!(s[0], 0.0);
    }

    #[test]
    fn min_cluster_below_mean_for_unbalanced_quality() {
        // Cluster 0 tight, cluster 1 loose and near cluster 0.
        let mut pts = blob(0.0, 8);
        pts.extend([[1.0], [5.0], [9.0], [2.0]]);
        let assignments: Vec<usize> = (0..8).map(|_| 0).chain((0..4).map(|_| 1)).collect();
        let mean = mean_silhouette(&pts, &assignments);
        let min = min_cluster_silhouette(&pts, &assignments);
        assert!(min <= mean + 1e-12);
    }

    #[test]
    fn one_table_scores_many_labellings() {
        // Reusing the table and buffers across labellings with different
        // cluster counts gives what a fresh table gives.
        let pts: Vec<[f64; 1]> = (0..24).map(|i| [(i * 7 % 11) as f64]).collect();
        let mut table = Silhouette::new(&pts);
        for k in [4usize, 2, 6, 3] {
            let labels: Vec<usize> = (0..24).map(|i| i % k).collect();
            assert_eq!(
                table.min_cluster(&labels).to_bits(),
                min_cluster_silhouette(&pts, &labels).to_bits()
            );
            assert_eq!(table.samples(&labels), silhouette_samples(&pts, &labels));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 clusters")]
    fn single_cluster_panics() {
        silhouette_samples(&[[1.0], [2.0]], &[0, 0]);
    }

    #[test]
    fn values_in_range() {
        let pts: Vec<[f64; 2]> = (0..30)
            .map(|i| [(i * 7 % 13) as f64, (i % 5) as f64])
            .collect();
        let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
        for s in silhouette_samples(&pts, &assignments) {
            assert!((-1.0..=1.0).contains(&s), "silhouette {s} out of range");
        }
    }
}
