//! Property tests for the clustering substrate.

use mips_clustering::{assign_to_nearest, kmeans, max_angles_per_cluster, KMeansConfig};
use mips_linalg::kernels::{angle, dist2_sq};
use mips_linalg::Matrix;
use proptest::prelude::*;

fn points_strategy() -> impl Strategy<Value = Matrix<f64>> {
    (1usize..40, 1usize..6, 0u64..1000).prop_map(|(n, f, seed)| {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(n, f, move |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants hold for any input.
    #[test]
    fn clustering_invariants(points in points_strategy(), k in 1usize..8, iters in 1usize..5) {
        let result = kmeans(&points, &KMeansConfig { k, max_iters: iters, seed: 1 });
        result.check_invariants(points.rows());
        prop_assert!(result.inertia >= 0.0);
        prop_assert!(result.iterations >= 1 && result.iterations <= iters);
        prop_assert!(result.k() <= k);
    }

    /// After the final assignment step, every point sits with its nearest
    /// centroid (Euclidean k-means).
    #[test]
    fn final_assignment_is_nearest(points in points_strategy(), k in 1usize..6) {
        let result = kmeans(&points, &KMeansConfig { k, max_iters: 3, seed: 2 });
        for (p, &c) in result.assignments.iter().enumerate() {
            let own = dist2_sq(points.row(p), result.centroids.row(c as usize));
            for other in 0..result.k() {
                let d = dist2_sq(points.row(p), result.centroids.row(other));
                prop_assert!(own <= d + 1e-9, "point {p}: cluster {c} at {own}, {other} at {d}");
            }
        }
        // assign_to_nearest must agree with the clustering's own assignment.
        prop_assert_eq!(assign_to_nearest(&points, &result.centroids), result.assignments);
    }

    /// θ_b dominates every member's angle (the MAXIMUS exactness premise).
    #[test]
    fn theta_b_dominates_members(points in points_strategy(), k in 1usize..6) {
        let result = kmeans(&points, &KMeansConfig { k, max_iters: 3, seed: 3 });
        let thetas = max_angles_per_cluster(&points, &result);
        for (p, &c) in result.assignments.iter().enumerate() {
            let row = points.row(p);
            if row.iter().all(|&v| v == 0.0) {
                continue; // zero vectors are excluded from θ_b by design
            }
            let a = angle(row, result.centroids.row(c as usize));
            prop_assert!(a <= thetas[c as usize] + 1e-9);
        }
    }
}
