//! The S (SVD) and R (reduction) transforms.

use mips_linalg::kernels::{norm2, suffix_norms};
use mips_linalg::svd::SvdBasis;
use mips_linalg::{LinalgError, Matrix};

/// The SVD ("S") stage: transformed item/user coordinates ordered by energy,
/// with the per-item suffix norms needed for the Cauchy–Schwarz bound at the
/// checkpoint `h`.
#[derive(Debug, Clone)]
pub struct SvdStage {
    /// The orthogonal basis (the index keeps its transpose to transform
    /// each query).
    pub basis: SvdBasis,
    /// Checkpoint: number of leading coordinates scanned before bounding.
    pub h: usize,
}

impl SvdStage {
    /// Builds the stage from the item matrix, choosing `h` as the shortest
    /// prefix capturing `energy_target` of the spectrum.
    pub fn build(items: &Matrix<f64>, energy_target: f64) -> Result<SvdStage, LinalgError> {
        let basis = SvdBasis::from_rows(items)?;
        let h = basis.checkpoint_for_energy(energy_target);
        Ok(SvdStage { basis, h })
    }

    /// Applies `x ↦ Vᵀx` to every row.
    pub fn transform(&self, m: &Matrix<f64>) -> Matrix<f64> {
        self.basis.transform(m)
    }
}

/// The reduction ("R") stage: every transformed item is embedded as
/// `[tᵢ ; eᵢ] / M` with `eᵢ = √(M² − ‖tᵢ‖²)` and `M = max ‖tᵢ‖`, making all
/// embedded items unit vectors. The inner product becomes
/// `u·i = ‖u‖·M·cos(û_ext, d̂ᵢ)`, which yields a norm-independent partial
/// cosine bound over the first `h` coordinates.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The maximum transformed item norm `M`.
    pub max_norm: f64,
    /// Per item: the first `h` coordinates of the unit embedding `d̂ᵢ`
    /// (the extension coordinate never lands in the prefix since `h < f+1`).
    pub prefix: Matrix<f64>,
    /// Per item: `‖d̂ᵢ[h..]‖` including the extension coordinate.
    pub suffix: Vec<f64>,
}

impl Reduction {
    /// Builds the reduction over transformed items with checkpoint `h`.
    ///
    /// # Panics
    /// Panics if `h` is out of `[1, f]` or `items` is empty.
    pub fn build(transformed_items: &Matrix<f64>, h: usize) -> Reduction {
        let n = transformed_items.rows();
        let f = transformed_items.cols();
        assert!(n > 0, "Reduction: no items");
        assert!(h >= 1 && h <= f, "Reduction: checkpoint out of range");

        let norms: Vec<f64> = transformed_items.iter_rows().map(norm2).collect();
        let max_norm = norms.iter().fold(0.0f64, |a, &b| a.max(b));
        let mut prefix = Matrix::<f64>::zeros(n, h);
        let mut suffix = Vec::with_capacity(n);
        for (r, &row_norm) in norms.iter().enumerate() {
            if max_norm == 0.0 {
                // All items are zero vectors; embeddings are zero too.
                suffix.push(0.0);
                continue;
            }
            let row = transformed_items.row(r);
            let inv = 1.0 / max_norm;
            for (j, v) in prefix.row_mut(r).iter_mut().enumerate() {
                *v = row[j] * inv;
            }
            // Extension coordinate: e = √(M² − ‖t‖²), clamped for rounding.
            let e = (max_norm * max_norm - row_norm * row_norm).max(0.0).sqrt();
            // ‖d̂[h..]‖² over the tail of t plus the extension coordinate.
            let tail = suffix_norms(row)[h];
            suffix.push(((tail * tail + e * e).sqrt() * inv).min(1.0));
        }
        Reduction {
            max_norm,
            prefix,
            suffix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_linalg::kernels::dot;

    fn random_items(n: usize, f: usize, seed: u64) -> Matrix<f64> {
        let mut state = seed | 1;
        Matrix::from_fn(n, f, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn svd_stage_checkpoint_respects_energy() {
        let items = random_items(50, 10, 3);
        let stage = SvdStage::build(&items, 0.9).unwrap();
        assert!(stage.h >= 1 && stage.h <= 10);
        assert!(stage.basis.energy_fraction(stage.h) >= 0.9);
    }

    #[test]
    fn svd_transform_preserves_dots() {
        let items = random_items(30, 6, 5);
        let users = random_items(4, 6, 7);
        let stage = SvdStage::build(&items, 0.85).unwrap();
        let ti = stage.transform(&items);
        let tu = stage.transform(&users);
        for u in 0..4 {
            for i in 0..30 {
                let a = dot(users.row(u), items.row(i));
                let b = dot(tu.row(u), ti.row(i));
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reduction_embeddings_are_unit() {
        let items = random_items(40, 8, 11);
        let h = 3;
        let red = Reduction::build(&items, h);
        for r in 0..40 {
            let prefix_sq: f64 = red.prefix.row(r).iter().map(|v| v * v).sum();
            let total = prefix_sq + red.suffix[r] * red.suffix[r];
            // Prefix of length h plus remaining tail must form a unit vector
            // — but prefix here is only h of f coords, so total ≤ 1 with
            // equality when the mid coords (h..f) are folded into suffix.
            assert!(total <= 1.0 + 1e-9, "item {r}: {total}");
            assert!(red.suffix[r] >= 0.0 && red.suffix[r] <= 1.0);
        }
        // The max-norm item has zero extension; its full embedded norm is 1.
        let norms: Vec<f64> = items.iter_rows().map(norm2).collect();
        let argmax = norms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let prefix_sq: f64 = red.prefix.row(argmax).iter().map(|v| v * v).sum();
        let total = prefix_sq + red.suffix[argmax] * red.suffix[argmax];
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_bound_dominates_true_cosine_term() {
        // For every (user, item): u·t_i ≤ ‖u‖·M·(û·d̂_prefix + su·suffix_i).
        let items = random_items(60, 8, 13);
        let users = random_items(5, 8, 17);
        let h = 4;
        let red = Reduction::build(&items, h);
        for u in 0..5 {
            let user = users.row(u);
            let un = norm2(user);
            if un == 0.0 {
                continue;
            }
            let unit: Vec<f64> = user.iter().map(|v| v / un).collect();
            let user_suffix = suffix_norms(&unit)[h];
            for i in 0..60 {
                let truth = dot(user, items.row(i));
                let partial = dot(&unit[..h], red.prefix.row(i));
                let bound = un * red.max_norm * (partial + user_suffix * red.suffix[i]);
                assert!(
                    truth <= bound + 1e-9 * (1.0 + truth.abs()),
                    "u={u} i={i}: {truth} > {bound}"
                );
            }
        }
    }

    #[test]
    fn reduction_handles_all_zero_items() {
        let items = Matrix::<f64>::zeros(3, 4);
        let red = Reduction::build(&items, 2);
        assert_eq!(red.max_norm, 0.0);
        assert!(red.suffix.iter().all(|&s| s == 0.0));
    }

    #[test]
    #[should_panic(expected = "checkpoint out of range")]
    fn reduction_rejects_bad_checkpoint() {
        let items = random_items(3, 4, 1);
        let _ = Reduction::build(&items, 5);
    }
}
