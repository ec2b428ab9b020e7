//! Scaled stand-ins for the paper's 23 reference models.
//!
//! Table I of the paper lists four datasets; §V-A trains 23 models over them
//! (Netflix-DSGD/NOMAD/BPR, R2-NOMAD, KDD-NOMAD, KDD-REF, GloVe-Twitter at
//! various factor counts). Each [`ModelSpec`] here reproduces one of those
//! models as a synthetic stand-in whose distributional knobs are chosen to
//! mimic the published solver win/loss pattern:
//!
//! * *Netflix* models (especially BPR) have flat item-norm distributions and
//!   diffuse users — blocked matrix multiply territory (Fig. 2 left).
//! * *R2* and *KDD* models have heavy item-norm skew and tighter user
//!   bundles — pruning indexes win (Fig. 2 right), and KDD's huge item
//!   catalog magnifies the effect.
//! * *GloVe* embeddings are strongly direction-clustered with fast spectral
//!   decay — MAXIMUS-friendly.
//!
//! Sizes are scaled down ~100× from Table I so the full grid runs in minutes;
//! the user:item shape ratios are preserved. `scale` multiplies both counts.

use crate::model::MfModel;
use crate::synth::{synth_model, SynthConfig};

/// Identifies one reference model from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Dataset family: `"Netflix"`, `"KDD"`, `"R2"`, or `"GloVe"`.
    pub dataset: &'static str,
    /// Training algorithm: `"DSGD"`, `"NOMAD"`, `"BPR"`, `"REF"`, or `""`.
    pub training: &'static str,
    /// Latent factor count.
    pub f: usize,
}

impl ModelSpec {
    /// Paper-style display name, e.g. `"Netflix-DSGD, f = 50"`.
    pub fn name(&self) -> String {
        if self.training.is_empty() {
            format!("{} Twitter, f = {}", self.dataset, self.f)
        } else {
            format!("{}-{}, f = {}", self.dataset, self.training, self.f)
        }
    }

    /// Base (scale = 1) user/item counts, preserving Table I shape ratios.
    pub fn base_shape(&self) -> (usize, usize) {
        match self.dataset {
            // Table I: 480,189 users / 17,770 items.
            "Netflix" => (3600, 1300),
            // Table I: 1,000,990 users / 624,961 items — huge item catalog.
            "KDD" => (2200, 4400),
            // Table I: 1,823,179 users / 136,736 items — most users.
            "R2" => (5200, 1500),
            // Table I: 100,000 query vectors / 1,093,514 item vectors.
            "GloVe" => (700, 5600),
            other => panic!("unknown dataset {other}"),
        }
    }

    /// The full-scale user/item counts from Table I of the paper.
    pub fn paper_shape(&self) -> (usize, usize) {
        match self.dataset {
            "Netflix" => (480_189, 17_770),
            "KDD" => (1_000_990, 624_961),
            "R2" => (1_823_179, 136_736),
            "GloVe" => (100_000, 1_093_514),
            other => panic!("unknown dataset {other}"),
        }
    }

    /// Distributional knobs mimicking this model family (see module docs).
    fn knobs(&self) -> (usize, f64, f64, f64) {
        // (user_clusters, user_spread, item_norm_skew, spectral_decay)
        match (self.dataset, self.training) {
            // Explicit Netflix models: moderate structure; BMM competitive.
            ("Netflix", "DSGD") => (10, 0.65, 0.30, 0.97),
            ("Netflix", "NOMAD") => (10, 0.55, 0.32, 0.96),
            // Implicit BPR: diffuse users, flat norms — indexes prune poorly.
            ("Netflix", "BPR") => (6, 1.30, 0.08, 1.00),
            // Yahoo R2: strong popularity skew, tight user bundles.
            ("R2", "NOMAD") => (12, 0.22, 1.05, 0.94),
            // Yahoo KDD: skewed norms over an enormous catalog.
            ("KDD", "NOMAD") => (12, 0.30, 0.95, 0.94),
            ("KDD", "REF") => (14, 0.26, 1.10, 0.93),
            // GloVe embeddings: directional clusters, fast spectral decay.
            ("GloVe", "") => (10, 0.28, 0.45, 0.92),
            (d, t) => panic!("unknown model family {d}-{t}"),
        }
    }

    /// Deterministic per-spec seed.
    fn seed(&self) -> u64 {
        let mut h: u64 = 0xCBF29CE484222325;
        for b in self
            .dataset
            .bytes()
            .chain(self.training.bytes())
            .chain(self.f.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
        h
    }

    /// Generates the stand-in model at the given scale.
    ///
    /// # Panics
    /// Panics if `scale` is not a positive finite number.
    pub fn build(&self, scale: f64) -> MfModel {
        assert!(
            scale.is_finite() && scale > 0.0,
            "ModelSpec::build: scale must be positive"
        );
        let (bu, bi) = self.base_shape();
        let (user_clusters, user_spread, item_norm_skew, spectral_decay) = self.knobs();
        let cfg = SynthConfig {
            num_users: ((bu as f64 * scale) as usize).max(16),
            num_items: ((bi as f64 * scale) as usize).max(16),
            num_factors: self.f,
            seed: self.seed(),
            user_clusters,
            user_spread,
            item_norm_skew,
            spectral_decay,
        };
        let m = synth_model(&cfg);
        MfModel::new(self.name(), m.users().clone(), m.items().clone())
            .expect("synthetic model is valid")
    }
}

/// All 23 reference models of §V-A, in the order of Figure 5.
pub fn reference_models() -> Vec<ModelSpec> {
    let mut specs = Vec::with_capacity(23);
    for f in [10, 50, 100] {
        specs.push(ModelSpec {
            dataset: "Netflix",
            training: "DSGD",
            f,
        });
    }
    for f in [10, 25, 50, 100] {
        specs.push(ModelSpec {
            dataset: "Netflix",
            training: "NOMAD",
            f,
        });
    }
    for f in [10, 25, 50, 100] {
        specs.push(ModelSpec {
            dataset: "Netflix",
            training: "BPR",
            f,
        });
    }
    for f in [10, 25, 50, 100] {
        specs.push(ModelSpec {
            dataset: "R2",
            training: "NOMAD",
            f,
        });
    }
    for f in [10, 25, 50, 100] {
        specs.push(ModelSpec {
            dataset: "KDD",
            training: "NOMAD",
            f,
        });
    }
    specs.push(ModelSpec {
        dataset: "KDD",
        training: "REF",
        f: 51,
    });
    for f in [50, 100, 200] {
        specs.push(ModelSpec {
            dataset: "GloVe",
            training: "",
            f,
        });
    }
    specs
}

/// Looks up a spec by family and factor count.
pub fn find(dataset: &str, training: &str, f: usize) -> Option<ModelSpec> {
    reference_models()
        .into_iter()
        .find(|s| s.dataset == dataset && s.training == training && s.f == f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_23_models_like_the_paper() {
        assert_eq!(reference_models().len(), 23);
    }

    #[test]
    fn names_match_paper_style() {
        let spec = find("Netflix", "DSGD", 50).unwrap();
        assert_eq!(spec.name(), "Netflix-DSGD, f = 50");
        let glove = find("GloVe", "", 100).unwrap();
        assert_eq!(glove.name(), "GloVe Twitter, f = 100");
        let kdd = find("KDD", "REF", 51).unwrap();
        assert_eq!(kdd.name(), "KDD-REF, f = 51");
    }

    #[test]
    fn all_specs_build_at_tiny_scale() {
        for spec in reference_models() {
            let m = spec.build(0.02);
            assert!(m.num_users() >= 16, "{}", spec.name());
            assert!(m.num_items() >= 16, "{}", spec.name());
            assert_eq!(m.num_factors(), spec.f, "{}", spec.name());
        }
    }

    #[test]
    fn scale_changes_size_not_structure() {
        let spec = find("R2", "NOMAD", 25).unwrap();
        let small = spec.build(0.05);
        let big = spec.build(0.1);
        assert!(big.num_users() > small.num_users());
        assert_eq!(small.num_factors(), big.num_factors());
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = find("KDD", "NOMAD", 10).unwrap();
        let a = spec.build(0.05);
        let b = spec.build(0.05);
        assert_eq!(a.users().as_slice(), b.users().as_slice());
    }

    #[test]
    fn distinct_specs_get_distinct_seeds() {
        let a = find("Netflix", "NOMAD", 50).unwrap();
        let b = find("Netflix", "NOMAD", 100).unwrap();
        let c = find("R2", "NOMAD", 50).unwrap();
        assert_ne!(a.seed(), b.seed());
        assert_ne!(a.seed(), c.seed());
    }

    #[test]
    fn shape_ratios_follow_table1() {
        // KDD and GloVe have more items than users; Netflix and R2 fewer.
        let (nu, ni) = ModelSpec {
            dataset: "KDD",
            training: "NOMAD",
            f: 10,
        }
        .base_shape();
        assert!(ni > nu);
        let (nu, ni) = ModelSpec {
            dataset: "Netflix",
            training: "DSGD",
            f: 10,
        }
        .base_shape();
        assert!(nu > ni);
    }

    #[test]
    fn find_returns_none_for_unknown() {
        assert!(find("Netflix", "DSGD", 77).is_none());
    }
}
