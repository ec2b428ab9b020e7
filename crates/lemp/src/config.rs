//! LEMP tuning parameters.

/// Configuration for [`crate::LempIndex`].
#[derive(Debug, Clone, Copy)]
pub struct LempConfig {
    /// Items per bucket. Buckets small enough to stay cache-resident make the
    /// per-bucket cosine search fast; the original system sizes buckets to
    /// the cache, we default to 256 vectors.
    pub bucket_size: usize,
    /// Fraction of coordinates scanned before the INCR algorithm applies its
    /// Cauchy–Schwarz suffix bound.
    pub checkpoint_fraction: f64,
    /// Number of sampled users the build-time tuner uses to pick LENGTH vs
    /// INCR per bucket (the adaptive step of LEMP-LI).
    pub tune_sample: usize,
    /// `k` used for tuning queries.
    pub tune_k: usize,
    /// Seed for the tuner's user sample. Different seeds may legitimately
    /// select different per-bucket algorithms (the Fig. 7 variance effect).
    pub seed: u64,
}

impl Default for LempConfig {
    fn default() -> Self {
        LempConfig {
            bucket_size: 256,
            checkpoint_fraction: 0.25,
            tune_sample: 16,
            tune_k: 10,
            seed: 0x1E3B,
        }
    }
}

impl LempConfig {
    /// Validates parameter ranges — the one statement of this config's
    /// invariants: [`crate::LempIndex::build`] `expect`s it, the engine's
    /// factory maps it to a typed error.
    pub fn validate(&self) -> Result<(), String> {
        if self.bucket_size == 0 {
            return Err("bucket_size must be > 0".to_string());
        }
        if !(self.checkpoint_fraction > 0.0 && self.checkpoint_fraction <= 1.0) {
            return Err(format!(
                "checkpoint_fraction {} outside (0, 1]",
                self.checkpoint_fraction
            ));
        }
        if self.tune_k == 0 {
            return Err("tune_k must be > 0".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_each_degenerate_knob_is_named() {
        let ok = LempConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        for (config, knob) in [
            (
                LempConfig {
                    bucket_size: 0,
                    ..ok
                },
                "bucket_size",
            ),
            (
                LempConfig {
                    checkpoint_fraction: 0.0,
                    ..ok
                },
                "checkpoint_fraction",
            ),
            (
                LempConfig {
                    checkpoint_fraction: f64::NAN,
                    ..ok
                },
                "checkpoint_fraction",
            ),
            (
                LempConfig {
                    checkpoint_fraction: 1.5,
                    ..ok
                },
                "checkpoint_fraction",
            ),
            (LempConfig { tune_k: 0, ..ok }, "tune_k"),
        ] {
            let message = config.validate().expect_err(knob);
            assert!(message.contains(knob), "{message}");
        }
    }
}
