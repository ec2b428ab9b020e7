//! The numeric execution mode of the scan backends.
//!
//! The scan-dominated solvers (BMM, LEMP, MAXIMUS) can run their prune/scan
//! phase in a lower-precision [`ScreenTier`] — an f32 mirror of the factor
//! block, or a symmetric int8 mirror with exact integer dots (see
//! [`mips_topk::screen`]) — and rescore the surviving candidates in f64.
//! Because the rescore uses the exact same f64 reduction as the direct
//! path, all modes are **bit-identical** in their results — the choice is
//! purely a performance decision, which is why OPTIMUS can make it per plan
//! under [`Precision::Auto`].
//!
//! [`Precision::of_tier`] and [`Precision::forced_tier`] are the only place
//! the two enums are related; everything else in this crate handles a tier
//! as an opaque value.

use mips_topk::ScreenTier;

/// How an engine (or one prepared plan) executes scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Pure double precision everywhere (the default).
    #[default]
    F64,
    /// f32 screen with conservative error envelope, exact f64 rescore of
    /// the survivors. Bit-identical results to [`Precision::F64`]. Backends
    /// without a screen path — and models whose factors round to ±∞ in f32
    /// — silently serve f64-direct.
    F32Rescore,
    /// Int8 screen — exact integer dots over per-row-scaled symmetric codes
    /// with a quantization envelope — and exact f64 rescore of the
    /// survivors. Bit-identical results to [`Precision::F64`]. Backends
    /// without an i8 path — and models whose quantization degenerates
    /// (subnormal rows, factor counts past the i32-overflow cap) — silently
    /// serve f64-direct.
    I8Rescore,
    /// Let OPTIMUS cost the f32 and int8 screens against f64-direct per
    /// backend and pick the sampled winner. Never slower than the best of
    /// the modes on the sample.
    Auto,
}

impl Precision {
    /// The mode a solver armed with `tier` serves through (`None`: pure
    /// f64). Inverse of [`Precision::forced_tier`].
    pub fn of_tier(tier: Option<ScreenTier>) -> Precision {
        match tier {
            None => Precision::F64,
            Some(ScreenTier::F32) => Precision::F32Rescore,
            Some(ScreenTier::I8) => Precision::I8Rescore,
        }
    }

    /// The screen tier this mode forces on every backend that has it;
    /// `None` for [`Precision::F64`] (no screen) and [`Precision::Auto`]
    /// (the planner competes every tier instead of forcing one).
    pub fn forced_tier(&self) -> Option<ScreenTier> {
        match self {
            Precision::F32Rescore => Some(ScreenTier::F32),
            Precision::I8Rescore => Some(ScreenTier::I8),
            Precision::F64 | Precision::Auto => None,
        }
    }

    /// Stable lowercase wire name (`/metrics`, bench row identity).
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32Rescore => "f32-rescore",
            Precision::I8Rescore => "i8-rescore",
            Precision::Auto => "auto",
        }
    }

    /// Parses the wire name produced by [`Precision::as_str`].
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32-rescore" => Some(Precision::F32Rescore),
            "i8-rescore" => Some(Precision::I8Rescore),
            "auto" => Some(Precision::Auto),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for p in [
            Precision::F64,
            Precision::F32Rescore,
            Precision::I8Rescore,
            Precision::Auto,
        ] {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(Precision::parse("f32"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }

    /// Everything a tier must be wired into, checked for every tier: a new
    /// [`ScreenTier`] variant that misses one of these fails here.
    #[test]
    fn every_screen_tier_is_wired_end_to_end() {
        use crate::engine::BackendRegistry;
        use crate::serve::{LatencySnapshot, ServerMetrics};
        use mips_data::synth::{synth_model, SynthConfig};

        let model = crate::sync::Arc::new(synth_model(&SynthConfig {
            num_users: 12,
            num_items: 30,
            num_factors: 6,
            ..SynthConfig::default()
        }));
        let registry = BackendRegistry::with_defaults();
        let metrics = ServerMetrics {
            submitted: 0,
            completed: 0,
            rejected: 0,
            failed: 0,
            epoch: 0,
            precision: Precision::Auto,
            swaps: 0,
            latency: LatencySnapshot::default(),
            shards: Vec::new(),
        }
        .to_json();
        assert_eq!(Precision::of_tier(None), Precision::F64);
        for tier in ScreenTier::ALL {
            // The two enums are mutual inverses and the mode has a wire name.
            let precision = Precision::of_tier(Some(tier));
            assert_eq!(precision.forced_tier(), Some(tier));
            assert_eq!(Precision::parse(precision.as_str()), Some(precision));
            // Every scan backend derives a variant in the tier.
            for key in ["bmm", "maximus", "lemp"] {
                let factory = registry.get(key).expect("default backend");
                let base = factory.build(&model).expect("plain build");
                assert!(base.screen_tiers().contains(&tier), "{key}");
                let solver = base.screen_variant(tier).expect("scan backends screen");
                assert_eq!(solver.precision(), precision, "{key}");
            }
            // The planner can bound the tier's variants: it has a measured
            // kernel rate.
            assert!(crate::optimus::cost::tier_flops_per_second(Some(tier)) > 0.0);
            // `/metrics` carries the tier's three lanes.
            for lane in [
                format!("\"{}_batches\":0", tier.name()),
                format!("\"screen_candidates_{}\":0", tier.name()),
                format!("\"screen_survivors_{}\":0", tier.name()),
            ] {
                assert!(metrics.contains(&lane), "{metrics} missing {lane}");
            }
        }
        assert_eq!(Precision::F64.forced_tier(), None);
        assert_eq!(Precision::Auto.forced_tier(), None);
    }
}
