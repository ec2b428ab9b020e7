//! FEXIPRO configuration and the SI / SIR presets.

/// Energy fraction the SVD checkpoint must capture; the checkpoint `h` is
/// the shortest coordinate prefix reaching it.
pub(crate) const ENERGY_TARGET: f64 = 0.90;

/// Bits of integer precision for the "I" stage quantization.
pub(crate) const INT_BITS: u32 = 12;

/// Configuration for [`crate::FexiproIndex`]: the S and I stages always run,
/// the R stage is the one choice (FEXIPRO-SI vs FEXIPRO-SIR).
#[derive(Debug, Clone, Copy)]
pub struct FexiproConfig {
    /// Enable the reduction filter (the "R" stage).
    pub enable_reduction: bool,
}

impl Default for FexiproConfig {
    fn default() -> Self {
        FexiproConfig::si()
    }
}

impl FexiproConfig {
    /// FEXIPRO-SI: SVD + integer pruning (the faster preset in the paper).
    pub fn si() -> Self {
        FexiproConfig {
            enable_reduction: false,
        }
    }

    /// FEXIPRO-SIR: all pruning strategies enabled.
    pub fn sir() -> Self {
        FexiproConfig {
            enable_reduction: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_reduction() {
        assert!(!FexiproConfig::si().enable_reduction);
        assert!(FexiproConfig::sir().enable_reduction);
    }
}
