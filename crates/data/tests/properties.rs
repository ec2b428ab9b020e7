//! Property tests for the data substrate.

use mips_data::synth::{synth_model, SynthConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any valid knob combination produces a well-formed model.
    #[test]
    fn synth_models_are_always_valid(n_users in 1usize..60,
                                     n_items in 1usize..60,
                                     f in 1usize..16,
                                     clusters in 1usize..10,
                                     spread in 0.0f64..2.0,
                                     skew in 0.0f64..1.5,
                                     decay in 0.5f64..1.0,
                                     seed in 0u64..10_000) {
        let m = synth_model(&SynthConfig {
            num_users: n_users,
            num_items: n_items,
            num_factors: f,
            user_clusters: clusters,
            user_spread: spread,
            item_norm_skew: skew,
            spectral_decay: decay,
            seed,
        });
        prop_assert_eq!(m.num_users(), n_users);
        prop_assert_eq!(m.num_items(), n_items);
        prop_assert_eq!(m.num_factors(), f);
        prop_assert!(m.users().all_finite());
        prop_assert!(m.items().all_finite());
    }
}
