//! The point query serves any vector, and the index holds item-side state
//! only.

use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_fexipro::{FexiproConfig, FexiproIndex, FexiproScratch, FexiproStats};
use mips_linalg::Matrix;
use mips_topk::{exact_topk, Shortlist, TopKList};

fn model(num_users: usize, num_items: usize, spectral_decay: f64) -> MfModel {
    synth_model(&SynthConfig {
        num_users,
        num_items,
        num_factors: 16,
        spectral_decay,
        item_norm_skew: 1.0,
        seed: 77,
        ..SynthConfig::default()
    })
}

/// Uniform factors in `[-1, 1)` from a fixed LCG.
fn random_rows(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn bits(list: &TopKList) -> Vec<(u32, u64)> {
    list.iter().map(|(id, s)| (id, s.to_bits())).collect()
}

/// Query vectors that are not rows of the model: random, random scaled by
/// 1e±100, tiny ([`mips_data::is_tiny_row`]: norms that underflow, served
/// by the chain over every item) down to subnormal, all-zero, and model
/// users moved by one ulp in every factor.
fn fresh_vectors(m: &MfModel) -> Vec<(String, Vec<f64>)> {
    let f = m.num_factors();
    let random = random_rows(12, f, 0xF1E5);
    let mut out = Vec::new();
    for (r, row) in random.iter_rows().enumerate() {
        for scale in [1.0, 1e100, 1e-100, 1e-160, 1e-200, 1e-310] {
            let v = row.iter().map(|&x| x * scale).collect();
            out.push((format!("random {r} × {scale:e}"), v));
        }
    }
    out.push(("zero".into(), vec![0.0; f]));
    for u in [0, 7, m.num_users() - 1] {
        let v = m.users().row(u);
        let moved = v.iter().map(|x| f64::from_bits(x.to_bits() + 1)).collect();
        out.push((format!("user {u} + 1 ulp"), moved));
    }
    out
}

#[test]
fn fresh_vectors_get_the_oracle_answer() {
    let m = model(40, 300, 0.9);
    let n = m.num_items();
    for cfg in [FexiproConfig::si(), FexiproConfig::sir()] {
        let index = FexiproIndex::build(&m, &cfg);
        // One scratch and shortlist across every query, as a call reuses them.
        let mut scratch = FexiproScratch::default();
        let (mut list, mut stats) = (Shortlist::new(), FexiproStats::default());
        for (name, v) in fresh_vectors(&m) {
            for k in [1, 5, n] {
                let got = index.query(&v, k, m.items(), &mut scratch, &mut list, &mut stats);
                let want = exact_topk(&v, m.items(), k);
                assert_eq!(bits(&got), bits(&want), "{cfg:?} {name} k={k}");
            }
        }
    }
}

#[test]
fn resident_bytes_depend_on_the_catalog_alone() {
    let few = model(40, 2_000, 0.7);
    let f = few.num_factors();
    let many = MfModel::new("many", random_rows(4_000, f, 9), few.items().clone())
        .expect("finite factors");
    let n = few.num_items();
    // An f64 copy of the items alone is `n·f·8` bytes. The rest stays below
    // it while `h` is short: on this decayed spectrum SIR's prefixes (`h`
    // and `h_r` columns) and the `u16` codes sum to fewer than `f` f64s.
    for cfg in [FexiproConfig::si(), FexiproConfig::sir()] {
        let bytes = FexiproIndex::build(&few, &cfg).resident_bytes();
        assert_eq!(
            bytes,
            FexiproIndex::build(&many, &cfg).resident_bytes(),
            "{cfg:?}: the user count moved the resident bytes"
        );
        assert!(
            bytes < n * f * 8,
            "{cfg:?}: {bytes} B is an f64 catalog copy ({} B) or more",
            n * f * 8
        );
    }
}
