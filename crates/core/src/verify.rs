//! Exactness checking for top-k results against the one oracle,
//! [`mips_topk::exact_topk`].
//!
//! Every backend owes the oracle's answer: the same items in the same
//! order, each scored with its [`mips_linalg::kernels::dot_gemm_ordered`]
//! chain to the bit. This checker demands exactly that — one comparison,
//! no tolerance. It is used by the examples, and is available to
//! downstream users who want to validate a custom solver.

use mips_data::MfModel;
use mips_topk::{exact_topk, TopKList};

/// Verifies every user's result list against the oracle's answer at `k`:
/// one list per user, each equal to [`exact_topk`]'s in ids and score bits.
///
/// Returns a description of the first difference — the user and the
/// position — or `Ok(())`.
pub fn check_all_topk(model: &MfModel, k: usize, results: &[TopKList]) -> Result<(), String> {
    if results.len() != model.num_users() {
        return Err(format!(
            "expected {} result lists, got {}",
            model.num_users(),
            results.len()
        ));
    }
    // Entry `p` of a list as `(id, score bits)`, `None` past its end.
    let entry = |l: &TopKList, p: usize| {
        let score = l.scores.get(p).map(|s| s.to_bits());
        l.items.get(p).copied().zip(score)
    };
    for (u, got) in results.iter().enumerate() {
        let want = exact_topk(model.users().row(u), model.items(), k);
        let n = got.items.len().max(got.scores.len()).max(want.len());
        if let Some(p) = (0..n).find(|&p| entry(got, p) != entry(&want, p)) {
            let show = |l: &TopKList| match entry(l, p) {
                Some((id, bits)) => format!("item {id} scored {:e}", f64::from_bits(bits)),
                None => "nothing".to_string(),
            };
            let (got, want) = (show(got), show(&want));
            return Err(format!(
                "user {u}, position {p}: got {got}, the oracle has {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximus::MaximusIndex;
    use crate::solver::MipsSolver;
    use crate::sync::Arc;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model() -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: 12,
            num_items: 30,
            num_factors: 6,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn accepts_correct_results() {
        let m = model();
        let solver = MaximusIndex::brute_force(Arc::clone(&m));
        let results = solver.query_all(5);
        check_all_topk(&m, 5, &results).unwrap();
    }

    #[test]
    fn rejects_wrong_length() {
        let m = model();
        let solver = MaximusIndex::brute_force(Arc::clone(&m));
        let mut results = solver.query_all(5);
        results[3].items.pop();
        results[3].scores.pop();
        let err = check_all_topk(&m, 5, &results).unwrap_err();
        assert!(err.contains("user 3, position 4"), "{err}");
        assert!(err.contains("got nothing"), "{err}");
    }

    #[test]
    fn rejects_fabricated_scores() {
        let m = model();
        let solver = MaximusIndex::brute_force(Arc::clone(&m));
        let mut results = solver.query_all(3);
        results[0].scores[0] += 1.0;
        let err = check_all_topk(&m, 3, &results).unwrap_err();
        assert!(err.contains("user 0, position 0"), "{err}");
        // One ulp off the chain is a wrong score, however close.
        let mut results = solver.query_all(3);
        results[4].scores[1] = f64::from_bits(results[4].scores[1].to_bits() + 1);
        let err = check_all_topk(&m, 3, &results).unwrap_err();
        assert!(err.contains("user 4, position 1"), "{err}");
    }

    #[test]
    fn rejects_suboptimal_items() {
        let m = model();
        let solver = MaximusIndex::brute_force(Arc::clone(&m));
        let mut results = solver.query_all(1);
        // Replace user 0's best item with its true worst, scored canonically.
        let every = exact_topk(m.users().row(0), m.items(), m.num_items());
        results[0] = TopKList {
            items: vec![every.items[every.len() - 1]],
            scores: vec![every.scores[every.len() - 1]],
        };
        let err = check_all_topk(&m, 1, &results).unwrap_err();
        assert!(err.contains("user 0, position 0"), "{err}");
    }

    #[test]
    fn rejects_duplicates_and_bad_ids() {
        let m = model();
        let solver = MaximusIndex::brute_force(Arc::clone(&m));
        let mut results = solver.query_all(3);
        results[1].items[2] = results[1].items[0];
        results[1].scores[2] = results[1].scores[0];
        let err = check_all_topk(&m, 3, &results).unwrap_err();
        assert!(err.contains("user 1, position 2"), "{err}");

        let mut results = solver.query_all(3);
        results[2].items[0] = 9999;
        let err = check_all_topk(&m, 3, &results).unwrap_err();
        assert!(err.contains("got item 9999"), "{err}");
    }

    #[test]
    fn rejects_wrong_result_count() {
        let m = model();
        let solver = MaximusIndex::brute_force(Arc::clone(&m));
        let results = solver.query_all(2);
        let err = check_all_topk(&m, 2, &results[..5]).unwrap_err();
        assert!(err.contains("result lists"));
    }
}
