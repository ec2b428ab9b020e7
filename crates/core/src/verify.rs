//! Exactness checking for top-k results against the one oracle,
//! [`mips_topk::exact_topk`].
//!
//! Every backend owes the canonical answer: each reported score is the
//! item's [`dot_gemm_ordered`] chain to the bit, and the list is sorted
//! best-first with ties to the smaller id. This checker demands exactly
//! that of the scores. Which items make the list is checked against the
//! oracle's k-th best score within `tol`: a scan that selects with `dot`
//! (MAXIMUS's walk, LEMP, FEXIPRO) can resolve a pair whose scores differ
//! only in the path ulp differently at the k-th place (see
//! [`mips_topk::canonicalize`]), and only that decision is allowed the
//! tolerance. It is used by the cross-crate integration tests and the
//! examples, and is available to downstream users who want to validate a
//! custom solver.

use mips_data::MfModel;
use mips_linalg::kernels::dot_gemm_ordered;
use mips_topk::{exact_topk, TopKList};

/// Verifies one user's result against the oracle's answer for that user.
///
/// Returns a description of the first violation, or `Ok(())`.
pub fn check_user_topk(
    model: &MfModel,
    user: usize,
    k: usize,
    result: &TopKList,
    tol: f64,
) -> Result<(), String> {
    let expected_len = k.min(model.num_items());
    if result.len() != expected_len {
        return Err(format!(
            "user {user}: expected {expected_len} results, got {}",
            result.len()
        ));
    }
    if !result.is_sorted() && result.len() >= 2 {
        return Err(format!("user {user}: result list is not sorted best-first"));
    }

    let urow = model.users().row(user);
    let kth_score = exact_topk(urow, model.items(), k)
        .scores
        .last()
        .copied()
        .unwrap_or(f64::NEG_INFINITY);

    let mut seen = std::collections::BTreeSet::new();
    for (item, score) in result.iter() {
        if item as usize >= model.num_items() {
            return Err(format!("user {user}: item id {item} out of range"));
        }
        if !seen.insert(item) {
            return Err(format!("user {user}: duplicate item {item}"));
        }
        let canonical = dot_gemm_ordered(urow, model.items().row(item as usize));
        if score.to_bits() != canonical.to_bits() {
            return Err(format!(
                "user {user}: reported score {score:e} for item {item}, canonical score {canonical:e}"
            ));
        }
        if canonical < kth_score - tol * (1.0 + kth_score.abs()) {
            return Err(format!(
                "user {user}: item {item} scores {canonical}, below the true k-th best {kth_score}"
            ));
        }
    }
    Ok(())
}

/// Verifies all users' results; reports the first violation.
pub fn check_all_topk(
    model: &MfModel,
    k: usize,
    results: &[TopKList],
    tol: f64,
) -> Result<(), String> {
    if results.len() != model.num_users() {
        return Err(format!(
            "expected {} result lists, got {}",
            model.num_users(),
            results.len()
        ));
    }
    for (u, list) in results.iter().enumerate() {
        check_user_topk(model, u, k, list, tol)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
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
        let solver = BmmSolver::build(Arc::clone(&m));
        let results = solver.query_all(5);
        check_all_topk(&m, 5, &results, 1e-9).unwrap();
    }

    #[test]
    fn rejects_wrong_length() {
        let m = model();
        let solver = BmmSolver::build(Arc::clone(&m));
        let mut results = solver.query_all(5);
        results[3].items.pop();
        results[3].scores.pop();
        let err = check_all_topk(&m, 5, &results, 1e-9).unwrap_err();
        assert!(err.contains("user 3"));
        assert!(err.contains("expected 5"));
    }

    #[test]
    fn rejects_fabricated_scores() {
        let m = model();
        let solver = BmmSolver::build(Arc::clone(&m));
        let mut results = solver.query_all(2);
        results[0].scores[0] += 1.0;
        let err = check_all_topk(&m, 2, &results, 1e-9).unwrap_err();
        assert!(err.contains("reported score"));
    }

    #[test]
    fn rejects_suboptimal_items() {
        let m = model();
        let solver = BmmSolver::build(Arc::clone(&m));
        let mut results = solver.query_all(1);
        // Replace user 0's best item with its true worst, scored canonically.
        let every = exact_topk(m.users().row(0), m.items(), m.num_items());
        results[0] = TopKList {
            items: vec![every.items[every.len() - 1]],
            scores: vec![every.scores[every.len() - 1]],
        };
        let err = check_all_topk(&m, 1, &results, 1e-9).unwrap_err();
        assert!(err.contains("below the true k-th best"), "{err}");
    }

    #[test]
    fn demands_canonical_bits_and_tolerates_only_the_kth_place() {
        let m = model();
        let every = exact_topk(m.users().row(0), m.items(), m.num_items());
        // One ulp off the chain is a wrong score, however close.
        let mut nudged = exact_topk(m.users().row(0), m.items(), 3);
        nudged.scores[1] = f64::from_bits(nudged.scores[1].to_bits() + 1);
        let err = check_user_topk(&m, 0, 3, &nudged, 1e-9).unwrap_err();
        assert!(err.contains("canonical score"), "{err}");
        // The fourth-best item in third place, canonically scored: a
        // membership call `tol` accepts when it spans the gap, and only then.
        let pick = [0, 1, 3];
        let swapped = TopKList {
            items: pick.iter().map(|&i| every.items[i]).collect(),
            scores: pick.iter().map(|&i| every.scores[i]).collect(),
        };
        let gap = (every.scores[2] - every.scores[3]) / (1.0 + every.scores[2].abs());
        check_user_topk(&m, 0, 3, &swapped, 2.0 * gap).unwrap();
        let err = check_user_topk(&m, 0, 3, &swapped, 0.0).unwrap_err();
        assert!(err.contains("below the true k-th best"), "{err}");
    }

    #[test]
    fn rejects_duplicates_and_bad_ids() {
        let m = model();
        let solver = BmmSolver::build(Arc::clone(&m));
        let mut results = solver.query_all(3);
        results[1].items[2] = results[1].items[0];
        results[1].scores[2] = results[1].scores[0];
        let err = check_all_topk(&m, 3, &results, 1e-9).unwrap_err();
        assert!(err.contains("user 1"), "{err}");

        let mut results = solver.query_all(3);
        results[2].items[0] = 9999;
        let err = check_all_topk(&m, 3, &results, 1e-9).unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn rejects_wrong_result_count() {
        let m = model();
        let solver = BmmSolver::build(Arc::clone(&m));
        let results = solver.query_all(2);
        let err = check_all_topk(&m, 2, &results[..5], 1e-9).unwrap_err();
        assert!(err.contains("result lists"));
    }
}
