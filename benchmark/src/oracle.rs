//! The benchmark's own reference answers: a naive f64 dot-and-sort over a
//! seeded sample of users, sharing no code with the solvers it checks.

use crate::stats::Rng;
use optimus_maximus::prelude::MfModel;

/// Users sampled per model.
pub const ORACLE_USERS: usize = 256;
/// Deepest `k` any workload asks for.
pub const ORACLE_DEPTH: usize = 50;
/// Reference scores closer than this (relative) count as tied, and tied
/// items may come back in either order.
const TIE_TOLERANCE: f64 = 1e-9;

const ABSENT: u32 = u32::MAX;

pub struct Oracle {
    users: Vec<usize>,
    /// `slot[user]` indexes `top`, or `ABSENT`.
    slot: Vec<u32>,
    /// Per sampled user: the best `ORACLE_DEPTH` `(item, score)` pairs.
    top: Vec<Vec<(u32, f64)>>,
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

impl Oracle {
    pub fn new(model: &MfModel, seed: u64) -> Oracle {
        let mut rng = Rng::new(seed ^ 0x0AC1E);
        let mut slot = vec![ABSENT; model.num_users()];
        let mut users = Vec::new();
        while users.len() < ORACLE_USERS.min(model.num_users()) {
            let u = rng.below(model.num_users());
            if slot[u] == ABSENT {
                slot[u] = users.len() as u32;
                users.push(u);
            }
        }
        let depth = ORACLE_DEPTH.min(model.num_items());
        let top = users
            .iter()
            .map(|&u| {
                let row = model.users().row(u);
                let mut scored: Vec<(u32, f64)> = (0..model.num_items())
                    .map(|i| (i as u32, dot(row, model.items().row(i))))
                    .collect();
                scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                scored.truncate(depth);
                scored
            })
            .collect();
        Oracle { users, slot, top }
    }

    /// The sampled users, in sampling order.
    pub fn users(&self) -> &[usize] {
        &self.users
    }

    pub fn covers(&self, user: usize) -> bool {
        self.slot.get(user).is_some_and(|&s| s != ABSENT)
    }

    /// Whether `items` is a correct top-`items.len()` for a sampled `user`:
    /// position by position the reference item, or an item whose reference
    /// score ties with it, and no item twice.
    pub fn accepts(&self, model: &MfModel, user: usize, items: &[u32]) -> bool {
        let reference = &self.top[self.slot[user] as usize];
        if items.len() > reference.len() {
            return false;
        }
        let row = model.users().row(user);
        items.iter().enumerate().all(|(p, &item)| {
            let (want, want_score) = reference[p];
            if item == want {
                return true;
            }
            if item as usize >= model.num_items() || items[..p].contains(&item) {
                return false;
            }
            let got_score = dot(row, model.items().row(item as usize));
            (got_score - want_score).abs() <= TIE_TOLERANCE * want_score.abs()
        })
    }

    /// How many of the sampled users' lists in a whole-model answer (one
    /// list per user, `k` deep) the oracle rejects.
    pub fn mismatches<'a>(
        &self,
        model: &MfModel,
        k: usize,
        list_of: impl Fn(usize) -> &'a [u32],
    ) -> u64 {
        self.users
            .iter()
            .filter(|&&u| {
                let items = list_of(u);
                items.len() != k.min(model.num_items()) || !self.accepts(model, u, items)
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_maximus::prelude::{synth_model, SynthConfig};

    fn tiny() -> MfModel {
        synth_model(&SynthConfig {
            num_users: 40,
            num_items: 90,
            num_factors: 6,
            seed: 3,
            ..SynthConfig::default()
        })
    }

    #[test]
    fn accepts_its_own_answer_and_rejects_a_wrong_one() {
        let model = tiny();
        let oracle = Oracle::new(&model, 1);
        assert_eq!(oracle.users().len(), 40);
        let u = oracle.users()[0];
        assert!(oracle.covers(u));
        let good: Vec<u32> = oracle.top[0][..10].iter().map(|&(i, _)| i).collect();
        assert!(oracle.accepts(&model, u, &good));
        let mut swapped = good.clone();
        swapped.swap(0, 9);
        assert!(!oracle.accepts(&model, u, &swapped));
        let mut repeated = good.clone();
        repeated[1] = repeated[0];
        assert!(!oracle.accepts(&model, u, &repeated));
    }

    #[test]
    fn same_seed_same_sample() {
        let model = tiny();
        assert_eq!(
            Oracle::new(&model, 5).users(),
            Oracle::new(&model, 5).users()
        );
    }
}
