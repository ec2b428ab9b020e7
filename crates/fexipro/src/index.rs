//! The FEXIPRO index: norm-ordered scan through a cascade of pruning
//! filters.

use crate::config::{FexiproConfig, ENERGY_TARGET, INT_BITS};
use crate::quant::{int_upper_bound, quantize_items, quantize_user, Code, QuantizedItems};
use crate::transform::{Reduction, SvdStage};
use mips_data::MfModel;
use mips_linalg::kernels::{dot, norm2, suffix_norms};
use mips_linalg::{reassoc_envelope_parts, simd, Matrix};
use mips_topk::{exact_topk, Shortlist, TopKHeap, TopKList};

/// Relative slack added to every pruning bound (scaled by the magnitude of
/// the quantities involved) so floating-point rounding and the orthogonal
/// transform's accumulation error can never prune a true top-k item.
const BOUND_EPS: f64 = 1e-9;

/// Work counters across queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct FexiproStats {
    /// Items cut off by the descending-norm length bound.
    pub length_pruned: u64,
    /// Items pruned by the reduction (R) angular filter.
    pub reduction_pruned: u64,
    /// Items pruned by the SVD (S) partial-product filter.
    pub svd_pruned: u64,
    /// Items pruned by the integer (I) bound.
    pub int_pruned: u64,
    /// Items verified with a full-precision inner product.
    pub dots_computed: u64,
}

/// Per-user precomputed query state. The transformed vectors keep only the
/// checkpoint prefixes their filters read.
#[derive(Debug, Clone)]
struct UserCtx {
    /// Original user vector.
    original: Vec<f64>,
    /// `‖u‖`.
    norm: f64,
    /// The first `h` coordinates of the transformed user `Vᵀu` (of
    /// `original` when the SVD failed).
    t: Vec<f64>,
    /// `‖(Vᵀu)[h..]‖` — SVD-stage suffix factor.
    t_suffix_at_h: f64,
    /// The first `h_r` coordinates of the unit transformed user (zeros for
    /// a zero user).
    unit: Vec<f64>,
    /// `‖unit[h_r..]‖` — reduction-stage suffix factor.
    unit_suffix_at_hr: f64,
    /// Quantized transformed user (all `f` coordinates) and its scale.
    q: Vec<Code>,
    q_scale: f64,
    /// The reassociation envelope of this user's `dot` scores, `(rel·‖u‖,
    /// abs)`: an item of norm `‖i‖` is offered with `env = rel·‖u‖·‖i‖ +
    /// abs`.
    envelope: (f64, f64),
}

/// A built FEXIPRO index (presets: SI and SIR; see [`FexiproConfig`]).
///
/// Point-query oriented: users are served one at a time in descending-norm
/// item order. User preprocessing (transform + quantization) happens at
/// build time, mirroring the original system's batch preprocessing step.
/// A query scores what the filters pass with the four-lane `dot`, offers it
/// to a [`Shortlist`] and finishes with the chain over the item matrix the
/// index was built from, so it returns the oracle's answer
/// ([`mips_topk::exact_topk`]).
#[derive(Debug, Clone)]
pub struct FexiproIndex {
    /// Item ids in descending-norm order.
    ids: Vec<u32>,
    /// Original item vectors, gathered in scan order (verification dots).
    originals: Matrix<f64>,
    /// Item norms, descending.
    norms: Vec<f64>,
    /// The first `h` columns of the transformed items, in scan order: all
    /// the S filter reads. The I codes, the R stage and the suffix norms
    /// are derived from the full transform at build time.
    t_items: Matrix<f64>,
    /// `‖tᵢ[h..]‖` per item.
    t_suffix_at_h: Vec<f64>,
    /// SVD checkpoint.
    h: usize,
    /// Reduction checkpoint (`≈ h/2`; the R filter runs before S).
    h_r: usize,
    /// The S stage's basis; `None` when the SVD failed, which leaves the
    /// identity transform and `h = ⌈f/2⌉`.
    svd: Option<SvdStage>,
    quant: QuantizedItems,
    reduction: Option<Reduction>,
    /// Precomputed per-user contexts for the model's users.
    users: Vec<UserCtx>,
    /// `false` over a model with tiny rows ([`MfModel::has_tiny_rows`]),
    /// whose norms neither the filters nor the rescore envelope can trust:
    /// every item is scored with the chain.
    bounded: bool,
}

impl FexiproIndex {
    /// Builds the index over the model's items and preprocesses its users.
    ///
    /// An SVD failure (e.g. a finite model whose item Gram matrix
    /// overflows) degrades to the identity transform; the bounds stay
    /// valid.
    pub fn build(model: &MfModel, config: &FexiproConfig) -> FexiproIndex {
        let f = model.num_factors();

        // Sort items by norm descending (ties toward smaller id).
        let mut order: Vec<(f64, u32)> = model
            .items()
            .iter_rows()
            .enumerate()
            .map(|(i, row)| (norm2(row), i as u32))
            .collect();
        // `total_cmp` instead of `partial_cmp(..).expect(..)`: models are
        // validated finite upstream, but a serving-path sort must never be
        // able to panic on a stray NaN.
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let ids: Vec<u32> = order.iter().map(|&(_, id)| id).collect();
        let norms: Vec<f64> = order.iter().map(|&(n, _)| n).collect();
        let idx: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let originals = model.items().gather_rows(&idx);

        // S stage: orthogonal energy-ordering transform.
        let svd = SvdStage::build(model.items(), ENERGY_TARGET).ok();
        let t_items = match &svd {
            Some(stage) => stage.transform(&originals),
            None => originals.clone(),
        };
        let h = svd.as_ref().map_or_else(|| f.div_ceil(2).max(1), |s| s.h);
        let t_suffix_at_h: Vec<f64> = t_items
            .iter_rows()
            .map(|row| suffix_norms(row)[h])
            .collect();

        // I stage: integer quantization of the transformed items.
        let quant = quantize_items(&t_items, INT_BITS);

        // R stage: norm-equalized early angular filter at a shorter
        // checkpoint.
        let h_r = (h / 2).max(1);
        let reduction = config
            .enable_reduction
            .then(|| Reduction::build(&t_items, h_r));

        let mut index = FexiproIndex {
            ids,
            originals,
            norms,
            t_items: Matrix::from_fn(t_items.rows(), h, |r, c| t_items.get(r, c)),
            t_suffix_at_h,
            h,
            h_r,
            svd,
            quant,
            reduction,
            users: Vec::new(),
            bounded: !model.has_tiny_rows(),
        };
        // Transform every user in one matrix multiply (the original system
        // preprocesses the full user set up front, §V-A); per-user contexts
        // then reuse the transformed rows.
        let t_users = match &index.svd {
            Some(stage) => stage.transform(model.users()),
            None => model.users().clone(),
        };
        index.users = (0..model.num_users())
            .map(|u| index.ctx_from_transformed(model.users().row(u), t_users.row(u)))
            .collect();
        index
    }

    /// Number of items indexed.
    pub fn num_items(&self) -> usize {
        self.ids.len()
    }

    /// The SVD checkpoint `h` (for diagnostics and ablations).
    pub fn checkpoint(&self) -> usize {
        self.h
    }

    /// Builds a query context from the original vector and its already
    /// transformed counterpart.
    fn ctx_from_transformed(&self, user: &[f64], t: &[f64]) -> UserCtx {
        let norm = norm2(user);
        let t_suffix_at_h = suffix_norms(t)[self.h];
        let unit: Vec<f64> = if norm > 0.0 {
            t.iter().map(|&v| v / norm).collect()
        } else {
            vec![0.0; t.len()]
        };
        let unit_suffix_at_hr = suffix_norms(&unit)[self.h_r];
        let (q, q_scale) = quantize_user(t, INT_BITS);
        let (rel, abs) = reassoc_envelope_parts(user.len());
        UserCtx {
            original: user.to_vec(),
            norm,
            t: t[..self.h].to_vec(),
            t_suffix_at_h,
            unit: unit[..self.h_r].to_vec(),
            unit_suffix_at_hr,
            q,
            q_scale,
            envelope: (rel * norm, abs),
        }
    }

    /// Top-k for user `u` of the model the index was built from; `items`
    /// is that model's item matrix. `list` is the caller's, reused across
    /// the users of one call; work counters accumulate into `stats`.
    pub fn query_user(
        &self,
        u: usize,
        k: usize,
        items: &Matrix<f64>,
        list: &mut Shortlist,
        stats: &mut FexiproStats,
    ) -> TopKList {
        let ctx = &self.users[u];
        let n = self.ids.len();
        assert_eq!(items.rows(), n, "FexiproIndex: not the indexed catalog");
        if !self.bounded {
            stats.dots_computed += n as u64;
            return exact_topk(&ctx.original, items, k);
        }
        let (rel_u, abs) = ctx.envelope;
        let mut heap = TopKHeap::new(k);
        list.begin(&heap);
        for r in 0..n {
            let mag = ctx.norm * self.norms[r];
            let slack = mag * BOUND_EPS;
            if list.is_full() {
                let t = list.threshold();
                // Length: items descend in norm, so one failure ends the
                // scan.
                if mag + slack < t {
                    stats.length_pruned += (n - r) as u64;
                    break;
                }
                // R: norm-equalized angular filter at the short checkpoint.
                if let Some(red) = &self.reduction {
                    let partial = dot(&ctx.unit, red.prefix.row(r));
                    let bound =
                        ctx.norm * red.max_norm * (partial + ctx.unit_suffix_at_hr * red.suffix[r]);
                    if bound + ctx.norm * red.max_norm * BOUND_EPS < t {
                        stats.reduction_pruned += 1;
                        continue;
                    }
                }
                // S: partial product in the energy-ordered basis plus
                // Cauchy–Schwarz on the suffix.
                let partial = dot(&ctx.t, self.t_items.row(r));
                let bound = partial + ctx.t_suffix_at_h * self.t_suffix_at_h[r];
                if bound + slack < t {
                    stats.svd_pruned += 1;
                    continue;
                }
                // I: integer upper bound on |u·i|.
                let bound = int_upper_bound(&ctx.q, ctx.q_scale, &self.quant, r);
                if bound + slack < t {
                    stats.int_pruned += 1;
                    continue;
                }
            }
            let score = dot(&ctx.original, self.originals.row(r));
            list.offer(self.ids[r], score, rel_u * self.norms[r] + abs);
            stats.dots_computed += 1;
        }
        list.finish(simd::active(), &ctx.original, items.into(), &mut heap);
        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_topk::exact_topk;

    fn model(decay: f64, skew: f64) -> MfModel {
        synth_model(&SynthConfig {
            num_users: 40,
            num_items: 300,
            num_factors: 16,
            spectral_decay: decay,
            item_norm_skew: skew,
            seed: 4242,
            ..SynthConfig::default()
        })
    }

    /// The answer for user `u` and the oracle's.
    fn served_and_oracle(index: &FexiproIndex, m: &MfModel, u: usize, k: usize) -> [TopKList; 2] {
        let (mut list, mut stats) = (Shortlist::new(), FexiproStats::default());
        [
            index.query_user(u, k, m.items(), &mut list, &mut stats),
            exact_topk(m.users().row(u), m.items(), k),
        ]
    }

    /// The transformed catalog keeps the `h` columns the S filter reads,
    /// each user context the `h` and `h_r` prefixes its filters read; the
    /// I codes keep every coordinate.
    fn assert_checkpoint_widths(index: &FexiproIndex) {
        let f = index.originals.cols();
        assert!(
            index.h < f,
            "a checkpoint that trims nothing proves nothing"
        );
        assert_eq!(index.t_items.cols(), index.h);
        assert_eq!(index.quant.f, f);
        if let Some(red) = &index.reduction {
            assert_eq!(red.prefix.cols(), index.h_r);
        }
        for ctx in &index.users {
            assert_eq!(
                (ctx.t.len(), ctx.unit.len(), ctx.q.len()),
                (index.h, index.h_r, f)
            );
        }
    }

    #[test]
    fn stores_only_the_checkpoint_prefixes() {
        let m = model(0.75, 1.0);
        for cfg in [FexiproConfig::si(), FexiproConfig::sir()] {
            let index = FexiproIndex::build(&m, &cfg);
            assert!(index.svd.is_some());
            assert_checkpoint_widths(&index);
        }
    }

    #[test]
    fn si_exact_against_brute_force() {
        let m = model(0.9, 0.8);
        let index = FexiproIndex::build(&m, &FexiproConfig::si());
        for k in [1usize, 5, 20] {
            for u in (0..m.num_users()).step_by(5) {
                let [got, want] = served_and_oracle(&index, &m, u, k);
                assert_eq!(got, want, "SI k={k} u={u}");
            }
        }
    }

    #[test]
    fn sir_exact_against_brute_force() {
        let m = model(0.85, 1.0);
        let index = FexiproIndex::build(&m, &FexiproConfig::sir());
        for k in [1usize, 7] {
            for u in (0..m.num_users()).step_by(7) {
                let [got, want] = served_and_oracle(&index, &m, u, k);
                assert_eq!(got, want, "SIR k={k} u={u}");
            }
        }
    }

    #[test]
    fn failed_svd_falls_back_to_the_identity_and_stays_exact() {
        // Item factors near 1e160 make the item Gram matrix overflow while
        // every score (≈ 1e-160 · 1e160) stays finite: a valid model whose
        // SVD fails, the one route to `svd == None`.
        let mut state = 0x5EEDu64;
        let mut next = move |magnitude: f64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) * magnitude
        };
        let users = Matrix::from_fn(60, 6, |_, _| next(1e-160));
        let items = Matrix::from_fn(12, 6, |_, _| next(1e160));
        let m = MfModel::new("gram-overflow", users, items).expect("scores are finite");
        assert!(matches!(
            mips_linalg::svd::SvdBasis::from_rows(m.items()),
            Err(mips_linalg::LinalgError::NonFinite { .. })
        ));
        for cfg in [FexiproConfig::si(), FexiproConfig::sir()] {
            let index = FexiproIndex::build(&m, &cfg);
            assert!(index.svd.is_none());
            assert_eq!(index.checkpoint(), 3, "h = ⌈f/2⌉");
            assert_checkpoint_widths(&index);
            for u in 0..m.num_users() {
                let [got, want] = served_and_oracle(&index, &m, u, 5);
                assert_eq!(got, want, "{cfg:?} u={u}");
            }
        }
    }

    #[test]
    fn pruning_kicks_in_on_decayed_spectra() {
        let m = model(0.75, 1.0);
        let index = FexiproIndex::build(&m, &FexiproConfig::si());
        let (mut list, mut stats) = (Shortlist::new(), FexiproStats::default());
        for u in 0..m.num_users() {
            let _ = index.query_user(u, 3, m.items(), &mut list, &mut stats);
        }
        let total = (m.num_users() * m.num_items()) as u64;
        assert!(
            stats.dots_computed < total / 2,
            "verified {} of {} pairs — filters are not pruning",
            stats.dots_computed,
            total
        );
        assert!(stats.svd_pruned + stats.int_pruned + stats.length_pruned > 0);
    }
}
