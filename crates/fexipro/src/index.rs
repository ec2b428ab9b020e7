//! The FEXIPRO index: norm-ordered scan through a cascade of pruning
//! filters.

use crate::config::{FexiproConfig, ENERGY_TARGET, INT_BITS};
use crate::quant::{int_upper_bound, quantize_items, quantize_user_into, Code, QuantizedItems};
use crate::transform::{Reduction, SvdStage};
use mips_data::{is_tiny_row, MfModel};
use mips_linalg::kernels::norm2;
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

/// Caller-owned buffers for one user's query-side state. A call reuses
/// one scratch across its users, so once the buffers have grown a query
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FexiproScratch {
    /// The transformed user `Vᵀu`, all `f` coordinates (the user itself
    /// when the SVD failed): the S filter reads the first `h`, the codes
    /// and both suffix norms the rest.
    t: Vec<f64>,
    /// The first `h_r` coordinates of the unit transformed user, which
    /// only the R stage reads (empty under SI; zeros for a zero user).
    unit: Vec<f64>,
    /// The I-stage codes of `t`.
    q: Vec<Code>,
}

/// The scalars of one user's query-side state; its vectors are in the
/// [`FexiproScratch`].
struct UserBounds {
    /// `‖u‖`.
    norm: f64,
    /// `‖(Vᵀu)[h..]‖` — SVD-stage suffix factor.
    t_suffix_at_h: f64,
    /// `‖unit[h_r..]‖` — reduction-stage suffix factor (0 under SI).
    unit_suffix_at_hr: f64,
    /// The scale of the codes.
    q_scale: f64,
}

/// A built FEXIPRO index (presets: SI and SIR; see [`FexiproConfig`]).
///
/// Point-query oriented: users are served one at a time in descending-norm
/// item order. The index holds item-side state only. Each query derives
/// the user's transform, unit prefix, codes and envelope into the caller's
/// [`FexiproScratch`] (one mat-vec against the stored basis), so it
/// serves any vector, a model row or not. A query scores what the filters
/// pass with the four-lane `dot` over the caller's item matrix, read by
/// id, offers it to a [`Shortlist`] and finishes with the chain over that
/// matrix, so it returns the oracle's answer ([`mips_topk::exact_topk`]).
#[derive(Debug, Clone)]
pub struct FexiproIndex {
    /// Item ids in descending-norm order.
    ids: Vec<u32>,
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
    /// The S stage's basis, transposed (`f × f`: row `j` is the `j`-th
    /// basis vector, so `(Vᵀu)[j]` is one `dot`); `None` when the SVD
    /// failed, which leaves the identity transform and `h = ⌈f/2⌉`.
    basis: Option<Matrix<f64>>,
    quant: QuantizedItems,
    reduction: Option<Reduction>,
    /// `false` over a model with tiny rows ([`MfModel::has_tiny_rows`]),
    /// whose norms neither the filters nor the rescore envelope can trust:
    /// every item is scored with the chain.
    bounded: bool,
}

impl FexiproIndex {
    /// Builds the index over the model's items; the users are not read.
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

        // S stage: orthogonal energy-ordering transform of the items,
        // gathered in scan order.
        let svd = SvdStage::build(model.items(), ENERGY_TARGET).ok();
        let scan_order = model.items().gather_rows(&idx);
        let t_items = match &svd {
            Some(stage) => stage.transform(&scan_order),
            None => scan_order,
        };
        let h = svd.as_ref().map_or_else(|| f.div_ceil(2).max(1), |s| s.h);
        let t_suffix_at_h: Vec<f64> = t_items
            .iter_rows()
            .map(|row| tail_norm(row[h..].iter().copied()))
            .collect();

        // I stage: integer quantization of the transformed items.
        let quant = quantize_items(&t_items, INT_BITS);

        // R stage: norm-equalized early angular filter at a shorter
        // checkpoint.
        let h_r = (h / 2).max(1);
        let reduction = config
            .enable_reduction
            .then(|| Reduction::build(&t_items, h_r));

        FexiproIndex {
            ids,
            norms,
            t_items: Matrix::from_fn(t_items.rows(), h, |r, c| t_items.get(r, c)),
            t_suffix_at_h,
            h,
            h_r,
            basis: svd.map(|stage| stage.basis.v.transpose()),
            quant,
            reduction,
            bounded: !model.has_tiny_rows(),
        }
    }

    /// Number of items indexed.
    pub fn num_items(&self) -> usize {
        self.ids.len()
    }

    /// The SVD checkpoint `h` (for diagnostics and ablations).
    pub fn checkpoint(&self) -> usize {
        self.h
    }

    /// The bytes the index holds: the summed capacities of its buffers.
    /// They depend on the catalog alone — no user-side state, no `f64` copy
    /// of the items.
    pub fn resident_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        fn matrix(m: &Matrix<f64>) -> usize {
            std::mem::size_of_val(m.as_slice())
        }
        vec(&self.ids)
            + vec(&self.norms)
            + matrix(&self.t_items)
            + vec(&self.t_suffix_at_h)
            + self.basis.as_ref().map_or(0, matrix)
            + vec(&self.quant.q)
            + self
                .reduction
                .as_ref()
                .map_or(0, |red| matrix(&red.prefix) + vec(&red.suffix))
    }

    /// Derives `user`'s query-side state into `scratch`: the transform is
    /// one `dot` per basis vector, the rest reads it.
    fn prepare(&self, user: &[f64], scratch: &mut FexiproScratch) -> UserBounds {
        let kern = simd::active();
        let FexiproScratch { t, unit, q } = scratch;
        t.clear();
        match &self.basis {
            Some(vt) => t.extend(vt.iter_rows().map(|v| kern.dot(v, user))),
            None => t.extend_from_slice(user),
        }
        let norm = norm2(user);
        unit.clear();
        let unit_suffix_at_hr = match self.reduction {
            None => 0.0,
            Some(_) if norm > 0.0 => {
                unit.extend(t[..self.h_r].iter().map(|&v| v / norm));
                tail_norm(t[self.h_r..].iter().map(|&v| v / norm))
            }
            Some(_) => {
                unit.resize(self.h_r, 0.0);
                0.0
            }
        };
        UserBounds {
            norm,
            t_suffix_at_h: tail_norm(t[self.h..].iter().copied()),
            unit_suffix_at_hr,
            q_scale: quantize_user_into(t, INT_BITS, q),
        }
    }

    /// Top-k of `user` over `items`, the item matrix the index was built
    /// from. `scratch` and `list` are the caller's, reused across the users
    /// of one call; work counters accumulate into `stats`. A tiny `user`
    /// ([`is_tiny_row`]), whose norm bounds nothing, scores every item with
    /// the chain.
    pub fn query(
        &self,
        user: &[f64],
        k: usize,
        items: &Matrix<f64>,
        scratch: &mut FexiproScratch,
        list: &mut Shortlist,
        stats: &mut FexiproStats,
    ) -> TopKList {
        let n = self.ids.len();
        assert_eq!(
            (items.rows(), items.cols(), user.len()),
            (n, self.quant.f, self.quant.f),
            "FexiproIndex: not the indexed catalog, or a query of another width"
        );
        if !self.bounded || is_tiny_row(user) {
            stats.dots_computed += n as u64;
            return exact_topk(user, items, k);
        }
        let ctx = self.prepare(user, scratch);
        let (t, unit, q) = (&scratch.t[..self.h], &scratch.unit, &scratch.q);
        let (rel, abs) = reassoc_envelope_parts(user.len());
        let rel_u = rel * ctx.norm;
        let kern = simd::active();
        let mut heap = TopKHeap::new(k);
        list.begin(&heap);
        for r in 0..n {
            let mag = ctx.norm * self.norms[r];
            let slack = mag * BOUND_EPS;
            if list.is_full() {
                let threshold = list.threshold();
                // Length: items descend in norm, so one failure ends the
                // scan.
                if mag + slack < threshold {
                    stats.length_pruned += (n - r) as u64;
                    break;
                }
                // R: norm-equalized angular filter at the short checkpoint.
                if let Some(red) = &self.reduction {
                    let partial = kern.dot(unit, red.prefix.row(r));
                    let bound =
                        ctx.norm * red.max_norm * (partial + ctx.unit_suffix_at_hr * red.suffix[r]);
                    if bound + ctx.norm * red.max_norm * BOUND_EPS < threshold {
                        stats.reduction_pruned += 1;
                        continue;
                    }
                }
                // S: partial product in the energy-ordered basis plus
                // Cauchy–Schwarz on the suffix.
                let partial = kern.dot(t, self.t_items.row(r));
                let bound = partial + ctx.t_suffix_at_h * self.t_suffix_at_h[r];
                if bound + slack < threshold {
                    stats.svd_pruned += 1;
                    continue;
                }
                // I: integer upper bound on |u·i|.
                let bound = int_upper_bound(q, ctx.q_scale, &self.quant, r);
                if bound + slack < threshold {
                    stats.int_pruned += 1;
                    continue;
                }
            }
            let id = self.ids[r];
            let score = kern.dot(user, items.row(id as usize));
            list.offer(id, score, rel_u * self.norms[r] + abs);
            stats.dots_computed += 1;
        }
        list.finish(kern, user, items.into(), &mut heap);
        heap.into_sorted()
    }
}

/// `‖x‖` of a suffix `x`, accumulated from its last element as
/// [`mips_linalg::kernels::suffix_norms`] does, so it writes the same bits
/// without the vector of every suffix.
fn tail_norm(tail: impl DoubleEndedIterator<Item = f64>) -> f64 {
    tail.rev().fold(0.0, |acc, v| acc + v * v).sqrt()
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
        let mut scratch = FexiproScratch::default();
        let (mut list, mut stats) = (Shortlist::new(), FexiproStats::default());
        let user = m.users().row(u);
        [
            index.query(user, k, m.items(), &mut scratch, &mut list, &mut stats),
            exact_topk(user, m.items(), k),
        ]
    }

    /// The transformed catalog keeps the `h` columns the S filter reads;
    /// a query's scratch holds the `f`-wide transform (the S filter reads
    /// its first `h`), the `h_r`-wide unit prefix R reads (none under SI)
    /// and `f` codes.
    fn assert_checkpoint_widths(index: &FexiproIndex, m: &MfModel) {
        let f = m.num_factors();
        assert!(
            index.h < f,
            "a checkpoint that trims nothing proves nothing"
        );
        assert_eq!(index.t_items.cols(), index.h);
        assert_eq!(index.quant.f, f);
        if let Some(red) = &index.reduction {
            assert_eq!(red.prefix.cols(), index.h_r);
        }
        let mut scratch = FexiproScratch::default();
        let _ = index.prepare(m.users().row(0), &mut scratch);
        let h_r = index.reduction.as_ref().map_or(0, |_| index.h_r);
        assert_eq!(
            (scratch.t.len(), scratch.unit.len(), scratch.q.len()),
            (f, h_r, f)
        );
    }

    #[test]
    fn stores_only_the_checkpoint_prefixes() {
        let m = model(0.75, 1.0);
        for cfg in [FexiproConfig::si(), FexiproConfig::sir()] {
            let index = FexiproIndex::build(&m, &cfg);
            assert!(index.basis.is_some());
            assert_checkpoint_widths(&index, &m);
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
            assert!(index.basis.is_none());
            assert_eq!(index.checkpoint(), 3, "h = ⌈f/2⌉");
            assert_checkpoint_widths(&index, &m);
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
        let mut scratch = FexiproScratch::default();
        let (mut list, mut stats) = (Shortlist::new(), FexiproStats::default());
        for user in m.users().iter_rows() {
            let _ = index.query(user, 3, m.items(), &mut scratch, &mut list, &mut stats);
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
