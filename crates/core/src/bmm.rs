//! Blocked matrix multiply brute force: the hardware-efficient baseline of
//! §II-B.
//!
//! Users are processed in batches. Each batch streams `U_batch · Iᵀ` score
//! blocks straight into per-user top-k heaps
//! ([`mips_topk::stream_topk_into_heaps`]): only one `MC × NC` block of
//! scores is ever resident, so selection happens on cache-warm data and the
//! `batch × n` score buffer of the paper's literal two-stage recipe (MKL
//! `dgemm` + `std::priority_queue`) never exists. Armed with a screen tier
//! ([`BmmSolver::with_screen`]) the scan runs in that tier's arithmetic and
//! only the survivors are rescored in f64 ([`mips_topk::screen`]).
//!
//! The item side of every scan is the model's cached packed panels
//! ([`MfModel::item_panels`] and the mirrors' twins): packed once per
//! model, so neither a batch nor a single-user lookup repacks the catalog.
//! The solver holds its tier as a value; [`mips_linalg::per_tier!`] turns
//! it into the mirror's element type where a scan starts, and everything
//! below that point is generic ([`MfModel::mirror`], [`mips_linalg::TierRows`]).
//!
//! Every path runs on the runtime-dispatched SIMD micro-kernels
//! ([`mips_linalg::simd`]); results are identical either way.

use crate::precision::Precision;
use crate::solver::{screened_name, MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::Arc;
use mips_data::{MfModel, MirrorElem};
use mips_linalg::{per_tier, CacheConfig, GemmScratch, Matrix, RowBlock, TierView};
use mips_topk::{
    screen_topk_into_heaps, stream_topk_into_heaps, ColumnIds, ScreenScratch, ScreenTier, TopKHeap,
    TopKList,
};
use std::ops::Range;
use std::time::Instant;

pub use mips_linalg::matrix::RowBlock as UserBlock;

/// Memory budget the batch geometry is sized against: the `batch × n` score
/// block a batch *would* produce is kept within the last-level cache, so the
/// panels the fused path actually holds (strictly smaller) stay cache-warm.
const SCORE_BUFFER_BYTES: usize = 8 << 20;

/// The brute-force blocked-matrix-multiply solver.
#[derive(Debug, Clone)]
pub struct BmmSolver {
    model: Arc<MfModel>,
    batch_rows: usize,
    build_seconds: f64,
    /// `Some` on a mixed-precision path: scans run over the tier's mirror
    /// with a conservative error envelope and survivors are rescored
    /// in f64, so results stay bit-identical to the pure-f64 path (see
    /// [`mips_topk::screen`]).
    screen: Option<ScreenTier>,
    /// `"Blocked MM"` plus the armed tier's suffix.
    name: String,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]). Clones share the cells —
    /// the counters describe the screen's selectivity, not one handle's —
    /// while [`BmmSolver::with_screen`] starts fresh ones.
    screen_tally: Arc<ScreenTallyCells>,
}

impl BmmSolver {
    /// Prepares the solver (no index; build cost is effectively zero).
    pub fn build(model: Arc<MfModel>) -> BmmSolver {
        let start = Instant::now();
        let batch_rows = Self::pick_batch_rows(model.num_items(), model.num_factors());
        BmmSolver {
            model,
            batch_rows,
            build_seconds: start.elapsed().as_secs_f64(),
            screen: None,
            name: screened_name("Blocked MM", None),
            screen_tally: Arc::new(ScreenTallyCells::default()),
        }
    }

    /// This solver with the mixed-precision path armed: the scan screens in
    /// `tier` and the survivors are rescored exactly. The model's mirror for
    /// the tier is built here (or fetched from the model-shared cache —
    /// every solver over the model reuses one rounding / quantization
    /// pass), so its cost is the variant's `build_seconds`, where OPTIMUS
    /// accounts it. The variant counts its screen work in cells of its own.
    /// A model that does not mirror usably in `tier` (f32 overflow,
    /// degenerate quantization) yields a solver on `self`'s path.
    pub fn with_screen(&self, tier: ScreenTier) -> BmmSolver {
        let start = Instant::now();
        let usable = per_tier!(tier, T => self.model.mirror::<T>().is_usable());
        let screen = if usable { Some(tier) } else { self.screen };
        BmmSolver {
            model: Arc::clone(&self.model),
            batch_rows: self.batch_rows,
            build_seconds: start.elapsed().as_secs_f64(),
            screen,
            name: screened_name("Blocked MM", screen),
            screen_tally: Arc::default(),
        }
    }

    /// Users per GEMM batch: bounded by the score-buffer budget, floored at
    /// the L2-occupancy row count OPTIMUS also uses (§IV-A).
    fn pick_batch_rows(num_items: usize, f: usize) -> usize {
        let by_memory = (SCORE_BUFFER_BYTES / 8 / num_items.max(1)).max(1);
        let l2_floor = CacheConfig::default().rows_to_fill_l2(f, 8);
        by_memory.max(l2_floor)
    }

    /// The configured batch size (exposed for tests and benches).
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// Serves `users` in batches of [`BmmSolver::batch_rows`]: `scan` fills
    /// the heaps of one batch — rows `start..end` of `users` — and owns the
    /// scratch it reuses across batches, so what remains per batch is only
    /// the per-user output itself (heaps/lists of size `k`).
    fn serve_batches(
        &self,
        users: RowBlock<'_, f64>,
        k: usize,
        mut scan: impl FnMut(Range<usize>, RowBlock<'_, f64>, &mut [TopKHeap]),
    ) -> Vec<TopKList> {
        let f = users.cols();
        let mut out = Vec::with_capacity(users.rows());
        for start in (0..users.rows()).step_by(self.batch_rows) {
            let end = (start + self.batch_rows).min(users.rows());
            let block = RowBlock::new(&users.as_slice()[start * f..end * f], end - start, f);
            let mut heaps: Vec<TopKHeap> = (0..block.rows()).map(|_| TopKHeap::new(k)).collect();
            scan(start..end, block, &mut heaps);
            out.extend(heaps.into_iter().map(TopKHeap::into_sorted));
        }
        out
    }

    /// The fused f64 scan over `users`.
    fn serve_f64(&self, users: RowBlock<'_, f64>, k: usize) -> Vec<TopKList> {
        let items = self.model.item_panels().into();
        let mut scratch = GemmScratch::new();
        self.serve_batches(users, k, |_, block, heaps| {
            stream_topk_into_heaps(block, items, heaps, ColumnIds::Offset(0), &mut scratch)
        })
    }

    /// The armed tier's screen over `users`, whose rows of the tier's user
    /// side are `screen_users`; the item side is the model's mirror with
    /// its packed panels (built on the first scan, then shared).
    fn serve_screened<T: MirrorElem>(
        &self,
        users: RowBlock<'_, f64>,
        screen_users: TierView<'_, T>,
        k: usize,
    ) -> Vec<TopKList> {
        let mirror = self.model.mirror::<T>();
        let items = TierView::packed(mirror.item_panels().into(), mirror.items().terms());
        let mut scratch = ScreenScratch::new();
        self.serve_batches(users, k, |batch, block, heaps| {
            let stats = screen_topk_into_heaps(
                block,
                self.model.items().into(),
                screen_users.rows(batch),
                items,
                heaps,
                ColumnIds::Offset(0),
                &mut scratch,
            );
            self.screen_tally.record(stats.screened, stats.rescored);
        })
    }
}

impl MipsSolver for BmmSolver {
    fn name(&self) -> &str {
        &self.name
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        true
    }

    fn screen_tiers(&self) -> &[ScreenTier] {
        &ScreenTier::ALL
    }

    fn screen_variant(&self, tier: ScreenTier) -> Option<Box<dyn MipsSolver>> {
        Some(Box::new(self.with_screen(tier)))
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        let rows = self.model.users().row_block(users.start, users.end);
        match self.screen {
            None => self.serve_f64(rows, k),
            Some(tier) => per_tier!(tier, T => {
                let mirrored = self.model.mirror::<T>().users().view();
                self.serve_screened(rows, mirrored.rows(users), k)
            }),
        }
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let in_range = distinct.iter().all(|&u| u < self.num_users());
            assert!(in_range, "user id out of bounds");
            let gathered: Matrix<f64> = self.model.users().gather_rows(distinct);
            match self.screen {
                None => self.serve_f64((&gathered).into(), k),
                Some(tier) => per_tier!(tier, T => {
                    let mirrored = self.model.mirror::<T>().users();
                    let picked = mirrored.gather(distinct.iter().copied());
                    self.serve_screened((&gathered).into(), picked.view(), k)
                }),
            }
        })
    }

    fn precision(&self) -> Precision {
        Precision::of_tier(self.screen)
    }

    fn take_screen_stats(&self) -> Option<ScreenTally> {
        self.screen.map(|_| self.screen_tally.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_topk::exact_topk;

    fn model(users: usize, items: usize, f: usize) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            ..SynthConfig::default()
        }))
    }

    #[test]
    fn matches_the_oracle_bit_for_bit() {
        let m = model(30, 50, 12);
        let solver = BmmSolver::build(Arc::clone(&m));
        let all = solver.query_all(5);
        for (u, got) in all.iter().enumerate() {
            let want = exact_topk(m.users().row(u), m.items(), 5);
            assert_eq!(got.items, want.items, "user {u}");
            let bits = |l: &TopKList| l.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "user {u}");
        }
    }

    #[test]
    fn batching_is_invisible_to_results() {
        let m = model(40, 20, 6);
        let mut solver = BmmSolver::build(Arc::clone(&m));
        let whole = solver.query_all(4);
        solver.batch_rows = 7; // force many partial batches
        let batched = solver.query_all(4);
        assert_eq!(whole, batched);
    }

    #[test]
    fn subset_and_range_agree() {
        let m = model(25, 15, 5);
        let solver = BmmSolver::build(m);
        let range = solver.query_range(3, 10..20);
        let subset = solver.query_subset(3, &(10..20).collect::<Vec<_>>());
        assert_eq!(range, subset);
    }

    #[test]
    fn k_edge_cases() {
        let m = model(5, 8, 4);
        let solver = BmmSolver::build(m);
        assert!(solver.query_all(0).iter().all(|l| l.is_empty()));
        let big = solver.query_all(100);
        assert!(big.iter().all(|l| l.len() == 8));
        let empty_range = solver.query_range(3, 2..2);
        assert!(empty_range.is_empty());
    }

    #[test]
    fn sibling_screen_variants_count_their_own_work() {
        // Clones share their tally cells, so a variant derived as a clone
        // of the plain build would report its siblings' screen work.
        let plain = BmmSolver::build(model(30, 50, 8));
        let [f32_variant, i8_variant] =
            ScreenTier::ALL.map(|tier| plain.screen_variant(tier).expect("BMM screens"));
        assert_eq!(f32_variant.precision(), Precision::F32Rescore);
        assert_eq!(i8_variant.precision(), Precision::I8Rescore);
        let served = f32_variant.query_all(3);
        assert_eq!(served, plain.query_all(3));
        // The idle sibling drains first: shared cells would hand it the
        // served variant's counts.
        assert_eq!(i8_variant.take_screen_stats(), Some(ScreenTally::default()));
        let tally = f32_variant.take_screen_stats().expect("a screening solver");
        assert!(tally.screened > 0 && tally.rescored > 0, "{tally:?}");
        assert_eq!(plain.take_screen_stats(), None);
    }

    #[test]
    fn batch_rows_respects_l2_floor() {
        let cache = CacheConfig::default();
        let floor = cache.rows_to_fill_l2(100, 8);
        assert!(BmmSolver::pick_batch_rows(10_000_000, 100) >= floor);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_range() {
        let m = model(5, 8, 4);
        let solver = BmmSolver::build(m);
        let _ = solver.query_range(1, 0..6);
    }
}
