//! MAXIMUS: the paper's hardware-friendly exact MIPS index (§III).
//!
//! Construction (Algorithm 1, `ConstructIndex`):
//! 1. cluster users with a few iterations of k-means (§III-A; defaults
//!    `|C| = 8`, `i = 3`),
//! 2. compute each cluster's worst user–centroid angle `θ_b`,
//! 3. for every cluster, sort all items descending by the Koenigstein bound
//!    `CBound(c, i, θ_b)` ([`bound`]). Nothing is packed: each part of the
//!    list (its first 4096 positions, then 1024 each, a tail under 512
//!    joining the part before it) is packed for the
//!    GEMM driver the first time a pass reaches it, so the tail no user
//!    reaches costs neither bytes nor packing time.
//!
//! Querying (Algorithm 1, `QueryIndex`, with the §III-D blocking done as
//! block passes): the users of a cluster walk its list together. Before
//! each pass, every user whose bound at the pass's first position (scaled
//! by `‖u‖`) sits strictly below its heap's threshold stops: bounds
//! descend, so nothing further down the list can reach its answer. The
//! same check gives each user still walking its current *stop position*,
//! the first position its bound misses, and the pass ends, at the latest,
//! at the furthest of them. Each pass is one fused multiply
//! ([`mips_topk::stream_topk_into_heaps`]) per list part it spans, over a
//! panel-aligned slice of that part, for the users still walking, into
//! their heaps.
//!
//! Where passes end is chosen at query time, from counts the walk already
//! has — no clock:
//! * the first pass at `(cluster, k)` runs to the median of the
//!   stop positions that earlier walks at that `k` reached in that cluster
//!   (the planner's sampled users supply the first of them), or, before
//!   any walk at that `k` has run, `max(128, 32·k)` positions;
//! * every later pass runs to the median of the walking users' current
//!   stop positions, and is at least 128 positions long.
//!
//! A pass may span several parts: it multiplies them part by part with the
//! same gathered user rows. Over flat norms no user stops, every recorded
//! stop is the list's end, and after one walk at `k` the first pass is the
//! whole list: brute force over the bound-sorted catalog.
//!
//! The paper fixes a `B = 4096` prefix for every user and walks past it
//! one item at a time; the passes trade a few items scored past a user's
//! own stop point for a multiply instead of per-item `dot`s and bound
//! checks. That stays exact: every pass pushes the GEMM chain's scores,
//! the oracle's ([`mips_topk::exact_topk`]), a heap keeps the same set
//! whatever order scores arrive in, and the stored bounds' slack covers the
//! chain's rounding at every stop, wherever the passes end. A screen
//! variant ([`MaximusIndex::with_screen`]) runs every pass through its
//! tier's block screen instead ([`mips_topk::screen_parts_topk_into_heaps`]),
//! whose survivors are rescored with the same chain once per pass.
//!
//! A cluster's users walk in even batches of at most `max(8 MiB / 8 /
//! |I|, the f64 user rows that fill L2)` users, each batch with its own
//! heaps and passes, so what a walk holds at once — heaps, gathered rows,
//! score blocks — is bounded by the batch, not by the cluster.
//!
//! **Brute force is the one-cluster walk** ([`MaximusIndex::brute_force`],
//! the `bmm` backend, §II-B): the list is the catalog in bound order, the
//! stop Ram & Gray's Cauchy–Schwarz test, and over flat norms, where no
//! user stops, every walk after the first is one fused multiply per batch.

pub mod bound;

use crate::maximus::bound::stored_bound;
use crate::precision::Precision;
use crate::solver::{screened_name, MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, OnceLock, PoisonError};
use mips_clustering::{kmeans, max_angles_per_cluster, KMeansConfig};
use mips_data::{is_tiny_row, MfModel, MirrorElem};
use mips_linalg::kernels::{angle, dot, norm2};
use mips_linalg::tier::MAX_TERMS;
use mips_linalg::{
    per_tier, reassoc_envelope_parts, simd, CacheConfig, GemmElem, GemmScratch, Matrix,
    PackedPanels, RowBlock, TierRows, TierView,
};
use mips_topk::{
    exact_topk, screen_parts_topk_into_heaps, stream_topk_into_heaps, ColumnIds, ScreenScratch,
    ScreenTier, Shortlist, TopKHeap, TopKList,
};
use std::cmp::Ordering::Less;
use std::mem::size_of;
use std::ops::Range;
use std::time::Instant;

/// The shortest pass past the first, in list positions, and the shortest
/// first pass before any stop is recorded.
const MIN_PASS: usize = 128;

/// The score block a batch of users *would* produce over the whole list
/// is kept within this budget ([`batch_rows`]), so the panels the fused
/// multiply actually holds (strictly smaller) stay cache-warm.
const SCORE_BUFFER_BYTES: usize = 8 << 20;

/// Users per walk batch over `num_items` items of `f` factors: bounded by
/// the score-buffer budget, floored at the L2-occupancy row count OPTIMUS
/// also samples with (§IV-A).
fn batch_rows(num_items: usize, f: usize) -> usize {
    let by_memory = (SCORE_BUFFER_BYTES / 8 / num_items.max(1)).max(1);
    by_memory.max(CacheConfig::default().rows_to_fill_l2(f, 8))
}

/// List positions in a list's first part. A fresh heap is primed with a
/// floor drawn from the first block it is offered ([`mips_topk`]'s
/// admission floor), and a pass multiplies part by part, so this is as
/// wide as that floor ever looks: the paper's `B = 4096`. On the dense
/// benchmark shape's int8 walk at k = 50, whose first pass runs to the end
/// of the list, a 1024-position first part ran 1.15× slower (a 2-vCPU
/// AVX2 guest).
const FIRST_PART: usize = 4096;

/// List positions in each later part but the last. A part is packed whole
/// on first touch, so its length bounds what a pass packs beyond the
/// positions its users need.
const PART: usize = 1024;

/// Every part start and every pass end short of the list's end is a
/// multiple of this: the widest tier's `NR`, so each pass multiplies
/// slices of packed parts that start on a panel boundary in every tier.
const ALIGN: usize = <i8 as GemmElem>::NR;
const _: () = assert!(
    ALIGN % <f64 as GemmElem>::NR == 0
        && MIN_PASS % ALIGN == 0
        && FIRST_PART % ALIGN == 0
        && PART % ALIGN == 0
);

/// Where passes end: the first pass at `(cluster, k)` runs to this
/// quantile of the stop positions earlier walks at `k` reached in the
/// cluster, every later pass to this quantile of the walking users' current
/// stop positions. On the clustered and dense-skew benchmark shapes (the
/// same guest, best of 7 interleaved runs), 0.25 and 0.5 ran within noise
/// of each other, while 0.75 scored up to 10 % more items and ran up to
/// 1.2× slower: half the users walking on for another pass costs less than
/// every user scoring positions only a few of them need.
const STOP_QUANTILE: f64 = 0.5;

/// Before any walk at `k` has run in a cluster, its first pass is
/// `max(MIN_PASS, UNRECORDED_PASS_PER_K · k)` positions long.
const UNRECORDED_PASS_PER_K: usize = 32;

/// Stop positions a cluster keeps per `k`: the latest ones.
const RECORDED_STOPS: usize = 256;

/// Values of `k` a cluster keeps stop positions for; a new `k` past these
/// evicts the one recorded first.
const RECORDED_KS: usize = 16;

/// MAXIMUS parameters (§III-D: "B = 4096, |C| = 8, and i = 3 is effective
/// for many inputs").
#[derive(Debug, Clone, Copy)]
pub struct MaximusConfig {
    /// Number of user clusters `|C|`.
    pub num_clusters: usize,
    /// k-means iterations `i`.
    pub kmeans_iters: usize,
    /// Item blocking factor `B`: an override of the first pass's length.
    /// `0`, the default, sizes every pass at query time (see the module
    /// docs). A positive value forces every walk's first pass to the
    /// list's first `B` positions, rounded up to a multiple of 16 (the
    /// widest tier's panel width) and capped at the list; the passes after
    /// it are sized at query time as before. The paper's §III-D prefix is
    /// `B = 4096`; the Fig. 8 lesion forces the shortest first pass,
    /// `B = 16`.
    pub block_size: usize,
    /// Seed for clustering.
    pub seed: u64,
}

impl Default for MaximusConfig {
    fn default() -> Self {
        MaximusConfig {
            num_clusters: 8,
            kmeans_iters: 3,
            block_size: 0,
            seed: 0x0A_11_05,
        }
    }
}

impl MaximusConfig {
    /// Validates parameter ranges — the one statement of this config's
    /// invariants: [`MaximusIndex::build`] `expect`s it, the engine's
    /// factory maps it to a typed error.
    pub fn validate(&self) -> Result<(), String> {
        for (value, name) in [
            (self.num_clusters, "num_clusters"),
            (self.kmeans_iters, "kmeans_iters"),
        ] {
            if value == 0 {
                return Err(format!("{name} must be > 0"));
            }
        }
        Ok(())
    }
}

/// Build-stage wall-clock breakdown (Fig. 8's first two bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaximusBuildStats {
    /// k-means time.
    pub clustering_seconds: f64,
    /// Bound computation + sorting time, plus the list parts the handle's
    /// passes have packed on first touch so far.
    pub construction_seconds: f64,
}

/// Cumulative query work counters (w̄ of Eqn. 4 is `items_blocked` per
/// served user).
#[derive(Debug, Default)]
pub struct MaximusQueryStats {
    /// Users served.
    pub users_served: AtomicU64,
    /// Items scored, summed over users: every position of each pass a
    /// user was still walking at (screened, on the int8 variant, with only
    /// the survivors rescored).
    pub items_blocked: AtomicU64,
    /// Items skipped by early termination: the list positions past each
    /// user's stop.
    pub items_pruned: AtomicU64,
}

impl MaximusQueryStats {
    /// Average items scored per user (the paper's w̄).
    pub fn avg_items_visited(&self) -> f64 {
        let users = self.users_served.load(Ordering::Relaxed);
        if users == 0 {
            return 0.0;
        }
        self.items_blocked.load(Ordering::Relaxed) as f64 / users as f64
    }
}

/// One cluster's sorted item list.
struct ClusterIndex {
    /// Worst member angle θ_b (inflated by the construction slack).
    theta_b: f64,
    /// Item ids sorted descending by stored bound.
    list_ids: Vec<u32>,
    /// Inflated `CBound` per list position, descending.
    bounds: Vec<f64>,
    /// Where the list is cut into parts ([`list_cuts`]): part `p` is list
    /// positions `cuts[p]..cuts[p + 1]`.
    cuts: Vec<usize>,
    /// The list packed for the GEMM driver, part by part, row `r` of a
    /// part being its `r`-th list position (the `O(|C||I|f)` storage of
    /// §III-D, held only as far down the list as some pass reached).
    panels: ListParts<PackedPanels<f64>>,
    /// The list in each screen tier's parts, packed as that tier's passes
    /// reach them: one copy per tier, shared by every handle.
    f32_parts: ListParts<ScreenPart<f32>>,
    i8_parts: ListParts<ScreenPart<i8>>,
    /// Members (user ids) of this cluster.
    members: Vec<u32>,
    /// The stop positions recent walks reached, per `k`.
    stops: Mutex<Vec<StopRecord>>,
}

impl ClusterIndex {
    /// Part `p` of `parts`, a list held in this cluster's parts: made by
    /// `pack` from the part's list ids the first time any pass reaches it,
    /// the nanoseconds that takes added to `packing`.
    fn part<'a, P>(
        &self,
        parts: &'a ListParts<P>,
        p: usize,
        packing: &AtomicU64,
        pack: impl FnOnce(&[u32]) -> P,
    ) -> &'a P {
        parts.parts[p].get_or_init(|| {
            let started = Instant::now();
            let packed = pack(&self.list_ids[self.cuts[p]..self.cuts[p + 1]]);
            packing.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            packed
        })
    }

    /// The parts list positions `lo..hi` span: for each, its index `p`, the
    /// rows of part `p` in the span, and their list ids.
    fn spanned(
        &self,
        Range { start: lo, end: hi }: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>, &[u32])> + '_ {
        let first = self.cuts.partition_point(|&cut| cut <= lo) - 1;
        let parts = self.cuts[first..].windows(2).enumerate();
        let parts = parts.take_while(move |(_, part)| part[0] < hi);
        parts.map(move |(i, part)| {
            let (start, span) = (part[0], lo.max(part[0])..hi.min(part[1]));
            let ids = &self.list_ids[span.clone()];
            (first + i, span.start - start..span.end - start, ids)
        })
    }

    /// The length of the first pass at `k`: a quantile of the stops
    /// recorded at `k`, or, with none yet, a short pass that grows with `k`.
    fn first_pass(&self, k: usize) -> usize {
        let stops = self.stops.lock().unwrap_or_else(PoisonError::into_inner);
        match stops.iter().find(|record| record.k == k) {
            Some(record) => record.first_pass,
            None => MIN_PASS.max(UNRECORDED_PASS_PER_K.saturating_mul(k)),
        }
    }

    /// Records where the users of a walk at `k` stopped (`walked` is
    /// reordered).
    fn record_stops(&self, k: usize, walked: &mut [usize]) {
        let mut stops = self.stops.lock().unwrap_or_else(PoisonError::into_inner);
        let at = match stops.iter().position(|record| record.k == k) {
            Some(at) => at,
            None => {
                if stops.len() == RECORDED_KS {
                    stops.remove(0);
                }
                stops.push(StopRecord::new(k));
                stops.len() - 1
            }
        };
        stops[at].push(walked);
    }

    /// Heap bytes of the list's per-position vectors, its members and its
    /// stop records.
    fn list_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        let stops = self.stops.lock().unwrap_or_else(PoisonError::into_inner);
        let records = stops.iter().map(|record| vec(&record.stops));
        vec(&self.list_ids)
            + vec(&self.bounds)
            + vec(&self.cuts)
            + vec(&self.members)
            + vec(&stops)
            + records.sum::<usize>()
    }
}

/// The latest stop positions walks at one `k` reached in a cluster, and
/// the first pass they give.
struct StopRecord {
    k: usize,
    /// Up to [`RECORDED_STOPS`] stop positions, a ring once full.
    stops: Vec<u32>,
    /// Where the ring's next stop goes.
    next: usize,
    /// Stops pushed since `first_pass` was last computed.
    fresh: usize,
    /// [`STOP_QUANTILE`] of `stops`, rounded up to a multiple of
    /// [`ALIGN`] (at least one panel).
    first_pass: usize,
}

impl StopRecord {
    fn new(k: usize) -> StopRecord {
        StopRecord {
            k,
            stops: Vec::with_capacity(RECORDED_STOPS),
            next: 0,
            fresh: 0,
            first_pass: 0,
        }
    }

    /// Adds a walk's stop positions to the ring: each of them, or, from a
    /// walk of more users than the ring holds, a ringful evenly spaced in
    /// stop order — the walk's distribution, not the users it happened to
    /// list last. Once an eighth of the ring is new since the last time
    /// (and on the first walk), recomputes the first pass.
    fn push(&mut self, walked: &mut [usize]) {
        let (n, take) = (walked.len(), walked.len().min(RECORDED_STOPS));
        if n > take {
            walked.sort_unstable();
        }
        for i in 0..take {
            let stop = u32::try_from(walked[(2 * i + 1) * n / (2 * take)]).unwrap_or(u32::MAX);
            if self.stops.len() < RECORDED_STOPS {
                self.stops.push(stop);
            } else {
                self.stops[self.next] = stop;
            }
            self.next = (self.next + 1) % RECORDED_STOPS;
        }
        self.fresh += take;
        if self.fresh * 8 >= self.stops.len() || self.first_pass == 0 {
            let mut stops: Vec<usize> = self.stops.iter().map(|&s| s as usize).collect();
            self.first_pass = quantile(&mut stops, STOP_QUANTILE).max(1);
            self.first_pass = self.first_pass.next_multiple_of(ALIGN);
            self.fresh = 0;
        }
    }
}

/// The `q` quantile of `values` by nearest rank: the smallest value at
/// least a share `q` of them do not exceed (`values` is reordered). 0 for
/// none.
fn quantile(values: &mut [usize], q: f64) -> usize {
    if values.is_empty() {
        return 0;
    }
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}

/// `group` cut into the fewest batches of at most `max` entries, as even
/// as they go: the first ones one longer than the last ones.
fn even_batches<T>(group: &[T], max: usize) -> std::slice::Chunks<'_, T> {
    let batches = group.len().div_ceil(max).max(1);
    group.chunks(group.len().div_ceil(batches).max(1))
}

/// Where a list of `n` positions is cut into parts: `[0, 4096, 5120, …,
/// n]`, a [`FIRST_PART`] and then [`PART`]s, the last one ending at `n`. A
/// tail shorter than half a part joins the part before it: each part is a
/// block of its own for the GEMM driver, whose per-block work a sliver
/// pays in full (on the dense benchmark shape, 5 200 items, a separate
/// 80-position part made the int8 walk at k = 1 2–4 % slower).
fn list_cuts(n: usize) -> Vec<usize> {
    let starts = std::iter::once(0).chain((FIRST_PART..).step_by(PART));
    let mut cuts: Vec<usize> = starts
        .take_while(|&cut| cut < n && (cut == 0 || cut + PART / 2 < n))
        .collect();
    cuts.push(n);
    cuts
}

/// A cluster's list in one tier, one slot per part
/// ([`ClusterIndex::cuts`]), each filled the first time a pass reaches it
/// ([`ClusterIndex::part`]). A slot fills once, however many threads reach
/// it together.
struct ListParts<P> {
    parts: Vec<OnceLock<P>>,
}

impl<P> ListParts<P> {
    /// `parts` empty slots.
    fn new(parts: usize) -> ListParts<P> {
        ListParts {
            parts: (0..parts).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Heap bytes of the parts filled so far, `bytes` each.
    fn resident_bytes(&self, bytes: impl Fn(&P) -> usize) -> usize {
        self.parts.iter().filter_map(OnceLock::get).map(bytes).sum()
    }
}

/// One part of a cluster's list in a screen tier: the block screen's item
/// side.
struct ScreenPart<T: MirrorElem> {
    /// The part's rows in tier storage, gathered in list order from the
    /// model's mirror, packed.
    panels: PackedPanels<T>,
    /// The part's envelope terms, one column per term.
    terms: [Vec<f64>; MAX_TERMS],
}

impl<T: MirrorElem> ScreenPart<T> {
    /// Rows `ids` of the mirror's item side, in that order (a term column
    /// the tier does not store stays empty, as in the mirror).
    fn gather(items: &TierRows<T>, ids: &[u32]) -> ScreenPart<T> {
        let rows = items.row_block(0, items.rows());
        let gather = |column: &[f64]| ids.iter().map(|&id| column[id as usize]).collect();
        ScreenPart {
            panels: PackedPanels::gather(rows, ids),
            terms: (items.terms()).map(|c| if c.is_empty() { Vec::new() } else { gather(c) }),
        }
    }

    /// The part as the screen's item side.
    fn view(&self) -> TierView<'_, T> {
        let terms = std::array::from_fn(|t| self.terms[t].as_slice());
        TierView::packed((&self.panels).into(), terms)
    }

    /// Heap bytes of the packed rows and the terms.
    fn resident_bytes(&self) -> usize {
        let terms = self.terms.iter().map(|t| t.capacity() * size_of::<f64>());
        terms.sum::<usize>() + self.panels.resident_bytes()
    }
}

/// A screen tier a cluster keeps list parts in: names its slot.
trait ListTier: MirrorElem {
    fn parts(cluster: &ClusterIndex) -> &ListParts<ScreenPart<Self>>;
}

impl ListTier for f32 {
    fn parts(cluster: &ClusterIndex) -> &ListParts<ScreenPart<f32>> {
        &cluster.f32_parts
    }
}

impl ListTier for i8 {
    fn parts(cluster: &ClusterIndex) -> &ListParts<ScreenPart<i8>> {
        &cluster.i8_parts
    }
}

/// Everything construction derives from the model — the clustering and
/// every cluster's bound-sorted list with its parts in each tier. Shared,
/// behind an [`Arc`], by an index and its screen variants
/// ([`MaximusIndex::with_screen`]); nothing in it changes once built but
/// the parts packed on first touch and the recorded stop positions.
struct MaximusCore {
    model: Arc<MfModel>,
    assignments: Vec<u32>,
    clusters: Vec<ClusterIndex>,
    centroids: Matrix<f64>,
    /// A forced first pass (list positions, a multiple of [`ALIGN`] or the
    /// whole list): `block_size` rounded up, or the whole list over a model
    /// with tiny rows. `None`: sized at query time.
    first_pass: Option<usize>,
    /// The most users one walk batch holds ([`batch_rows`]).
    batch_rows: usize,
    /// The backend's display name before a tier suffix.
    name: &'static str,
    /// The screen tiers the backend races ([`MipsSolver::screen_tiers`]).
    tiers: &'static [ScreenTier],
    build_stats: MaximusBuildStats,
}

/// The built MAXIMUS index.
pub struct MaximusIndex {
    core: Arc<MaximusCore>,
    /// The armed screen tier, set only over a model that mirrors usably in
    /// it; `None` on the f64 path.
    screen: Option<ScreenTier>,
    /// Seconds spent building what this handle added: the whole
    /// construction for [`MaximusIndex::build`]; for a
    /// [`MaximusIndex::with_screen`] variant, whose parts are all packed on
    /// first touch, the tier's mirror if it built it.
    build_seconds: f64,
    /// Nanoseconds this handle's passes spent packing list parts on first
    /// touch: construction, reported in [`MipsSolver::build_seconds`] and
    /// [`MaximusIndex::build_stats`].
    packing: AtomicU64,
    query_stats: MaximusQueryStats,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]); separate from
    /// [`MaximusQueryStats`], whose counters benches read cumulatively.
    screen_tally: ScreenTallyCells,
    /// The backend's name plus the armed tier's suffix.
    name: String,
}

impl MaximusIndex {
    /// Builds the index: cluster users, compute θ_b, sort item lists. It
    /// races only its int8 screen: an f32 screen won no clustered plan by
    /// more than sampling noise, yet cost cold time in every race.
    ///
    /// # Panics
    /// Panics on a configuration [`MaximusConfig::validate`] rejects.
    pub fn build(model: Arc<MfModel>, config: &MaximusConfig) -> MaximusIndex {
        MaximusIndex::construct(model, config, "Maximus", &[ScreenTier::I8])
    }

    /// Brute force (§II-B) as the one-cluster index: one list, the catalog
    /// in bound order, walked by every user in cache-sized batches (see the
    /// module docs). Named `Blocked MM`, it races every screen tier.
    pub fn brute_force(model: Arc<MfModel>) -> MaximusIndex {
        let config = MaximusConfig {
            num_clusters: 1,
            ..MaximusConfig::default()
        };
        MaximusIndex::construct(model, &config, "Blocked MM", &ScreenTier::ALL)
    }

    fn construct(
        model: Arc<MfModel>,
        config: &MaximusConfig,
        name: &'static str,
        tiers: &'static [ScreenTier],
    ) -> MaximusIndex {
        config.validate().expect("a valid MaximusConfig");

        let t0 = Instant::now();
        let kconfig = KMeansConfig {
            k: config.num_clusters,
            max_iters: config.kmeans_iters,
            seed: config.seed,
        };
        let clustering = kmeans(model.users(), &kconfig);
        let thetas = max_angles_per_cluster(model.users(), &clustering);
        let clustering_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let item_norms: Vec<f64> = model.items().row_norms();
        let clusters: Vec<ClusterIndex> = (0..clustering.k())
            .map(|c| {
                let centroid = clustering.centroids.row(c);
                // A zero centroid leaves every member angle undefined: fall
                // back to the fully conservative θ_b = π (bound = ‖i‖).
                let theta_b = if norm2(centroid) == 0.0 {
                    std::f64::consts::PI
                } else {
                    thetas[c]
                };
                build_cluster_list(
                    model.items(),
                    &item_norms,
                    centroid,
                    theta_b,
                    clustering.members[c].clone(),
                )
            })
            .collect();
        let construction_seconds = t1.elapsed().as_secs_f64();

        // Over tiny rows the norm bounds can underflow: score the whole
        // list in the first pass instead (MfModel::has_tiny_rows).
        let n = model.num_items();
        let first_pass = if model.has_tiny_rows() {
            Some(n)
        } else {
            let forced = config.block_size.min(n).next_multiple_of(ALIGN).min(n);
            (config.block_size > 0).then_some(forced)
        };
        let core = MaximusCore {
            assignments: clustering.assignments,
            centroids: clustering.centroids,
            clusters,
            first_pass,
            batch_rows: batch_rows(n, model.num_factors()),
            name,
            tiers,
            build_stats: MaximusBuildStats {
                clustering_seconds,
                construction_seconds,
            },
            model,
        };
        MaximusIndex::over(
            Arc::new(core),
            None,
            clustering_seconds + construction_seconds,
        )
    }

    /// A handle on `core` screening in `screen` (`None`: unscreened).
    fn over(
        core: Arc<MaximusCore>,
        screen: Option<ScreenTier>,
        build_seconds: f64,
    ) -> MaximusIndex {
        MaximusIndex {
            name: screened_name(core.name, screen),
            core,
            screen,
            build_seconds,
            packing: AtomicU64::new(0),
            query_stats: MaximusQueryStats::default(),
            screen_tally: ScreenTallyCells::default(),
        }
    }

    /// This index with `tier`'s screen armed on every block pass of the
    /// query, **sharing everything [`MaximusIndex::build`] constructed**,
    /// each cluster's list in the tier's parts included: a part's rows,
    /// packed, and its envelope terms, both made the first time a pass in
    /// the tier reaches the part.
    ///
    /// Every pass runs the block screen
    /// ([`mips_topk::screen_parts_topk_into_heaps`]): a multiply in the
    /// tier's arithmetic whose envelope-widened scores keep every item that
    /// could reach the heap, each survivor rescored in f64 from the model's
    /// rows by id with the GEMM's reduction order — so after every pass the
    /// heaps hold the f64 multiply's exact entries, every user stops where
    /// it stops on the f64 index, and results are bit-identical to it. The
    /// §III-E new-vector path stays f64.
    ///
    /// Each part's rows and terms are **gathered** in list order from the
    /// model's own mirror in the tier ([`MfModel::mirror`] — built once per
    /// model), so no row is rounded or quantized once per cluster, and the
    /// parts are the only packed copy of the list in the tier. The rescore
    /// reads the model's f64 rows, so the variant holds no f64 copy of its
    /// own. Its `build_seconds` is the mirror, if this call built it, and
    /// the parts it packed on first touch; its work counters start at zero.
    ///
    /// A model that does not mirror usably in `tier` (f32 overflow,
    /// subnormal rows, factor counts past the i32-overflow cap) yields a
    /// handle on `self`'s path.
    pub fn with_screen(&self, tier: ScreenTier) -> MaximusIndex {
        let t = Instant::now();
        let usable = per_tier!(tier, T => self.core.model.mirror::<T>().is_usable());
        let screen = if usable { Some(tier) } else { self.screen };
        MaximusIndex::over(Arc::clone(&self.core), screen, t.elapsed().as_secs_f64())
    }

    /// The armed screen tier, if any.
    pub fn screen(&self) -> Option<ScreenTier> {
        self.screen
    }

    /// Build-stage breakdown (Fig. 8) of the shared construction, plus the
    /// list parts this handle's passes have packed on first touch so far.
    pub fn build_stats(&self) -> MaximusBuildStats {
        let mut stats = self.core.build_stats;
        stats.construction_seconds += self.packing_seconds();
        stats
    }

    /// Seconds this handle's passes have spent packing list parts.
    fn packing_seconds(&self) -> f64 {
        self.packing.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The bytes the index holds for its own tier: the summed capacities
    /// of every cluster's list vectors and stop records, and of the parts
    /// packed so far in the handle's tier (f64 panels, or the screen
    /// tier's panels and terms). A fresh index holds no parts, and the
    /// lists' untouched tails never join them.
    pub fn resident_bytes(&self) -> usize {
        let clusters = self.core.clusters.iter();
        let lists: usize = clusters.clone().map(ClusterIndex::list_bytes).sum();
        let parts: usize = match self.screen {
            None => clusters
                .map(|c| c.panels.resident_bytes(PackedPanels::resident_bytes))
                .sum(),
            Some(tier) => per_tier!(tier, T => clusters
                .map(|c| T::parts(c).resident_bytes(ScreenPart::resident_bytes))
                .sum()),
        };
        lists + parts
    }

    /// Cumulative query work counters.
    pub fn query_stats(&self) -> &MaximusQueryStats {
        &self.query_stats
    }

    /// The cluster each user is assigned to.
    pub fn assignments(&self) -> &[u32] {
        &self.core.assignments
    }

    /// θ_b per cluster (diagnostics / ablations).
    pub fn cluster_thetas(&self) -> Vec<f64> {
        self.core.clusters.iter().map(|c| c.theta_b).collect()
    }

    /// Serves `groups[c]`, the `(output position, user id)` pairs of
    /// cluster `c`'s users, into `out`, each pass in the handle's tier.
    fn serve(&self, k: usize, groups: &[Vec<(usize, usize)>], out: &mut [TopKList]) {
        match self.screen {
            None => {
                let mut scratch = GemmScratch::new();
                self.serve_with(k, groups, out, |cluster, span, rows, _, heaps| {
                    self.pass_f64(cluster, span, rows, heaps, &mut scratch)
                })
            }
            Some(tier) => per_tier!(tier, T => {
                let mut scratch = ScreenScratch::<T>::new();
                self.serve_with(k, groups, out, |cluster, span, rows, walkers, heaps| {
                    self.pass_screened(cluster, span, rows, walkers, heaps, &mut scratch)
                })
            }),
        }
    }

    /// [`MaximusIndex::serve`] with `pass` scoring each pass: each
    /// cluster's group walks in even batches of at most
    /// [`MaximusCore::batch_rows`] users, in group order.
    fn serve_with(
        &self,
        k: usize,
        groups: &[Vec<(usize, usize)>],
        out: &mut [TopKList],
        mut pass: impl FnMut(&ClusterIndex, Range<usize>, RowBlock<'_, f64>, &[usize], &mut [TopKHeap]),
    ) {
        for (cluster, group) in self.core.clusters.iter().zip(groups) {
            for batch in even_batches(group, self.core.batch_rows) {
                self.walk(cluster, batch, k, &mut pass, out);
            }
        }
    }

    /// Walks one batch of a cluster's users, `(output position, user id)`
    /// each, down its list in block passes, each sized at query time (see
    /// the module docs) and scored by `pass` — list positions, the walking
    /// users' f64 rows and ids, their heaps. The rows are the model's own
    /// where the walkers' ids run contiguously (a brute-force batch no user
    /// has left), else gathered. The walk ends by recording
    /// where each user's final threshold stops it, for the first pass of
    /// the next walk at `k`.
    ///
    /// Users that stop are moved, with their heaps, behind the ones still
    /// walking, so every pass scores one contiguous block of user rows
    /// into one contiguous run of heaps.
    fn walk(
        &self,
        cluster: &ClusterIndex,
        batch: &[(usize, usize)],
        k: usize,
        pass: &mut impl FnMut(&ClusterIndex, Range<usize>, RowBlock<'_, f64>, &[usize], &mut [TopKHeap]),
        out: &mut [TopKList],
    ) {
        let model = &self.core.model;
        let n_items = cluster.list_ids.len();
        let first_pass = (self.core.first_pass).unwrap_or_else(|| cluster.first_pass(k));

        // Slot `i < walking` is a user still walking: `(output position,
        // user id, ‖u‖)` beside its heap.
        let mut users: Vec<(usize, usize, f64)> = batch
            .iter()
            .map(|&(pos, u)| (pos, u, norm2(model.users().row(u))))
            .collect();
        let mut heaps: Vec<TopKHeap> = batch.iter().map(|_| TopKHeap::new(k)).collect();
        let mut walking = users.len();
        let (mut scored, mut pruned) = (0u64, 0u64);
        let mut stops = Vec::with_capacity(walking);

        let mut lo = 0;
        while lo < n_items {
            // Early termination: bounds descend, so a user whose scaled
            // bound at `lo` sits below its threshold is done with the rest,
            // and a user still walking can use no position from its stop
            // position on, the first one its bound misses (thresholds only
            // rise). A NaN product (a zero norm times an overflowed one)
            // misses nothing, so the predicate reads true, then false, down
            // any list.
            let mut kept = 0;
            stops.clear();
            for i in 0..walking {
                let hits = stop_position(&cluster.bounds[lo..], users[i].2, &heaps[i]);
                if hits == 0 {
                    pruned += (n_items - lo) as u64;
                } else {
                    users.swap(kept, i);
                    heaps.swap(kept, i);
                    kept += 1;
                    stops.push(lo + hits);
                }
            }
            walking = kept;
            if walking == 0 {
                break;
            }
            // The pass ends at the furthest stop, rounded up to a panel so
            // the next pass starts on one; short of that, at the first
            // pass's length or a quantile of the current stops.
            let reach = stops.iter().copied().max().unwrap_or(lo);
            let target = if lo == 0 {
                first_pass
            } else {
                quantile(&mut stops, STOP_QUANTILE).max(lo + MIN_PASS)
            };
            let hi = target.min(reach).next_multiple_of(ALIGN).min(n_items);
            let walkers: Vec<usize> = users[..walking].iter().map(|&(_, u, _)| u).collect();
            let gathered;
            let rows = match id_run(&walkers) {
                Some(run) => model.users().row_block(run.start, run.end),
                None => {
                    gathered = model.users().gather_rows(&walkers);
                    (&gathered).into()
                }
            };
            pass(cluster, lo..hi, rows, &walkers, &mut heaps[..walking]);
            scored += (walking * (hi - lo)) as u64;
            lo = hi;
        }

        let stats = &self.query_stats;
        stats.items_blocked.fetch_add(scored, Ordering::Relaxed);
        stats.items_pruned.fetch_add(pruned, Ordering::Relaxed);
        stats
            .users_served
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let walked = users.iter().zip(&heaps);
        let mut walked: Vec<usize> = walked
            .map(|(&(_, _, norm), heap)| stop_position(&cluster.bounds, norm, heap))
            .collect();
        cluster.record_stops(k, &mut walked);
        for (heap, &(pos, _, _)) in heaps.into_iter().zip(&users) {
            out[pos] = heap.into_sorted();
        }
    }

    /// One f64 pass: list positions `span` of `cluster`, part by part
    /// (each packed on first touch), multiplied against `rows` with the
    /// scores streamed straight into `heaps`, translated from list
    /// positions to item ids by [`ColumnIds::Mapped`].
    fn pass_f64(
        &self,
        cluster: &ClusterIndex,
        span: Range<usize>,
        rows: RowBlock<'_, f64>,
        heaps: &mut [TopKHeap],
        scratch: &mut GemmScratch<f64>,
    ) {
        let items = self.core.model.items();
        for (p, within, ids) in cluster.spanned(span) {
            let part = cluster.part(&cluster.panels, p, &self.packing, |ids| {
                PackedPanels::gather(items.into(), ids)
            });
            let ids = ColumnIds::Mapped(ids);
            stream_topk_into_heaps(rows, part.slice(within).into(), heaps, ids, scratch);
        }
    }

    /// One pass through tier `T`'s block screen: the tier's parts `span`
    /// covers (each packed on first touch) screened against the
    /// `walkers`' mirrored rows (viewed or gathered as `rows` are) into
    /// `heaps`, the survivors rescored from `rows` once, at the end.
    fn pass_screened<T: ListTier>(
        &self,
        cluster: &ClusterIndex,
        span: Range<usize>,
        rows: RowBlock<'_, f64>,
        walkers: &[usize],
        heaps: &mut [TopKHeap],
        scratch: &mut ScreenScratch<T>,
    ) {
        let model = &self.core.model;
        // A handle screens only over a usable mirror.
        let mirror = model.mirror::<T>();
        let parts = T::parts(cluster);
        let views: Vec<(TierView<'_, T>, ColumnIds<'_>)> = (cluster.spanned(span))
            .map(|(p, within, ids)| {
                let part = cluster.part(parts, p, &self.packing, |ids| {
                    ScreenPart::gather(mirror.items(), ids)
                });
                (part.view().rows(within), ColumnIds::Mapped(ids))
            })
            .collect();
        let gathered;
        let users = match id_run(walkers) {
            Some(run) => mirror.users().view().rows(run),
            None => {
                gathered = mirror.users().gather(walkers.iter().copied());
                gathered.view()
            }
        };
        let items = model.items().into();
        let stats = screen_parts_topk_into_heaps(rows, items, users, &views, heaps, scratch);
        self.screen_tally.record(stats.screened, stats.rescored);
    }

    /// Serves an ad-hoc user vector that was *not* part of the clustered set
    /// (§III-E dynamic users): assigns it to the nearest centroid and walks
    /// that cluster's list one item at a time, reading each row from the
    /// model by id, until the stored bound scaled by the user's norm falls
    /// below the k-th score. The walk's four-lane `dot` scores go through a
    /// [`Shortlist`], whose chain rescore finishes the answer.
    ///
    /// The stored bounds, and so the early exit, hold only for users
    /// within the cluster's widest angle θ_b: a user outside it walks the
    /// whole list, scoring every item with the same `dot`. A tiny `user` or
    /// model ([`is_tiny_row`]), whose norms bound nothing, is served by
    /// [`exact_topk`].
    pub fn query_new_vector(&self, user: &[f64], k: usize) -> TopKList {
        let core = &*self.core;
        assert_eq!(
            user.len(),
            core.model.num_factors(),
            "MaximusIndex: user dimensionality mismatch"
        );
        if is_tiny_row(user) || core.model.has_tiny_rows() {
            return exact_topk(user, core.model.items(), k);
        }
        // Assignment step of k-means only.
        let assigned = mips_clustering::assign_to_nearest(
            &Matrix::from_vec(1, user.len(), user.to_vec()).expect("1 x f"),
            &core.centroids,
        )[0] as usize;
        let cluster = &core.clusters[assigned];
        let unorm = norm2(user);
        let centroid = core.centroids.row(assigned);
        let theta_uc = if unorm == 0.0 || norm2(centroid) == 0.0 {
            std::f64::consts::PI
        } else {
            angle(user, centroid)
        };
        let covered = theta_uc <= cluster.theta_b;

        let items = core.model.items();
        let (rel, abs) = reassoc_envelope_parts(user.len());
        let mut heap = TopKHeap::new(k);
        let mut list = Shortlist::new();
        list.begin(&heap);
        for (pos, &id) in cluster.list_ids.iter().enumerate() {
            if covered && list.is_full() && unorm * cluster.bounds[pos] < list.threshold() {
                break;
            }
            let row = items.row(id as usize);
            list.offer(id, dot(user, row), rel * unorm * norm2(row) + abs);
        }
        list.finish(simd::active(), user, items.into(), &mut heap);
        heap.into_sorted()
    }
}

/// The range `ids` list in order, if they run contiguously.
fn id_run(ids: &[usize]) -> Option<Range<usize>> {
    let first = *ids.first()?;
    let run = ids.iter().enumerate().all(|(i, &id)| id == first + i);
    run.then(|| first..first + ids.len())
}

/// Where `bounds` (descending), scaled by a user's norm, first sits below
/// the threshold of its heap: the positions the user can still use. A NaN
/// product reads as a hit.
fn stop_position(bounds: &[f64], norm: f64, heap: &TopKHeap) -> usize {
    let threshold = heap.threshold();
    bounds.partition_point(|&b| (norm * b).partial_cmp(&threshold) != Some(Less))
}

/// Builds one cluster's sorted list; no part of it is packed.
fn build_cluster_list(
    items: &Matrix<f64>,
    item_norms: &[f64],
    centroid: &[f64],
    theta_b: f64,
    members: Vec<u32>,
) -> ClusterIndex {
    let n = items.rows();
    let cnorm = norm2(centroid);
    let mut entries: Vec<(f64, u32)> = (0..n)
        .map(|i| {
            // θ_ic is undefined where either norm is zero: take π/2.
            let theta_ic = if cnorm == 0.0 || item_norms[i] == 0.0 {
                std::f64::consts::FRAC_PI_2
            } else {
                angle(centroid, items.row(i))
            };
            (stored_bound(item_norms[i], theta_ic, theta_b), i as u32)
        })
        .collect();
    // `total_cmp`: same panic-free hardening as the LEMP/FEXIPRO
    // norm-sorts — bounds are finite for validated models, but an index
    // build must not be able to panic on a stray NaN.
    entries.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    let list_ids: Vec<u32> = entries.iter().map(|e| e.1).collect();
    let bounds: Vec<f64> = entries.iter().map(|e| e.0).collect();
    let cuts = list_cuts(n);
    let parts = cuts.len() - 1;

    ClusterIndex {
        theta_b,
        list_ids,
        bounds,
        cuts,
        panels: ListParts::new(parts),
        f32_parts: ListParts::new(parts),
        i8_parts: ListParts::new(parts),
        members,
        stops: Mutex::new(Vec::new()),
    }
}

impl MipsSolver for MaximusIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds + self.packing_seconds()
    }

    fn batches_users(&self) -> bool {
        true // the shared block passes batch cluster members
    }

    fn precision(&self) -> Precision {
        Precision::of_tier(self.screen)
    }

    fn screen_tiers(&self) -> &[ScreenTier] {
        self.core.tiers
    }

    fn screen_variant(&self, tier: ScreenTier) -> Option<Box<dyn MipsSolver>> {
        let listed = self.screen_tiers().contains(&tier);
        listed.then(|| Box::new(self.with_screen(tier)) as Box<dyn MipsSolver>)
    }

    fn num_users(&self) -> usize {
        self.core.model.num_users()
    }

    fn take_screen_stats(&self) -> Option<ScreenTally> {
        self.screen.map(|_| self.screen_tally.drain())
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let mut groups: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.core.clusters.len()];
            for (pos, &u) in distinct.iter().enumerate() {
                assert!(u < self.num_users(), "user id {u} out of bounds");
                groups[self.core.assignments[u] as usize].push((pos, u));
            }
            let mut out = vec![TopKList::empty(); distinct.len()];
            self.serve(k, &groups, &mut out);
            out
        })
    }

    fn query_all(&self, k: usize) -> Vec<TopKList> {
        // Serve whole clusters in membership order: maximal work sharing.
        let clusters = self.core.clusters.iter();
        let groups: Vec<Vec<(usize, usize)>> = clusters
            .map(|c| {
                c.members
                    .iter()
                    .map(|&u| (u as usize, u as usize))
                    .collect()
            })
            .collect();
        let mut out = vec![TopKList::empty(); self.num_users()];
        self.serve(k, &groups, &mut out);
        out
    }

    fn query_vector(&self, query: &[f64], k: usize) -> Option<TopKList> {
        Some(self.query_new_vector(query, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximus::MaximusIndex;
    use mips_data::synth::{synth_model, SynthConfig};

    fn model(users: usize, items: usize, f: usize, spread: f64) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            user_spread: spread,
            item_norm_skew: 0.7,
            ..SynthConfig::default()
        }))
    }

    fn small_config() -> MaximusConfig {
        MaximusConfig {
            num_clusters: 4,
            kmeans_iters: 3,
            block_size: 16,
            seed: 7,
        }
    }

    #[test]
    fn clustered_users_get_bmm_answers_with_and_without_item_blocking() {
        let m = model(50, 200, 12, 0.4);
        let bmm = MaximusIndex::brute_force(Arc::clone(&m));
        for block_size in [16, 0] {
            let config = MaximusConfig {
                block_size,
                ..small_config()
            };
            let maximus = MaximusIndex::build(Arc::clone(&m), &config);
            for k in [1usize, 5, 20] {
                assert_eq!(maximus.query_all(k), bmm.query_all(k), "{config:?} k={k}");
            }
        }
    }

    #[test]
    fn tight_clusters_prune() {
        // Tight bundles → small θ_b; a list long enough for several passes
        // past the first, so users stop at pass starts.
        let m = model(60, 2000, 16, 0.1);
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 8,
                ..small_config()
            },
        );
        let _ = maximus.query_all(1);
        let stats = maximus.query_stats();
        let (scored, pruned) = (
            stats.items_blocked.load(Ordering::Relaxed),
            stats.items_pruned.load(Ordering::Relaxed),
        );
        assert!(pruned > 0, "no pruning on tightly clustered users");
        // Each user scores the head of its list and prunes the rest.
        assert_eq!(scored + pruned, (m.num_users() * m.num_items()) as u64);
        let avg = stats.avg_items_visited();
        assert!(
            avg < m.num_items() as f64 * 0.9,
            "w̄ = {avg} — index visited nearly everything"
        );
    }

    #[test]
    fn screened_variant_is_bit_identical_and_screens_every_pass() {
        use crate::precision::Precision;
        // B = 8 (rounded up to 16) pushes most of the work past the first
        // pass, B = 64 splits it, and a block past the list length scores
        // the whole list in the first pass.
        let m = model(60, 500, 16, 0.4);
        for block_size in [8usize, 64, 10_000] {
            let config = MaximusConfig {
                block_size,
                ..small_config()
            };
            let plain = MaximusIndex::build(Arc::clone(&m), &config);
            assert_eq!(plain.screen(), None);
            let screened = plain.with_screen(ScreenTier::I8);
            assert!(
                Arc::ptr_eq(&screened.core, &plain.core),
                "construction is shared"
            );
            assert_eq!(screened.screen(), Some(ScreenTier::I8));
            assert_eq!(screened.name(), "Maximus+i8");
            assert_eq!(screened.precision(), Precision::I8Rescore);
            for k in [1usize, 5, 20] {
                let want = plain.query_all(k);
                let got = screened.query_all(k);
                for u in 0..m.num_users() {
                    assert_eq!(got[u].items, want[u].items, "B={block_size} k={k} user {u}");
                    for (a, b) in got[u].scores.iter().zip(&want[u].scores) {
                        assert_eq!(a.to_bits(), b.to_bits(), "B={block_size} k={k} user {u}");
                    }
                }
            }
            // After every pass the screened heaps hold the f64 heaps'
            // exact entries, so every user stops at the same pass: both
            // score and prune the same items, and the screen saw each
            // scored item once and rescored a fraction.
            let counts = |index: &MaximusIndex| {
                let stats = index.query_stats();
                (
                    stats.items_blocked.load(Ordering::Relaxed),
                    stats.items_pruned.load(Ordering::Relaxed),
                )
            };
            let (scored, pruned) = counts(&screened);
            assert_eq!((scored, pruned), counts(&plain), "B={block_size}");
            let tally = screened.take_screen_stats().expect("a screening solver");
            assert_eq!(tally.screened, scored, "B={block_size}");
            let first = (3 * m.num_users() * block_size.next_multiple_of(16).min(500)) as u64;
            assert!(scored >= first, "B={block_size}");
            assert!(
                tally.rescored < tally.screened / 2,
                "B={block_size}: {tally:?}"
            );
            if block_size < 500 {
                assert!(pruned > 0, "no user stopped at B={block_size}");
            } else {
                assert_eq!(pruned, 0);
            }
        }
    }

    #[test]
    fn int8_is_the_one_variant_and_a_degenerate_model_walks_unscreened() {
        use crate::precision::Precision;
        let plain = MaximusIndex::build(model(30, 80, 6, 0.4), &small_config());
        assert_eq!(plain.screen_tiers(), &[ScreenTier::I8]);
        assert!(plain.screen_variant(ScreenTier::F32).is_none());
        let variant = plain.screen_variant(ScreenTier::I8).expect("the i8 screen");
        assert_eq!(variant.name(), "Maximus+i8");
        // Deriving the variant leaves the base plain.
        let index = plain.with_screen(ScreenTier::I8);
        assert_eq!(
            (index.screen(), plain.screen()),
            (Some(ScreenTier::I8), None)
        );

        // Subnormal item rows cannot be quantized: the variant walks
        // unscreened under the base's identity.
        let degenerate = Arc::new(
            MfModel::new(
                "subnormal",
                Matrix::from_fn(6, 4, |r, c| ((r + c) as f64 + 1.0) * 1.0e-320),
                Matrix::from_fn(12, 4, |r, c| ((r * c) as f64 + 1.0) * 1.0e-320),
            )
            .unwrap(),
        );
        let index = MaximusIndex::build(degenerate, &small_config()).with_screen(ScreenTier::I8);
        assert_eq!(
            (index.name(), index.precision()),
            ("Maximus", Precision::F64)
        );
        assert!(index.take_screen_stats().is_none());
    }

    /// Whether each part of a cluster's list is packed in `parts`.
    fn packed<P>(parts: &ListParts<P>) -> Vec<bool> {
        parts.parts.iter().map(|p| p.get().is_some()).collect()
    }

    /// Every user's oracle answer at `k`.
    fn oracle(m: &MfModel, k: usize) -> Vec<TopKList> {
        let users = 0..m.num_users();
        users
            .map(|u| exact_topk(m.users().row(u), m.items(), k))
            .collect()
    }

    /// The answers as ids and score bits.
    fn bits(lists: &[TopKList]) -> Vec<(Vec<u32>, Vec<u64>)> {
        let bits = |l: &TopKList| l.scores.iter().map(|s| s.to_bits()).collect();
        lists.iter().map(|l| (l.items.clone(), bits(l))).collect()
    }

    #[test]
    fn lists_are_cut_into_parts_and_passes_span_them() {
        // A 4096-position first part, then parts of 1024, the last one
        // ending at the list's end, whatever the passes; a tail shorter
        // than 512 joins the part before it.
        assert_eq!(list_cuts(7000), [0, 4096, 5120, 6144, 7000]);
        assert_eq!(list_cuts(5120), [0, 4096, 5120]);
        assert_eq!(list_cuts(5200), [0, 4096, 5200]);
        assert_eq!(list_cuts(5633), [0, 4096, 5120, 5633]);
        assert_eq!(list_cuts(4500), [0, 4500]);
        assert_eq!(list_cuts(100), [0, 100]);
        assert_eq!(list_cuts(0), [0]);
        // A pass `lo..hi` visits each part it overlaps, with its slice of
        // that part.
        let m = model(8, 5800, 4, 0.4);
        let index = MaximusIndex::build(Arc::clone(&m), &small_config());
        let cluster = &index.core.clusters[0];
        assert_eq!(cluster.cuts, [0, 4096, 5120, 5800]);
        let spanned = |lo, hi| {
            let parts = cluster.spanned(lo..hi).map(|(p, within, ids)| {
                let first = cluster.cuts[p];
                assert_eq!(
                    ids,
                    &cluster.list_ids[first + within.start..first + within.end]
                );
                (p, within)
            });
            parts.collect::<Vec<_>>()
        };
        assert_eq!(spanned(0, 16), [(0, 0..16)]);
        assert_eq!(spanned(0, 4096), [(0, 0..4096)]);
        assert_eq!(spanned(16, 4112), [(0, 16..4096), (1, 0..16)]);
        assert_eq!(spanned(4096, 5500), [(1, 0..1024), (2, 0..380)]);
        assert_eq!(spanned(5488, 5500), [(2, 368..380)]);
        assert_eq!(spanned(0, 5800).len(), 3);
        // Nearest-rank quantiles.
        assert_eq!(quantile(&mut [], 0.9), 0);
        assert_eq!(quantile(&mut [7], 0.75), 7);
        assert_eq!(quantile(&mut [40, 10, 30, 20], 0.75), 30);
        assert_eq!(quantile(&mut [40, 10, 30, 20], 0.9), 40);
    }

    #[test]
    fn first_passes_follow_the_recorded_stops_per_k() {
        // Before any walk at k the first pass is short and grows with k;
        // after one, it is the median of the stops recorded at that
        // k, rounded up to a panel; each k keeps its own.
        let m = model(60, 2000, 16, 0.1);
        let index = MaximusIndex::build(Arc::clone(&m), &small_config_sized());
        let cluster = &index.core.clusters[0];
        assert_eq!(cluster.first_pass(1), MIN_PASS);
        assert_eq!(cluster.first_pass(10), 320);
        cluster.record_stops(1, &mut [5, 40, 33, 17, 900, 12, 20, 25, 30, 35]);
        assert_eq!(cluster.first_pass(1), 32, "median 25, rounded up");
        assert_eq!(cluster.first_pass(10), 320);
        // A walk records every user's stop at its final threshold.
        let _ = index.query_all(10);
        for cluster in &index.core.clusters {
            let stops = cluster.stops.lock().unwrap();
            let record = stops.iter().find(|r| r.k == 10).expect("k = 10 recorded");
            let want = cluster.members.len().min(RECORDED_STOPS);
            assert_eq!(record.stops.len(), want);
            assert!(record.first_pass % ALIGN == 0 && record.first_pass <= 2000);
        }
        // Small walks fill a ring; a walk of a ringful or more replaces it
        // with its own stops, evenly spaced in stop order, whatever order
        // its users come in.
        let mut record = StopRecord::new(3);
        record.push(&mut [4000; 100]);
        assert_eq!(record.first_pass, 4000);
        let mut walk: Vec<usize> = (0..1000).map(|u| u * 7 % 1000).collect();
        record.push(&mut walk);
        assert_eq!(record.stops.len(), RECORDED_STOPS);
        assert_eq!(record.first_pass, 512, "median 498, rounded up");
        for _ in 0..RECORDED_STOPS {
            record.push(&mut [64]);
        }
        assert_eq!(record.first_pass, 64);
        // The table keeps the latest ks.
        for k in 100..100 + RECORDED_KS + 3 {
            cluster.record_stops(k, &mut [16]);
        }
        let stops = cluster.stops.lock().unwrap();
        assert_eq!(stops.len(), RECORDED_KS);
        assert_eq!(stops[0].k, 103);
    }

    /// [`small_config`] with every pass sized at query time.
    fn small_config_sized() -> MaximusConfig {
        MaximusConfig {
            block_size: 0,
            ..small_config()
        }
    }

    #[test]
    fn a_fresh_index_holds_no_parts() {
        // Build packs nothing, in either tier: the index holds its lists'
        // vectors alone. Each part, once packed, holds its list positions
        // in list order: one user's passes over every part, with the
        // part's ids, score every item exactly as the oracle does.
        let m = model(40, 400, 8, 0.4);
        for config in [small_config(), small_config_sized()] {
            let plain = MaximusIndex::build(Arc::clone(&m), &config);
            let screened = plain.with_screen(ScreenTier::I8);
            let lists: usize = plain.core.clusters.iter().map(|c| c.list_bytes()).sum();
            assert_eq!(plain.resident_bytes(), lists, "{config:?}");
            assert_eq!(screened.resident_bytes(), lists, "{config:?}");
            for cluster in &plain.core.clusters {
                let none = vec![false; cluster.cuts.len() - 1];
                assert_eq!(packed(&cluster.panels), none);
                assert_eq!(packed(&cluster.i8_parts), none);
                let user = m.users().row_block(3, 4);
                let mut heaps = vec![TopKHeap::new(400)];
                let mut scratch = GemmScratch::new();
                let packing = AtomicU64::new(0);
                for (p, range) in cluster.cuts.windows(2).enumerate() {
                    let panels = cluster.part(&cluster.panels, p, &packing, |ids| {
                        PackedPanels::gather(m.items().into(), ids)
                    });
                    assert_eq!((panels.rows(), panels.cols()), (range[1] - range[0], 8));
                    let ids = ColumnIds::Mapped(&cluster.list_ids[range[0]..range[1]]);
                    stream_topk_into_heaps(user, panels.into(), &mut heaps, ids, &mut scratch);
                }
                assert!(packed(&cluster.panels).iter().all(|&p| p));
                assert!(packing.load(Ordering::Relaxed) > 0);
                let want = exact_topk(m.users().row(3), m.items(), 400);
                assert_eq!(heaps.pop().unwrap().into_sorted(), want, "{config:?}");
            }
        }
    }

    #[test]
    fn cluster_screens_are_gathered_in_list_order() {
        // A cluster's int8 parts cover the whole list: part position `r`
        // carries the mirror's terms of item `list_ids[first + r]`, and each
        // part's packed codes screen exactly like the mirror's rows
        // gathered in list order — the same candidates, survivors and
        // heaps.
        let m = model(40, 400, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config());
        let screened = plain.with_screen(ScreenTier::I8);
        let mirror = m.mirror::<i8>();
        let users = mirror.users().gather(0..40);
        assert_eq!(
            screened.screen(),
            Some(ScreenTier::I8),
            "the model quantizes"
        );
        let packing = AtomicU64::new(0);
        for cluster in &plain.core.clusters {
            let parts = &cluster.i8_parts;
            let list = || cluster.list_ids.iter().map(|&id| id as usize);
            let rows = mirror.items().gather(list());
            let run = |items: TierView<'_, i8>, ids: &[u32]| {
                let mut heaps: Vec<TopKHeap> = (0..40).map(|_| TopKHeap::new(5)).collect();
                let stats = screen_parts_topk_into_heaps(
                    m.users().into(),
                    m.items().into(),
                    users.view(),
                    &[(items, ColumnIds::Mapped(ids))],
                    &mut heaps,
                    &mut ScreenScratch::new(),
                );
                let lists: Vec<TopKList> = heaps.into_iter().map(TopKHeap::into_sorted).collect();
                (stats, lists)
            };
            for (p, range) in cluster.cuts.windows(2).enumerate() {
                let (first, end) = (range[0], range[1]);
                let part = cluster.part(parts, p, &packing, |ids| {
                    ScreenPart::gather(mirror.items(), ids)
                });
                for (t, column) in part.terms.iter().enumerate() {
                    let want = &rows.terms()[t][first..end];
                    let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(column), bits(want), "part {p} term {t}");
                }
                // The part from its second panel on, as a pass slices it.
                let skip = 16.min(end - first);
                let ids = &cluster.list_ids[first + skip..end];
                let view = part.view();
                assert_eq!(
                    run(view.rows(skip..end - first), ids),
                    run(rows.view().rows(first + skip..end), ids),
                    "part {p}"
                );
            }
        }
    }

    #[test]
    fn the_screen_variant_shares_the_f64_parts_and_packs_only_its_own() {
        // The int8 variant shares the core and its f64 parts, and its
        // passes pack only its own int8 parts (they rescore from the
        // model's rows). A point lookup, a full pass, the variant and a
        // forced first pass all answer alike.
        let m = model(40, 400, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config_sized());
        let panels = |index: &MaximusIndex| -> Vec<*const ListParts<PackedPanels<f64>>> {
            let clusters = index.core.clusters.iter();
            clusters.map(|c| &c.panels as *const _).collect()
        };
        let f64_parts = |index: &MaximusIndex| -> Vec<Vec<bool>> {
            let clusters = index.core.clusters.iter();
            clusters.map(|c| packed(&c.panels)).collect()
        };
        let screened = plain.with_screen(ScreenTier::I8);
        assert_eq!(panels(&screened), panels(&plain));
        let every = screened.query_all(400);
        assert!(
            f64_parts(&plain).iter().flatten().all(|&p| !p),
            "the variant packs no f64 part"
        );
        let clusters = plain.core.clusters.iter();
        assert!(clusters.flat_map(|c| packed(&c.i8_parts)).all(|p| p));
        assert_eq!(plain.query_all(400), every);
        assert!(f64_parts(&plain).iter().flatten().all(|&p| p));

        let first = plain.query_range(5, 3..4);
        let all = plain.query_all(5);
        assert_eq!(all[3], first[0]);
        assert_eq!(plain.query_all(5), all);
        assert_eq!(screened.query_all(5), all);
        let forced = MaximusIndex::build(Arc::clone(&m), &small_config());
        assert_eq!(forced.core.first_pass, Some(16));
        assert_eq!(forced.query_all(5), all);
        assert_eq!(forced.with_screen(ScreenTier::I8).query_all(5), all);
    }

    #[test]
    fn resident_bytes_count_the_parts_passes_reached() {
        // Tight clusters: at k = 1 users stop early and the lists' tails
        // stay unpacked; at k = |I| every user walks its whole list and the
        // index holds every part of it, in its own tier. Every answer on
        // the way is the oracle's.
        let m = model(60, 6000, 16, 0.1);
        let (first, every) = (oracle(&m, 1), oracle(&m, 6000));
        for config in [small_config(), small_config_sized()] {
            let plain = MaximusIndex::build(Arc::clone(&m), &config);
            let screened = plain.with_screen(ScreenTier::I8);
            let items = m.mirror::<i8>().items();
            let whole = |index: &MaximusIndex| -> usize {
                let per_cluster = index.core.clusters.iter().map(|cluster| {
                    let parts = cluster.cuts.windows(2);
                    let ids = parts.map(|r| &cluster.list_ids[r[0]..r[1]]);
                    let parts: usize = match index.screen {
                        Some(_) => ids
                            .map(|ids| ScreenPart::gather(items, ids).resident_bytes())
                            .sum(),
                        None => ids
                            .map(|ids| PackedPanels::gather(m.items().into(), ids).resident_bytes())
                            .sum(),
                    };
                    cluster.list_bytes() + parts
                });
                per_cluster.sum()
            };
            for index in [&plain, &screened] {
                let name = index.name();
                assert_eq!(index.query_all(1), first, "{name} {config:?}");
                let after_k1 = index.resident_bytes();
                let total = whole(index);
                assert!(after_k1 < total, "{name}: {after_k1} of {total}");
                assert_eq!(index.query_all(6000), every, "{name}");
                assert_eq!(index.resident_bytes(), whole(index), "{name} {config:?}");
            }
        }
    }

    #[test]
    fn query_time_passes_score_less_than_a_whole_list_pass() {
        // Tight clusters at k = 1: users stop after a few hundred
        // positions, so the default walk scores fewer items per user than
        // one forced pass over the whole list — on a fresh index and once
        // stops are recorded — and every answer is the oracle's.
        let m = model(60, 2000, 16, 0.1);
        let whole = MaximusConfig {
            block_size: 2000,
            ..small_config()
        };
        let per_user = |config: &MaximusConfig, screened: bool| {
            let index = MaximusIndex::build(Arc::clone(&m), config);
            let index = if screened {
                index.with_screen(ScreenTier::I8)
            } else {
                index
            };
            let mut visited = Vec::new();
            for _ in 0..2 {
                assert_eq!(bits(&index.query_all(1)), bits(&oracle(&m, 1)));
                visited.push(index.query_stats().avg_items_visited());
            }
            visited
        };
        for screened in [false, true] {
            let forced = per_user(&whole, screened);
            assert_eq!(forced, [2000.0, 2000.0]);
            let sized = per_user(&small_config_sized(), screened);
            assert!(sized.iter().all(|&w| w < 1000.0), "{sized:?}");
        }
    }

    #[test]
    fn the_order_of_k_changes_no_answer() {
        // The stops a walk at one k records change the next walks' passes,
        // never their answers: k = 50 then 1 gives the bits of k = 1 then
        // 50, and of the oracle, in f64 and int8, query_all and per user.
        let m = model(60, 2000, 16, 0.2);
        let want = |k| bits(&oracle(&m, k));
        for screened in [false, true] {
            let fresh = || {
                let index = MaximusIndex::build(Arc::clone(&m), &small_config_sized());
                if screened {
                    index.with_screen(ScreenTier::I8)
                } else {
                    index
                }
            };
            for ks in [[50usize, 1], [1, 50]] {
                let index = fresh();
                for _ in 0..2 {
                    for k in ks {
                        let name = index.name();
                        assert_eq!(bits(&index.query_all(k)), want(k), "{name} {ks:?}");
                        let users: Vec<usize> = (0..60).step_by(7).collect();
                        let got = bits(&index.query_subset(k, &users));
                        let want = want(k);
                        let want: Vec<_> = users.iter().map(|&u| want[u].clone()).collect();
                        assert_eq!(got, want, "{name} {ks:?} subset");
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_first_touch_packs_each_segment_once() {
        // Four threads query overlapping user sets on a fresh index, which
        // holds no part yet, in f64 and int8: every answer is the
        // oracle's. With the first pass forced, each walk's passes are its
        // own, and the index ends up holding exactly what a sequential run
        // over the same sets holds; sized at query time, the threads also
        // race the stop records.
        let m = model(60, 6000, 16, 0.2);
        let forced = MaximusConfig {
            block_size: 8,
            ..small_config()
        };
        // The one-cluster index (`None`): every thread walks the one list,
        // sharing its parts and its stop record, in every tier.
        let sets: Vec<Vec<usize>> = (0..4).map(|t| (t * 12..t * 12 + 24).collect()).collect();
        for config in [Some(forced), Some(small_config_sized()), None] {
            let tiers = match config {
                Some(_) => &[None, Some(ScreenTier::I8)][..],
                None => &[None, Some(ScreenTier::F32), Some(ScreenTier::I8)],
            };
            for &tier in tiers {
                let fresh = || {
                    let index = match &config {
                        Some(config) => MaximusIndex::build(Arc::clone(&m), config),
                        None => MaximusIndex::brute_force(Arc::clone(&m)),
                    };
                    match tier {
                        Some(tier) => index.with_screen(tier),
                        None => index,
                    }
                };
                for k in [10usize, 50] {
                    let sequential = fresh();
                    for set in &sets {
                        let _ = sequential.query_subset(k, set);
                    }
                    let concurrent = fresh();
                    crate::sync::thread::scope(|scope| {
                        for set in &sets {
                            let index = &concurrent;
                            let m = &m;
                            scope.spawn(move || {
                                for (list, &u) in index.query_subset(k, set).iter().zip(set) {
                                    let want = exact_topk(m.users().row(u), m.items(), k);
                                    assert_eq!(list, &want, "{} k={k} user {u}", index.name());
                                }
                            });
                        }
                    });
                    let name = concurrent.name();
                    if config.is_some_and(|c| c.block_size > 0) {
                        assert_eq!(
                            concurrent.resident_bytes(),
                            sequential.resident_bytes(),
                            "{name} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn part_boundaries_get_the_oracle_answer() {
        // B = 20 forces a 32-position first pass; a 6000-item list is cut
        // at 4096, 5120 and 6000, so later passes start and end inside
        // parts and span several. Every k — one, a few, more than a part,
        // past the list — on every query shape, in f64 and int8, is the
        // oracle's answer.
        let m = model(16, 6000, 8, 0.2);
        let config = MaximusConfig {
            block_size: 20,
            ..small_config()
        };
        let plain = MaximusIndex::build(Arc::clone(&m), &config);
        assert_eq!(plain.core.first_pass, Some(32));
        let screened = plain.with_screen(ScreenTier::I8);
        assert_eq!(screened.screen(), Some(ScreenTier::I8));
        let users = m.num_users();
        for k in [1usize, 10, 1500, 7000] {
            let want: Vec<TopKList> = (0..users)
                .map(|u| exact_topk(m.users().row(u), m.items(), k))
                .collect();
            for index in [&plain, &screened] {
                let name = index.name();
                assert_eq!(index.query_all(k), want, "{name} k={k} query_all");
                for u in 0..users {
                    let single = index.query_subset(k, &[u]);
                    assert_eq!(single[0], want[u], "{name} k={k} user {u}");
                    for v in [(u + 1) % users, (u * 7 + 5) % users] {
                        let pair = index.query_subset(k, &[u, v]);
                        assert_eq!(pair[0], want[u], "{name} k={k} pair ({u}, {v})");
                        assert_eq!(pair[1], want[v], "{name} k={k} pair ({u}, {v})");
                    }
                }
            }
        }
        // Users stop after several passes, not only after the first.
        let stats = plain.query_stats();
        let scored = stats.items_blocked.load(Ordering::Relaxed);
        let served = stats.users_served.load(Ordering::Relaxed);
        assert!(stats.items_pruned.load(Ordering::Relaxed) > 0);
        assert!(scored > served * 160, "no user walked past two passes");
    }

    #[test]
    fn overflowing_norms_never_stop_a_user_on_nan() {
        // `‖u‖ · bound` is NaN for a zero user against an item whose norm
        // overflows (bound +∞, sorted first), and for an overflowing user
        // against a zero item. Neither may read as "bound missed": three
        // quarters of the list overflowing must not retire the zero users
        // with empty heaps, in the first pass or a later one.
        let wave = |r: usize, c: usize| ((r * 7 + c * 3) as f64 + 0.5).sin();
        for (users, items) in [
            (
                Matrix::from_fn(6, 4, |r, c| if r % 3 == 0 { 0.0 } else { wave(r, c) }),
                Matrix::from_fn(300, 4, |r, c| {
                    wave(r + 11, c) * if r % 4 != 0 { 1e155 } else { 1.0 }
                }),
            ),
            (
                Matrix::from_fn(6, 4, |r, c| {
                    wave(r, c) * if r % 3 == 0 { 1e155 } else { 1.0 }
                }),
                Matrix::from_fn(
                    300,
                    4,
                    |r, c| if r % 4 != 0 { 0.0 } else { wave(r + 11, c) },
                ),
            ),
        ] {
            let m = Arc::new(MfModel::new("overflowing norms", users, items).unwrap());
            for block_size in [0, 16] {
                let config = MaximusConfig {
                    block_size,
                    ..small_config()
                };
                let plain = MaximusIndex::build(Arc::clone(&m), &config);
                for k in [1usize, 10, 300] {
                    let want: Vec<TopKList> = (0..m.num_users())
                        .map(|u| exact_topk(m.users().row(u), m.items(), k))
                        .collect();
                    for index in [&plain, &plain.with_screen(ScreenTier::I8)] {
                        assert_eq!(index.query_all(k), want, "B={block_size} k={k}");
                        for (u, want) in want.iter().enumerate() {
                            assert_eq!(&index.query_subset(k, &[u])[0], want, "user {u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn subset_order_and_range_agree() {
        let m = model(30, 60, 6, 0.5);
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config());
        let range = maximus.query_range(4, 5..25);
        let subset = maximus.query_subset(4, &(5..25).collect::<Vec<_>>());
        assert_eq!(range, subset);
        // Shuffled subset returns results in request order.
        let shuffled = maximus.query_subset(4, &[25, 5, 14]);
        assert_eq!(shuffled[1], range[0]);
    }

    #[test]
    fn block_larger_than_item_count_degenerates_to_bmm() {
        let m = model(20, 30, 5, 0.6);
        let bmm = MaximusIndex::brute_force(Arc::clone(&m));
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 10_000,
                ..small_config()
            },
        );
        assert_eq!(maximus.query_all(3), bmm.query_all(3));
        // Everything was scored in the first pass.
        let stats = maximus.query_stats();
        assert_eq!(stats.items_blocked.load(Ordering::Relaxed), 20 * 30);
        assert_eq!(stats.items_pruned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn new_vector_queries_are_exact() {
        let m = model(40, 120, 8, 0.4);
        let bmm = MaximusIndex::brute_force(Arc::clone(&m));
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config());
        // Existing user vector served through the §III-E path.
        for u in [0usize, 17, 39] {
            let got = maximus.query_new_vector(m.users().row(u), 5);
            assert_eq!(got, bmm.query_range(5, u..u + 1)[0], "user {u}");
        }
        // The walk reads the model's rows by id, whatever the first pass.
        let prefix_only = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 10_000,
                ..small_config()
            },
        );
        assert_eq!(prefix_only.core.first_pass, Some(120));
        for u in [0usize, 17, 39] {
            let got = prefix_only.query_new_vector(m.users().row(u), 5);
            assert_eq!(got, bmm.query_range(5, u..u + 1)[0], "user {u}");
        }
        // A genuinely new direction, far from every centroid.
        let novel: Vec<f64> = (0..8).map(|j| if j == 7 { -3.0 } else { 0.01 }).collect();
        let got = maximus.query_new_vector(&novel, 4);
        assert_eq!(got, mips_topk::exact_topk(&novel, m.items(), 4));
    }

    #[test]
    fn build_stats_are_populated() {
        let m = model(30, 50, 6, 0.5);
        let maximus = MaximusIndex::build(m, &small_config());
        let stats = maximus.build_stats();
        assert!(stats.clustering_seconds >= 0.0);
        assert!(stats.construction_seconds > 0.0);
        assert!(maximus.build_seconds() >= stats.construction_seconds);
        assert_eq!(maximus.cluster_thetas().len(), 4);
    }

    #[test]
    fn k_edge_cases() {
        let m = model(10, 15, 4, 0.5);
        let maximus = MaximusIndex::build(m, &small_config());
        assert!(maximus.query_all(0).iter().all(|l| l.is_empty()));
        assert!(maximus.query_all(100).iter().all(|l| l.len() == 15));
    }

    #[test]
    fn the_widest_block_size_builds_and_answers() {
        // A forced first pass is capped at the list before it is rounded,
        // so `usize::MAX` scores the whole list in the first pass instead
        // of overflowing the rounding.
        let m = model(20, 70, 6, 0.4);
        let config = MaximusConfig {
            block_size: usize::MAX,
            ..small_config()
        };
        let index = MaximusIndex::build(Arc::clone(&m), &config);
        assert_eq!(index.core.first_pass, Some(70));
        for k in [1usize, 10, 70] {
            assert_eq!(bits(&index.query_all(k)), bits(&oracle(&m, k)), "k={k}");
        }
    }

    /// `index`'s answers to `query_all` and to two user subsets at `k`, as
    /// ids and score bits, against the oracle's.
    fn assert_oracle(index: &MaximusIndex, m: &MfModel, k: usize) {
        let (name, want) = (index.name(), bits(&oracle(m, k)));
        assert_eq!(bits(&index.query_all(k)), want, "{name} k={k} query_all");
        let n = m.num_users();
        for users in [
            (0..n).rev().step_by(3).collect::<Vec<_>>(),
            vec![n - 1, 2, 9],
        ] {
            let want: Vec<_> = users.iter().map(|&u| want[u].clone()).collect();
            let got = bits(&index.query_subset(k, &users));
            assert_eq!(got, want, "{name} k={k} {users:?}");
        }
    }

    #[test]
    fn one_cluster_batches_get_the_oracle_answer_in_every_tier() {
        // 20 users in batches of at most 7: three even batches of 7, 7 and
        // a ragged 6, each walking on its own, in f64 and both screens, at
        // k = 1, a few and the whole catalog.
        assert_eq!(batch_rows(5200, 50), 656, "the L2 floor on the dense shape");
        assert_eq!(batch_rows(100, 1000), 10_485, "the score budget");
        let m = model(20, 300, 8, 0.6);
        let mut plain = MaximusIndex::brute_force(Arc::clone(&m));
        Arc::get_mut(&mut plain.core)
            .expect("one handle")
            .batch_rows = 7;
        assert_eq!(plain.core.clusters.len(), 1);
        for tier in [None, Some(ScreenTier::F32), Some(ScreenTier::I8)] {
            let index = match tier {
                Some(tier) => plain.with_screen(tier),
                None => MaximusIndex::over(Arc::clone(&plain.core), None, 0.0),
            };
            assert_eq!(index.screen(), tier);
            for k in [1usize, 10, 300] {
                assert_oracle(&index, &m, k);
            }
            let stats = index.query_stats();
            assert_eq!(stats.users_served.load(Ordering::Relaxed), 3 * (20 + 7 + 3));
        }
        let batches = |n: usize, max| {
            let group: Vec<usize> = (0..n).collect();
            let batches = even_batches(&group, max).map(<[_]>::len);
            batches.collect::<Vec<_>>()
        };
        assert_eq!(batches(20, 7), [7, 7, 6]);
        assert_eq!(
            batches(14_400, 656),
            [[655; 21].as_slice(), &[645]].concat()
        );
        assert_eq!(batches(3, 656), [3]);
        assert_eq!(batches(0, 656), [0; 0]);
    }

    #[test]
    fn brute_force_races_every_tier_and_maximus_int8_only() {
        // `bmm` is the one-cluster index named Blocked MM, with a variant
        // in every tier; `maximus` races int8 alone, though it screens in
        // f32 when asked. Each variant counts its own screen work.
        let m = model(30, 50, 8, 0.4);
        let bmm = MaximusIndex::brute_force(Arc::clone(&m));
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config());
        assert_eq!((bmm.name(), maximus.name()), ("Blocked MM", "Maximus"));
        assert_eq!(bmm.screen_tiers(), ScreenTier::ALL);
        assert_eq!(maximus.screen_tiers(), [ScreenTier::I8]);
        assert!(maximus.screen_variant(ScreenTier::F32).is_none());
        let maximus_f32 = maximus.with_screen(ScreenTier::F32);
        assert_eq!(maximus_f32.name(), "Maximus+f32");
        assert_oracle(&maximus_f32, &m, 5);
        let [f32_variant, i8_variant] =
            ScreenTier::ALL.map(|tier| bmm.screen_variant(tier).expect("bmm screens"));
        assert_eq!(f32_variant.name(), "Blocked MM+f32");
        assert_eq!(i8_variant.name(), "Blocked MM+i8");
        assert_eq!(f32_variant.precision(), Precision::F32Rescore);
        assert_eq!(i8_variant.precision(), Precision::I8Rescore);
        assert_eq!(f32_variant.query_all(3), bmm.query_all(3));
        // The idle sibling drains first: shared cells would hand it the
        // served variant's counts.
        assert_eq!(i8_variant.take_screen_stats(), Some(ScreenTally::default()));
        let tally = f32_variant.take_screen_stats().expect("a screening solver");
        assert!(tally.screened > 0 && tally.rescored > 0, "{tally:?}");
        assert_eq!(bmm.take_screen_stats(), None);
    }

    #[test]
    #[should_panic(expected = "num_clusters")]
    fn rejects_zero_clusters() {
        let m = model(5, 5, 3, 0.5);
        let _ = MaximusIndex::build(
            m,
            &MaximusConfig {
                num_clusters: 0,
                ..MaximusConfig::default()
            },
        );
    }
}
