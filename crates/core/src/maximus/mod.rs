//! MAXIMUS: the paper's hardware-friendly exact MIPS index (§III).
//!
//! Construction (Algorithm 1, `ConstructIndex`):
//! 1. cluster users with a few iterations of k-means (§III-A; defaults
//!    `|C| = 8`, `i = 3`),
//! 2. compute each cluster's worst user–centroid angle `θ_b`,
//! 3. for every cluster, sort all items descending by the Koenigstein bound
//!    `CBound(c, i, θ_b)` ([`bound`]), and pack the sorted list's §III-D
//!    prefix for the GEMM driver. Every later segment of the list is
//!    packed the first time a pass reaches it, so the tail no user reaches
//!    costs neither bytes nor packing time.
//!
//! Querying (Algorithm 1, `QueryIndex`, plus the §III-D blocking
//! optimization): the users of a cluster walk its list together, in block
//! passes. The first pass is the §III-D prefix, the first `B` positions;
//! the list continues in segments of 128, 256 and 512 positions, then
//! 1024 positions each. Before each segment, every user whose
//! bound at the segment's first position (scaled by `‖u‖`) sits strictly
//! below its heap's threshold stops: bounds descend, so nothing further
//! down the list can reach its answer. For the same reason the segment
//! ends, at the latest, where the bound of every user still walking has
//! fallen below its threshold. Each pass is one fused multiply
//! ([`mips_topk::stream_topk_into_heaps`]) over a panel-aligned slice of
//! the packed prefix or segment, for the users still walking, into their
//! heaps; a pass never crosses a segment.
//!
//! The paper walks each user past the prefix one item at a time; the
//! segments trade a few items scored past a user's own stop point for a
//! multiply instead of per-item `dot`s and bound checks. That stays
//! exact: every pass pushes the GEMM chain's scores, the oracle's
//! ([`mips_topk::exact_topk`]), a heap keeps the same set whatever order
//! scores arrive in, and the stored bounds' slack covers the chain's
//! rounding at every stop. The int8 variant
//! ([`MaximusIndex::with_i8_screen`]) runs every pass through the int8
//! block screen instead, whose survivors are rescored with the same chain.

pub mod bound;

use crate::maximus::bound::stored_bound;
use crate::solver::{screened_name, MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, OnceLock};
use mips_clustering::{kmeans, max_angles_per_cluster, KMeansConfig};
use mips_data::{is_tiny_row, MfModel};
use mips_linalg::kernels::{angle, dot, norm2};
use mips_linalg::tier::MAX_TERMS;
use mips_linalg::{
    reassoc_envelope_parts, simd, GemmElem, GemmScratch, Matrix, PackedPanels, RowBlock, TierView,
};
use mips_topk::{
    exact_topk, screen_topk_into_heaps, stream_topk_into_heaps, ColumnIds, ScreenScratch,
    ScreenTier, Shortlist, TopKHeap, TopKList,
};
use std::cmp::Ordering::Less;
use std::mem::size_of;
use std::time::Instant;

/// List positions in the first segment past the §III-D prefix.
const FIRST_SEGMENT: usize = 128;

/// Each segment is this many times as long as the one before it, up to
/// [`MAX_SEGMENT`].
const SEGMENT_GROWTH: usize = 2;

/// The longest segment; every segment past the first one this long is
/// this long too. A segment is packed whole on first touch, so the cap
/// bounds what a pass packs beyond the positions its users need.
const MAX_SEGMENT: usize = 1024;

/// The prefix length and every segment start are multiples of this: the
/// widest tier's `NR`, so each pass multiplies a slice of the packed
/// prefix or segment that starts on a panel boundary in every tier.
const ALIGN: usize = <i8 as GemmElem>::NR;
const _: () = assert!(
    ALIGN % <f64 as GemmElem>::NR == 0
        && FIRST_SEGMENT % ALIGN == 0
        && MAX_SEGMENT % FIRST_SEGMENT == 0
);

/// MAXIMUS parameters (§III-D: "B = 4096, |C| = 8, and i = 3 is effective
/// for many inputs").
#[derive(Debug, Clone, Copy)]
pub struct MaximusConfig {
    /// Number of user clusters `|C|`.
    pub num_clusters: usize,
    /// k-means iterations `i`.
    pub kmeans_iters: usize,
    /// Item blocking factor `B`: the list prefix every member of a cluster
    /// scores in one shared pass, rounded up to a multiple of 16 (the
    /// widest tier's panel width), packed at build. The rest of the list
    /// follows in segments of 128, 256 and 512 positions, then 1024
    /// positions each, each packed the first time a pass reaches it. `0`
    /// switches the §III-D prefix off (the Fig. 8 lesion): the segments
    /// start at the list's first position.
    pub block_size: usize,
    /// Seed for clustering.
    pub seed: u64,
}

impl Default for MaximusConfig {
    fn default() -> Self {
        MaximusConfig {
            num_clusters: 8,
            kmeans_iters: 3,
            block_size: 4096,
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
    /// Bound computation + sorting + prefix packing time, plus the
    /// segments the handle's passes have packed on first touch so far.
    pub construction_seconds: f64,
}

/// Cumulative query work counters (w̄ of Eqn. 4 is `items_blocked` per
/// served user).
#[derive(Debug, Default)]
pub struct MaximusQueryStats {
    /// Users served.
    pub users_served: AtomicU64,
    /// Items scored, summed over users: every position of the prefix and
    /// of each segment a user was still walking at (screened, on the int8
    /// variant, with only the survivors rescored).
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
    /// Per-position angle θ_ic (needed to re-derive bounds for new users,
    /// §III-E).
    theta_ic: Vec<f64>,
    /// Item norms per list position.
    norms: Vec<f64>,
    /// Length of the §III-D prefix: `B` rounded up to a multiple of
    /// [`ALIGN`] and capped at the list length (0 with item blocking off),
    /// or the whole list over a model with tiny rows.
    start: usize,
    /// Where the list is cut into parts ([`list_cuts`]): part `p` is list
    /// positions `cuts[p]..cuts[p + 1]`, the prefix first, then the
    /// segments.
    cuts: Vec<usize>,
    /// The list packed for the GEMM driver, part by part, row `r` of a
    /// part being its `r`-th list position (the `O(|C||I|f)` storage of
    /// §III-D, held only as far down the list as some pass reached): the
    /// prefix at build, each segment on first touch.
    panels: ListPanels<f64>,
    /// Members (user ids) of this cluster.
    members: Vec<u32>,
}

impl ClusterIndex {
    /// Part `p` of `panels`, a list packed in this cluster's parts: packed
    /// from `rows` by list id the first time any pass reaches it, the
    /// nanoseconds that takes added to `packing`.
    fn part<'a, T: GemmElem>(
        &self,
        panels: &'a ListPanels<T>,
        p: usize,
        rows: RowBlock<'_, T>,
        packing: &AtomicU64,
    ) -> &'a PackedPanels<T> {
        panels.parts[p].get_or_init(|| {
            let started = Instant::now();
            let ids = &self.list_ids[self.cuts[p]..self.cuts[p + 1]];
            let packed = PackedPanels::gather(rows, ids);
            packing.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            packed
        })
    }

    /// Heap bytes of the list's per-position vectors and its members.
    fn list_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        vec(&self.list_ids)
            + vec(&self.bounds)
            + vec(&self.theta_ic)
            + vec(&self.norms)
            + vec(&self.cuts)
            + vec(&self.members)
    }
}

/// Where a list of `n` positions with a `start`-position prefix is cut
/// into parts: `[0, start, …, n]`, the segments past the prefix 128, 256
/// and 512 positions long, then [`MAX_SEGMENT`] each, the last one ending
/// at `n`. An empty prefix is an empty first part.
fn list_cuts(start: usize, n: usize) -> Vec<usize> {
    let mut cuts = vec![0, start];
    let mut segment = FIRST_SEGMENT;
    while let Some(&last) = cuts.last().filter(|&&last| last < n) {
        cuts.push((last + segment).min(n));
        segment = (segment * SEGMENT_GROWTH).min(MAX_SEGMENT);
    }
    cuts
}

/// A cluster's list packed in one tier, one slot per part
/// ([`ClusterIndex::cuts`]): the prefix's filled when the slots are made,
/// a segment's the first time a pass reaches it ([`ClusterIndex::part`]).
/// A slot packs once, however many threads reach it together.
struct ListPanels<T: GemmElem> {
    parts: Vec<OnceLock<PackedPanels<T>>>,
}

impl<T: GemmElem> ListPanels<T> {
    /// `parts` slots: the first holds rows `prefix` of `rows` (the
    /// prefix's list ids), packed; the rest are empty.
    fn new(rows: RowBlock<'_, T>, prefix: &[u32], parts: usize) -> ListPanels<T> {
        let prefix = PackedPanels::gather(rows, prefix);
        let segments = (1..parts).map(|_| OnceLock::new());
        ListPanels {
            parts: std::iter::once(OnceLock::from(prefix))
                .chain(segments)
                .collect(),
        }
    }

    /// Heap bytes of the parts packed so far.
    fn resident_bytes(&self) -> usize {
        let packed = self.parts.iter().filter_map(OnceLock::get);
        packed.map(PackedPanels::resident_bytes).sum()
    }
}

/// One cluster's list in int8: the block screen's item side.
struct ClusterScreen {
    /// The list's int8 codes, packed part by part like
    /// [`ClusterIndex::panels`], gathered in list order from the model's
    /// mirror: the prefix when the screen is made, each segment on first
    /// touch.
    panels: ListPanels<i8>,
    /// Every list position's envelope terms, one column per term.
    terms: [Vec<f64>; MAX_TERMS],
}

impl ClusterScreen {
    /// Heap bytes of the terms and of the parts packed so far.
    fn resident_bytes(&self) -> usize {
        let terms = self.terms.iter().map(|t| t.capacity() * size_of::<f64>());
        terms.sum::<usize>() + self.panels.resident_bytes()
    }
}

/// Per-call buffers of [`MaximusIndex::serve_cluster`], one per query loop:
/// the f64 multiply's and the int8 screen's, each sized on first use, so
/// the one a path does not take costs nothing.
#[derive(Default)]
struct Scratch {
    gemm: GemmScratch<f64>,
    screen: ScreenScratch<i8>,
}

/// Everything construction derives from the model — the clustering and
/// every cluster's bound-sorted list with its f64 panels. Shared, behind
/// an [`Arc`], by an index and its screen variant
/// ([`MaximusIndex::with_i8_screen`]); nothing in it changes once built
/// but the segments packed on first touch.
struct MaximusCore {
    model: Arc<MfModel>,
    assignments: Vec<u32>,
    clusters: Vec<ClusterIndex>,
    centroids: Matrix<f64>,
    build_stats: MaximusBuildStats,
}

/// The built MAXIMUS index.
pub struct MaximusIndex {
    core: Arc<MaximusCore>,
    /// With the int8 screen armed, one [`ClusterScreen`] per cluster;
    /// `None` on the f64 path.
    screens: Option<Vec<ClusterScreen>>,
    /// Seconds spent building what this handle added: the whole
    /// construction for [`MaximusIndex::build`], the cluster screens alone
    /// for the [`MaximusIndex::with_i8_screen`] variant.
    build_seconds: f64,
    /// Nanoseconds this handle's passes spent packing segments on first
    /// touch: construction, reported in [`MipsSolver::build_seconds`] and
    /// [`MaximusIndex::build_stats`].
    packing: AtomicU64,
    query_stats: MaximusQueryStats,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]); separate from
    /// [`MaximusQueryStats`], whose counters benches read cumulatively.
    screen_tally: ScreenTallyCells,
    /// `"Maximus"` plus the armed tier's suffix.
    name: String,
}

impl MaximusIndex {
    /// Builds the index: cluster users, compute θ_b, sort item lists.
    ///
    /// # Panics
    /// Panics on a configuration [`MaximusConfig::validate`] rejects.
    pub fn build(model: Arc<MfModel>, config: &MaximusConfig) -> MaximusIndex {
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
        // Over tiny rows the norm bounds can underflow: score the whole
        // list in the prefix instead (MfModel::has_tiny_rows).
        let start = if model.has_tiny_rows() {
            model.num_items()
        } else {
            config
                .block_size
                .next_multiple_of(ALIGN)
                .min(model.num_items())
        };
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
                    start,
                    clustering.members[c].clone(),
                )
            })
            .collect();
        let construction_seconds = t1.elapsed().as_secs_f64();

        let core = MaximusCore {
            assignments: clustering.assignments,
            centroids: clustering.centroids,
            clusters,
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

    /// A handle on `core` screening through `screens` (`None`: unscreened).
    fn over(
        core: Arc<MaximusCore>,
        screens: Option<Vec<ClusterScreen>>,
        build_seconds: f64,
    ) -> MaximusIndex {
        let screen = screens.as_ref().map(|_| ScreenTier::I8);
        MaximusIndex {
            core,
            screens,
            build_seconds,
            packing: AtomicU64::new(0),
            query_stats: MaximusQueryStats::default(),
            screen_tally: ScreenTallyCells::default(),
            name: screened_name("Maximus", screen),
        }
    }

    /// This index with the int8 screen armed on every block pass of the
    /// query, **sharing everything [`MaximusIndex::build`] constructed**:
    /// the variant adds one int8 screen per cluster — its list's codes,
    /// packed part by part like the f64 panels (the prefix now, each
    /// segment the first time one of the variant's passes reaches it), and
    /// each position's envelope terms.
    ///
    /// The prefix and every segment run the block screen
    /// ([`mips_topk::screen_topk_into_heaps`]): an int8 multiply whose
    /// envelope-widened scores keep every item that could reach the heap,
    /// each survivor rescored in f64 from the model's rows by id with the
    /// GEMM's reduction order — so after every pass the heaps hold the f64
    /// multiply's exact entries, every user stops where it stops on the f64
    /// index, and results are bit-identical to it. The §III-E new-vector
    /// path stays f64. int8 is MAXIMUS's one screen tier: measured over the
    /// catalog stand-ins and the benchmark shapes, an f32 screen won no
    /// plan by more than sampling noise, and racing it cost cold time and
    /// a mirror per cluster.
    ///
    /// Each cluster's codes and terms are **gathered** in list order from
    /// the model's own int8 mirror ([`MfModel::mirror`] — built once per
    /// model and shared with brute force's screen), so no row is quantized
    /// once per cluster, and the panels are the only copy of the codes the
    /// variant holds. The rescore reads the model's f64 rows, so the
    /// variant holds no f64 copy of its own. Its `build_seconds` is that
    /// gathering and packing alone, the segments it packed on first touch
    /// included; its work counters start at zero.
    ///
    /// When the model does not quantize usably (subnormal rows, factor
    /// counts past the i32-overflow cap) the result runs unscreened.
    pub fn with_i8_screen(&self) -> MaximusIndex {
        let t = Instant::now();
        let core = Arc::clone(&self.core);
        let screens = core.model.mirror::<i8>().sides().map(|(_, items)| {
            let codes = items.row_block(0, items.rows());
            let screen = |c: &ClusterIndex| ClusterScreen {
                panels: ListPanels::new(codes, &c.list_ids[..c.start], c.cuts.len() - 1),
                terms: items
                    .terms()
                    .map(|column| c.list_ids.iter().map(|&i| column[i as usize]).collect()),
            };
            core.clusters.iter().map(screen).collect()
        });
        MaximusIndex::over(core, screens, t.elapsed().as_secs_f64())
    }

    /// The armed screen tier, if any.
    pub fn screen(&self) -> Option<ScreenTier> {
        self.screens.as_ref().map(|_| ScreenTier::I8)
    }

    /// Build-stage breakdown (Fig. 8) of the shared construction, plus the
    /// segments this handle's passes have packed on first touch so far.
    pub fn build_stats(&self) -> MaximusBuildStats {
        let mut stats = self.core.build_stats;
        stats.construction_seconds += self.packing_seconds();
        stats
    }

    /// Seconds this handle's passes have spent packing segments.
    fn packing_seconds(&self) -> f64 {
        self.packing.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The bytes the index holds for its own tier: the summed capacities
    /// of every cluster's list vectors and of the panels packed so far
    /// (f64, or int8 with the screen armed, plus its terms). The lists'
    /// untouched tails are not among them.
    pub fn resident_bytes(&self) -> usize {
        let clusters = &self.core.clusters;
        let lists: usize = clusters.iter().map(ClusterIndex::list_bytes).sum();
        let panels: usize = match &self.screens {
            Some(screens) => screens.iter().map(ClusterScreen::resident_bytes).sum(),
            None => clusters.iter().map(|c| c.panels.resident_bytes()).sum(),
        };
        lists + panels
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

    /// Serves one cluster's user group, `(output position, user id)` each,
    /// in block passes over the list: the §III-D prefix, then growing
    /// segments, each for the users still walking (see the module docs). A
    /// segment no pass reached before is packed on the way in.
    ///
    /// Users that stop are moved, with their heaps, behind the ones still
    /// walking, so every pass multiplies one contiguous block of user rows
    /// into one contiguous run of heaps. A pass streams score panels
    /// straight into the heaps, translated from list positions to item ids
    /// by [`ColumnIds::Mapped`]; with the screen armed it streams int8
    /// blocks through the block screen instead, into the same heaps.
    fn serve_cluster(
        &self,
        c: usize,
        group: &[(usize, usize)],
        k: usize,
        scratch: &mut Scratch,
        out: &mut [TopKList],
    ) {
        let model = &self.core.model;
        let cluster = &self.core.clusters[c];
        let (n_items, cuts) = (cluster.list_ids.len(), &cluster.cuts);
        // `screens` exists only over a usable int8 mirror.
        let screen = self.screens.as_ref().map(|s| (&s[c], model.mirror::<i8>()));

        // Slot `i < walking` is a user still walking: `(output position,
        // user id, ‖u‖)` beside its heap.
        let mut users: Vec<(usize, usize, f64)> = group
            .iter()
            .map(|&(pos, u)| (pos, u, norm2(model.users().row(u))))
            .collect();
        let mut heaps: Vec<TopKHeap> = group.iter().map(|_| TopKHeap::new(k)).collect();
        let mut walking = users.len();
        let (mut scored, mut pruned) = (0u64, 0u64);

        let (mut lo, mut p) = (0, 0);
        while lo < n_items {
            // The part `lo` lies in: the prefix or a segment.
            while cuts[p + 1] == lo {
                p += 1;
            }
            let (first, end) = (cuts[p], cuts[p + 1]);
            // Early termination: bounds descend, so a user whose scaled
            // bound at `lo` sits below its threshold is done with the rest,
            // and a user still walking can use no position from the first
            // one its bound misses on: `reach`, the furthest of those, caps
            // the pass (thresholds only rise). A NaN product (a zero norm
            // times an overflowed one) misses nothing, so the predicate
            // reads true, then false, down any list.
            let (mut kept, mut reach) = (0, lo);
            for i in 0..walking {
                let (norm, threshold) = (users[i].2, heaps[i].threshold());
                let hits = cluster.bounds[lo..]
                    .partition_point(|&b| (norm * b).partial_cmp(&threshold) != Some(Less));
                if hits == 0 {
                    pruned += (n_items - lo) as u64;
                } else {
                    users.swap(kept, i);
                    heaps.swap(kept, i);
                    kept += 1;
                    reach = reach.max(lo + hits);
                }
            }
            walking = kept;
            if walking == 0 {
                break;
            }
            // Rounded up so the next pass, if any, starts on a panel.
            let hi = end.min(reach.next_multiple_of(ALIGN));
            let walkers: Vec<usize> = users[..walking].iter().map(|&(_, u, _)| u).collect();
            let rows = model.users().gather_rows(&walkers);
            let ids = ColumnIds::Mapped(&cluster.list_ids[lo..hi]);
            let heaps = &mut heaps[..walking];
            let within = lo - first..hi - first;
            match screen {
                Some((screen, mirror)) => {
                    let codes = mirror.items().row_block(0, n_items);
                    let panels = cluster.part(&screen.panels, p, codes, &self.packing);
                    let terms = std::array::from_fn(|t| &screen.terms[t][first..end]);
                    let stats = screen_topk_into_heaps(
                        (&rows).into(),
                        model.items().into(),
                        mirror.users().gather(walkers.into_iter()).view(),
                        TierView::packed(panels.into(), terms).rows(within),
                        heaps,
                        ids,
                        &mut scratch.screen,
                    );
                    self.screen_tally.record(stats.screened, stats.rescored);
                }
                None => {
                    let items = model.items().into();
                    let panels = cluster.part(&cluster.panels, p, items, &self.packing);
                    let items = panels.slice(within).into();
                    stream_topk_into_heaps((&rows).into(), items, heaps, ids, &mut scratch.gemm);
                }
            }
            scored += (walking * (hi - lo)) as u64;
            lo = hi;
        }

        let stats = &self.query_stats;
        stats.items_blocked.fetch_add(scored, Ordering::Relaxed);
        stats.items_pruned.fetch_add(pruned, Ordering::Relaxed);
        stats
            .users_served
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        for (heap, &(pos, _, _)) in heaps.into_iter().zip(&users) {
            out[pos] = heap.into_sorted();
        }
    }

    /// Serves an ad-hoc user vector that was *not* part of the clustered set
    /// (§III-E dynamic users): assigns it to the nearest centroid and walks
    /// that cluster's list one item at a time, reading each row from the
    /// model by id, with a per-item bound widened to the user's own angle
    /// when it exceeds θ_b. The walk's four-lane `dot` scores go through a
    /// [`Shortlist`], whose chain rescore finishes the answer.
    ///
    /// List order no longer matches the widened bound, so pruning skips
    /// items without early exit — still exact, usually still far fewer dots
    /// than brute force. A tiny `user` or model ([`is_tiny_row`]), whose
    /// norms bound nothing, scores every item ([`exact_topk`]).
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

        let items = core.model.items();
        let (rel, abs) = reassoc_envelope_parts(user.len());
        let mut heap = TopKHeap::new(k);
        let mut list = Shortlist::new();
        list.begin(&heap);
        let covered = theta_uc <= cluster.theta_b;
        for (pos, &id) in cluster.list_ids.iter().enumerate() {
            if list.is_full() {
                if covered {
                    // Covered by the stored bounds: early exit.
                    if unorm * cluster.bounds[pos] < list.threshold() {
                        break;
                    }
                } else {
                    // No early exit: the order is stale for θ_uc.
                    let b = stored_bound(cluster.norms[pos], cluster.theta_ic[pos], theta_uc);
                    if unorm * b < list.threshold() {
                        continue;
                    }
                }
            }
            let score = dot(user, items.row(id as usize));
            list.offer(id, score, rel * unorm * cluster.norms[pos] + abs);
        }
        list.finish(simd::active(), user, items.into(), &mut heap);
        heap.into_sorted()
    }
}

/// Builds one cluster's sorted list and packs its prefix in list order.
fn build_cluster_list(
    items: &Matrix<f64>,
    item_norms: &[f64],
    centroid: &[f64],
    theta_b: f64,
    start: usize,
    members: Vec<u32>,
) -> ClusterIndex {
    let n = items.rows();
    let cnorm = norm2(centroid);
    let mut entries: Vec<(f64, f64, u32)> = (0..n)
        .map(|i| {
            let theta_ic = if cnorm == 0.0 || item_norms[i] == 0.0 {
                std::f64::consts::FRAC_PI_2
            } else {
                angle(centroid, items.row(i))
            };
            (
                stored_bound(item_norms[i], theta_ic, theta_b),
                theta_ic,
                i as u32,
            )
        })
        .collect();
    // `total_cmp`: same panic-free hardening as the LEMP/FEXIPRO
    // norm-sorts — bounds are finite for validated models, but an index
    // build must not be able to panic on a stray NaN.
    entries.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));

    let list_ids: Vec<u32> = entries.iter().map(|e| e.2).collect();
    let bounds: Vec<f64> = entries.iter().map(|e| e.0).collect();
    let theta_ic: Vec<f64> = entries.iter().map(|e| e.1).collect();
    let norms: Vec<f64> = entries.iter().map(|e| item_norms[e.2 as usize]).collect();
    let cuts = list_cuts(start, n);
    let panels = ListPanels::new(items.into(), &list_ids[..start], cuts.len() - 1);

    ClusterIndex {
        theta_b,
        list_ids,
        bounds,
        theta_ic,
        norms,
        start,
        cuts,
        panels,
        members,
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

    fn precision(&self) -> crate::precision::Precision {
        crate::precision::Precision::of_tier(self.screen())
    }

    fn screen_tiers(&self) -> &[ScreenTier] {
        &[ScreenTier::I8]
    }

    fn screen_variant(&self, tier: ScreenTier) -> Option<Box<dyn MipsSolver>> {
        let listed = self.screen_tiers().contains(&tier);
        listed.then(|| Box::new(self.with_i8_screen()) as Box<dyn MipsSolver>)
    }

    fn num_users(&self) -> usize {
        self.core.model.num_users()
    }

    fn take_screen_stats(&self) -> Option<ScreenTally> {
        self.screens.as_ref().map(|_| self.screen_tally.drain())
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let mut groups: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.core.clusters.len()];
            for (pos, &u) in distinct.iter().enumerate() {
                assert!(u < self.num_users(), "user id {u} out of bounds");
                groups[self.core.assignments[u] as usize].push((pos, u));
            }
            let mut out = vec![TopKList::empty(); distinct.len()];
            let mut scratch = Scratch::default();
            for (c, group) in groups.iter().enumerate() {
                if !group.is_empty() {
                    self.serve_cluster(c, group, k, &mut scratch, &mut out);
                }
            }
            out
        })
    }

    fn query_all(&self, k: usize) -> Vec<TopKList> {
        // Serve whole clusters in membership order: maximal work sharing.
        // One scratch outlives every per-cluster fused multiply.
        let mut out = vec![TopKList::empty(); self.num_users()];
        let mut scratch = Scratch::default();
        for (c, cluster) in self.core.clusters.iter().enumerate() {
            let group: Vec<(usize, usize)> = cluster
                .members
                .iter()
                .map(|&u| (u as usize, u as usize))
                .collect();
            if !group.is_empty() {
                self.serve_cluster(c, &group, k, &mut scratch, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
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
        let bmm = BmmSolver::build(Arc::clone(&m));
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
        // Tight bundles → small θ_b; a list long enough for several
        // segments past the prefix, so users stop at segment starts.
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
        // Each user scores a prefix of its list and prunes the rest.
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
        // B = 8 (rounded up to 16) pushes most of the work into the
        // segments, B = 64 splits it, and a block past the list length
        // leaves the prefix alone.
        let m = model(60, 500, 16, 0.4);
        for block_size in [8usize, 64, 10_000] {
            let config = MaximusConfig {
                block_size,
                ..small_config()
            };
            let plain = MaximusIndex::build(Arc::clone(&m), &config);
            assert_eq!(plain.screen(), None);
            let screened = plain.with_i8_screen();
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
            // exact entries, so every user stops at the same segment: both
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
            let prefix = (3 * m.num_users() * block_size.next_multiple_of(16).min(500)) as u64;
            assert!(scored >= prefix, "B={block_size}");
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
        // One screen per cluster; deriving the variant leaves the base plain.
        let index = plain.with_i8_screen();
        assert_eq!(index.screens.as_ref().map(Vec::len), Some(4));
        assert!(plain.screens.is_none());

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
        let index = MaximusIndex::build(degenerate, &small_config()).with_i8_screen();
        assert_eq!(
            (index.name(), index.precision()),
            ("Maximus", Precision::F64)
        );
        assert!(index.take_screen_stats().is_none());
    }

    /// Whether each part of each cluster's list is packed in `panels`.
    fn packed<T: GemmElem>(panels: &ListPanels<T>) -> Vec<bool> {
        panels.parts.iter().map(|p| p.get().is_some()).collect()
    }

    #[test]
    fn clusters_pack_the_prefix_at_build_and_each_segment_in_list_order() {
        // The parts: the prefix, then segments of 128, 256 and 512
        // positions and 1024 each after; an empty prefix is an empty part.
        let cuts = list_cuts(32, 5000);
        assert_eq!(cuts, [0, 32, 160, 416, 928, 1952, 2976, 4000, 5000]);
        assert_eq!(list_cuts(0, 100), [0, 0, 100]);
        assert_eq!(list_cuts(90, 90), [0, 90]);
        // Build packs the prefix alone: `B` rounded up to a multiple of 16
        // and capped at the list; the Fig. 8 lesion has none. Each part,
        // once packed, holds its list positions in list order: one user's
        // passes over every part, with the part's ids, score every item
        // exactly as the oracle does.
        let m = model(40, 400, 8, 0.4);
        for (block_size, start) in [(16, 16), (5, 16), (17, 32), (500, 400), (0, 0)] {
            let config = MaximusConfig {
                block_size,
                ..small_config()
            };
            let index = MaximusIndex::build(Arc::clone(&m), &config);
            for cluster in &index.core.clusters {
                assert_eq!(cluster.start, start, "{config:?}");
                assert_eq!(cluster.cuts, list_cuts(start, 400), "{config:?}");
                let parts = cluster.cuts.len() - 1;
                let mut want = vec![false; parts];
                want[0] = true;
                assert_eq!(packed(&cluster.panels), want, "{config:?}");
                let user = m.users().row_block(3, 4);
                let mut heaps = vec![TopKHeap::new(400)];
                let mut scratch = GemmScratch::new();
                let packing = AtomicU64::new(0);
                for (p, range) in cluster.cuts.windows(2).enumerate() {
                    let panels = cluster.part(&cluster.panels, p, m.items().into(), &packing);
                    assert_eq!((panels.rows(), panels.cols()), (range[1] - range[0], 8));
                    let ids = ColumnIds::Mapped(&cluster.list_ids[range[0]..range[1]]);
                    stream_topk_into_heaps(user, panels.into(), &mut heaps, ids, &mut scratch);
                }
                assert_eq!(packed(&cluster.panels), vec![true; parts]);
                assert_eq!(packing.load(Ordering::Relaxed) > 0, parts > 1, "{config:?}");
                let want = exact_topk(m.users().row(3), m.items(), 400);
                assert_eq!(heaps.pop().unwrap().into_sorted(), want, "{config:?}");
            }
        }
    }

    #[test]
    fn cluster_screens_are_gathered_in_list_order() {
        // A cluster's int8 screen covers the whole list: position `pos`
        // carries the mirror's terms of item `list_ids[pos]`, and each
        // part's packed codes (the prefix's at once, a segment's on first
        // touch) screen exactly like the mirror's rows gathered in list
        // order — the same candidates, survivors and heaps.
        let m = model(40, 400, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config());
        let screened = plain.with_i8_screen();
        let mirror = m.mirror::<i8>();
        let users = mirror.users().gather(0..40);
        let codes = mirror.items().row_block(0, 400);
        let screens = screened.screens.as_ref().expect("the model quantizes");
        let packing = AtomicU64::new(0);
        for (cluster, screen) in plain.core.clusters.iter().zip(screens) {
            let list = || cluster.list_ids.iter().map(|&id| id as usize);
            let rows = mirror.items().gather(list());
            for (t, column) in screen.terms.iter().enumerate() {
                let want = rows.terms()[t];
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(column), bits(want), "term {t}");
            }
            let mut want = vec![false; cluster.cuts.len() - 1];
            want[0] = true;
            assert_eq!(packed(&screen.panels), want);
            let run = |items: TierView<'_, i8>, ids: &[u32]| {
                let mut heaps: Vec<TopKHeap> = (0..40).map(|_| TopKHeap::new(5)).collect();
                let stats = screen_topk_into_heaps(
                    m.users().into(),
                    m.items().into(),
                    users.view(),
                    items,
                    &mut heaps,
                    ColumnIds::Mapped(ids),
                    &mut ScreenScratch::new(),
                );
                let lists: Vec<TopKList> = heaps.into_iter().map(TopKHeap::into_sorted).collect();
                (stats, lists)
            };
            for (p, range) in cluster.cuts.windows(2).enumerate() {
                let (first, end) = (range[0], range[1]);
                let panels = cluster.part(&screen.panels, p, codes, &packing);
                let terms = std::array::from_fn(|t| &screen.terms[t][first..end]);
                // The part from its second panel on, as a pass slices it.
                let skip = 16.min(end - first);
                let ids = &cluster.list_ids[first + skip..end];
                let part = TierView::packed(panels.into(), terms);
                assert_eq!(
                    run(part.rows(skip..end - first), ids),
                    run(rows.view().rows(first + skip..end), ids),
                    "part {p}"
                );
            }
        }
    }

    #[test]
    fn prefixes_are_packed_at_build_and_shared_by_the_screen_variant() {
        // Each prefix is packed once, at build; the int8 variant shares the
        // core and its f64 panels, and its passes pack only its own int8
        // segments (they rescore from the model's rows). A point lookup, a
        // full pass, the variant and the lesion (no prefix) all answer
        // alike.
        let m = model(40, 400, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config());
        let panels = |index: &MaximusIndex| -> Vec<*const ListPanels<f64>> {
            let clusters = index.core.clusters.iter();
            clusters.map(|c| &c.panels as *const _).collect()
        };
        let f64_parts = |index: &MaximusIndex| -> Vec<Vec<bool>> {
            index
                .core
                .clusters
                .iter()
                .map(|c| packed(&c.panels))
                .collect()
        };
        let at_build = f64_parts(&plain);
        for cluster in &plain.core.clusters {
            let prefix = cluster.panels.parts[0].get().expect("packed at build");
            assert_eq!(prefix.rows(), cluster.start);
        }
        let screened = plain.with_i8_screen();
        assert_eq!(panels(&screened), panels(&plain));
        let every = screened.query_all(400);
        assert_eq!(
            f64_parts(&plain),
            at_build,
            "the variant packs no f64 segment"
        );
        assert_eq!(plain.query_all(400), every);
        assert!(f64_parts(&plain).iter().flatten().all(|&p| p));

        let first = plain.query_range(5, 3..4);
        let all = plain.query_all(5);
        assert_eq!(all[3], first[0]);
        assert_eq!(plain.query_all(5), all);
        assert_eq!(screened.query_all(5), all);
        let unblocked = MaximusConfig {
            block_size: 0,
            ..small_config()
        };
        let walked = MaximusIndex::build(Arc::clone(&m), &unblocked);
        assert!(walked.core.clusters.iter().all(|c| c.start == 0));
        assert_eq!(walked.query_all(5), all);
        assert_eq!(walked.with_i8_screen().query_all(5), all);
    }

    #[test]
    fn resident_bytes_count_the_segments_passes_reached() {
        // Tight clusters: at k = 1 users stop early and the lists' tails
        // stay unpacked; at k = |I| every user walks its whole list and the
        // index holds every part of it, in its own tier. Every answer on
        // the way is the oracle's.
        let m = model(60, 2000, 16, 0.1);
        let config = MaximusConfig {
            block_size: 8,
            ..small_config()
        };
        let plain = MaximusIndex::build(Arc::clone(&m), &config);
        let screened = plain.with_i8_screen();
        let items = m.mirror::<i8>().items();
        let codes = items.row_block(0, items.rows());
        let whole = |index: &MaximusIndex| -> usize {
            let clusters = index.core.clusters.iter().enumerate();
            let per_cluster = clusters.map(|(c, cluster)| {
                let parts = cluster.cuts.windows(2);
                let ids = parts.map(|r| &cluster.list_ids[r[0]..r[1]]);
                let panels: usize = match &index.screens {
                    Some(screens) => {
                        let terms = screens[c].terms.iter().map(|t| t.len() * size_of::<f64>());
                        let packed =
                            ids.map(|ids| PackedPanels::gather(codes, ids).resident_bytes());
                        packed.sum::<usize>() + terms.sum::<usize>()
                    }
                    None => ids
                        .map(|ids| PackedPanels::gather(m.items().into(), ids).resident_bytes())
                        .sum(),
                };
                cluster.list_bytes() + panels
            });
            per_cluster.sum()
        };
        let oracle = |k: usize| -> Vec<TopKList> {
            let users = 0..m.num_users();
            users
                .map(|u| exact_topk(m.users().row(u), m.items(), k))
                .collect()
        };
        for index in [&plain, &screened] {
            let name = index.name();
            let total = whole(index);
            assert_eq!(index.query_all(1), oracle(1), "{name}");
            let after_k1 = index.resident_bytes();
            assert!(after_k1 < total, "{name}: {after_k1} of {total}");
            assert_eq!(index.query_all(2000), oracle(2000), "{name}");
            assert_eq!(index.resident_bytes(), total, "{name}");
        }
    }

    #[test]
    fn concurrent_first_touch_packs_each_segment_once() {
        // Four threads query overlapping user sets on a fresh index, in
        // f64 and int8: every answer is the oracle's, and the index ends up
        // holding exactly what a sequential run over the same sets holds.
        let m = model(60, 2000, 16, 0.2);
        let config = MaximusConfig {
            block_size: 8,
            ..small_config()
        };
        let sets: Vec<Vec<usize>> = (0..4).map(|t| (t * 12..t * 12 + 24).collect()).collect();
        for screened in [false, true] {
            let fresh = || {
                let index = MaximusIndex::build(Arc::clone(&m), &config);
                if screened {
                    index.with_i8_screen()
                } else {
                    index
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
                assert_eq!(
                    concurrent.resident_bytes(),
                    sequential.resident_bytes(),
                    "{name} k={k}"
                );
            }
        }
    }

    #[test]
    fn segment_boundaries_get_the_oracle_answer() {
        // B = 20 rounds up to a 32-position prefix; a 2000-item list then
        // runs segments 32..160..416..928..1952..2000, five past the
        // prefix. Every k — one, a few, more than a segment, past the list
        // — on every query shape, in f64 and int8, is the oracle's answer.
        let m = model(24, 2000, 8, 0.2);
        let config = MaximusConfig {
            block_size: 20,
            ..small_config()
        };
        let plain = MaximusIndex::build(Arc::clone(&m), &config);
        assert!(plain.core.clusters.iter().all(|c| c.start == 32));
        let screened = plain.with_i8_screen();
        assert_eq!(screened.screen(), Some(ScreenTier::I8));
        let users = m.num_users();
        for k in [1usize, 10, 50, 2500] {
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
        // Users stop at several segment starts, not only after the prefix.
        let stats = plain.query_stats();
        let scored = stats.items_blocked.load(Ordering::Relaxed);
        let served = stats.users_served.load(Ordering::Relaxed);
        assert!(stats.items_pruned.load(Ordering::Relaxed) > 0);
        assert!(scored > served * 160, "no user walked past one segment");
    }

    #[test]
    fn overflowing_norms_never_stop_a_user_on_nan() {
        // `‖u‖ · bound` is NaN for a zero user against an item whose norm
        // overflows (bound +∞, sorted first), and for an overflowing user
        // against a zero item. Neither may read as "bound missed": three
        // quarters of the list overflowing must not retire the zero users
        // with empty heaps, in the prefix or in a segment.
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
                    for index in [&plain, &plain.with_i8_screen()] {
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
        let bmm = BmmSolver::build(Arc::clone(&m));
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 10_000,
                ..small_config()
            },
        );
        assert_eq!(maximus.query_all(3), bmm.query_all(3));
        // Everything was scored in the prefix.
        let stats = maximus.query_stats();
        assert_eq!(stats.items_blocked.load(Ordering::Relaxed), 20 * 30);
        assert_eq!(stats.items_pruned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn new_vector_queries_are_exact() {
        let m = model(40, 120, 8, 0.4);
        let bmm = BmmSolver::build(Arc::clone(&m));
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config());
        // Existing user vector served through the §III-E path.
        for u in [0usize, 17, 39] {
            let got = maximus.query_new_vector(m.users().row(u), 5);
            assert_eq!(got, bmm.query_range(5, u..u + 1)[0], "user {u}");
        }
        // The walk reads the model's rows by id, whatever the prefix.
        let prefix_only = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 10_000,
                ..small_config()
            },
        );
        assert!(prefix_only.core.clusters.iter().all(|c| c.start == 120));
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
