//! MAXIMUS: the paper's hardware-friendly exact MIPS index (§III).
//!
//! Construction (Algorithm 1, `ConstructIndex`):
//! 1. cluster users with a few iterations of k-means (§III-A; defaults
//!    `|C| = 8`, `i = 3`),
//! 2. compute each cluster's worst user–centroid angle `θ_b`,
//! 3. for every cluster, sort all items descending by the Koenigstein bound
//!    `CBound(c, i, θ_b)` ([`bound`]).
//!
//! Querying (Algorithm 1, `QueryIndex`, plus the §III-D blocking
//! optimization): users of a cluster share one blocked matrix multiply over
//! the first `B` items of the cluster's list, then walk the remainder
//! individually, stopping at the first position whose bound (scaled by
//! `‖u‖`) falls below their threshold. The walk scores with the four-lane
//! `dot` and offers each score to a [`Shortlist`] seeded with the prefix's
//! exact entries; its chain rescore finishes the answer, so it is the
//! oracle's ([`mips_topk::exact_topk`]). The int8 variant
//! ([`MaximusIndex::with_i8_screen`]) screens both phases: the prefix
//! multiply runs in int8 with an exact f64 rescore of its survivors, and
//! the walk skips every item whose int8 upper bound misses the threshold.

pub mod bound;

use crate::maximus::bound::stored_bound;
use crate::solver::{screened_name, MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, OnceLock};
use mips_clustering::{kmeans, max_angles_per_cluster, KMeansConfig};
use mips_data::{is_tiny_row, MfModel};
use mips_linalg::kernels::{angle, dot, norm2};
use mips_linalg::{reassoc_envelope_parts, simd, GemmScratch, Matrix, PackedPanels, TierRows};
use mips_topk::{
    exact_topk, screen_topk_into_heaps, stream_topk_into_heaps, ArmedUser, ColumnIds,
    ScreenScratch, ScreenTier, Shortlist, TopKHeap, TopKList,
};
use std::time::Instant;

/// MAXIMUS parameters (§III-D: "B = 4096, |C| = 8, and i = 3 is effective
/// for many inputs").
#[derive(Debug, Clone, Copy)]
pub struct MaximusConfig {
    /// Number of user clusters `|C|`.
    pub num_clusters: usize,
    /// k-means iterations `i`.
    pub kmeans_iters: usize,
    /// Item blocking factor `B`: list prefix scored with a shared GEMM.
    /// `0` switches the §III-D item blocking off (the Fig. 8 lesion): every
    /// list is walked from its first item.
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
    /// Bound computation + sorting + list gathering time.
    pub construction_seconds: f64,
}

/// Cumulative query work counters (w̄ of Eqn. 4 is
/// `items_blocked + items_walked` per served user).
#[derive(Debug, Default)]
pub struct MaximusQueryStats {
    /// Users served.
    pub users_served: AtomicU64,
    /// Items scored through the shared blocked multiply (screened, on the
    /// int8 variant, with only the survivors rescored).
    pub items_blocked: AtomicU64,
    /// Items scored individually during the list walk.
    pub items_walked: AtomicU64,
    /// Items skipped by early termination.
    pub items_pruned: AtomicU64,
    /// Walked items whose exact dot (and guaranteed-rejected push) the
    /// int8 screen skipped; counted neither as walked nor pruned.
    pub items_screen_pruned: AtomicU64,
}

impl MaximusQueryStats {
    /// Average items visited per user (the paper's w̄).
    pub fn avg_items_visited(&self) -> f64 {
        let users = self.users_served.load(Ordering::Relaxed);
        if users == 0 {
            return 0.0;
        }
        (self.items_blocked.load(Ordering::Relaxed) + self.items_walked.load(Ordering::Relaxed))
            as f64
            / users as f64
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
    /// Length of the list prefix the §III-D blocked multiply scores: `B`
    /// capped at the list length (0 with item blocking off), or the whole
    /// list over a model with tiny rows.
    start: usize,
    /// The walked items, list positions `start..`, gathered in list order
    /// (the `O(|C||I|f)` storage of §III-D; sequential walks instead of
    /// random model access): row `pos − start` is position `pos`. The
    /// prefix has no gathered copy; only its packed panels score it.
    items: Matrix<f64>,
    /// The list prefix (positions `0..start`), packed for the GEMM driver
    /// straight from the model's rows by the first f64 request that reaches
    /// the cluster, and shared from then on by every request and thread;
    /// the int8 variant multiplies its own int8 panels instead
    /// ([`ClusterScreen`]) and never packs these. A per-call pack is a
    /// fixed `B × f` copy per cluster that a small batch does not amortize:
    /// a point lookup would pay it whole, and the planner — which times a
    /// user sample and scales by `|U| / sample` — would charge MAXIMUS that
    /// copy many times over and tie it with candidates it beats.
    block_panels: OnceLock<PackedPanels<f64>>,
    /// Members (user ids) of this cluster.
    members: Vec<u32>,
}

impl ClusterIndex {
    /// The item row at list position `pos`: a walked row from the gathered
    /// copy, a prefix row from the model's `items` by id.
    fn item_row<'a>(&'a self, items: &'a Matrix<f64>, pos: usize) -> &'a [f64] {
        match pos.checked_sub(self.start) {
            Some(walked) => self.items.row(walked),
            None => items.row(self.list_ids[pos] as usize),
        }
    }
}

/// One cluster's list in int8: the screen's item side in both phases.
struct ClusterScreen {
    /// Every list position's int8 codes and envelope terms, gathered in
    /// list order from the model's mirror: row `pos` is position `pos`.
    rows: TierRows<i8>,
    /// Rows `0..start` (the blocked prefix) packed for the screen's
    /// multiply: the prefix's int8 twin of `ClusterIndex::block_panels`.
    prefix_panels: PackedPanels<i8>,
}

/// Per-call buffers of [`MaximusIndex::serve_cluster`], one per query loop:
/// the f64 prefix multiply's, the int8 screen's (each sized on first use,
/// so the one a path does not take costs nothing) and the walks' shortlist.
#[derive(Default)]
struct Scratch {
    gemm: GemmScratch<f64>,
    screen: ScreenScratch<i8>,
    walk: Shortlist,
}

/// Everything construction derives from the model — the clustering, every
/// cluster's bound-sorted list and its gathered copy of the walked items.
/// Immutable once built (the packed list prefixes fill in on first use) and
/// shared, behind an [`Arc`], by an index and its screen variant
/// ([`MaximusIndex::with_i8_screen`]).
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
        // Over tiny rows the walk's norm bounds can underflow: block the
        // whole list instead (MfModel::has_tiny_rows).
        let start = if model.has_tiny_rows() {
            model.num_items()
        } else {
            config.block_size.min(model.num_items())
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
            query_stats: MaximusQueryStats::default(),
            screen_tally: ScreenTallyCells::default(),
            name: screened_name("Maximus", screen),
        }
    }

    /// This index with the int8 screen armed on **both phases** of the
    /// query, **sharing everything [`MaximusIndex::build`] constructed**:
    /// the variant adds one int8 screen per cluster — its whole list
    /// in int8, the prefix also packed.
    ///
    /// * The §III-D blocked prefix runs the block screen
    ///   ([`mips_topk::screen_topk_into_heaps`]): an int8 multiply whose
    ///   envelope-widened scores keep every item that could reach the heap,
    ///   each survivor rescored in f64 from the model's rows by id with the
    ///   GEMM's reduction order — so the heaps leave the prefix holding the
    ///   f64 multiply's exact entries.
    /// * The walk pre-scores each item against the cluster's int8 rows; the
    ///   item's `dot` and offer are skipped only when the envelope-widened
    ///   screen score ([`ArmedUser::upper_bound`]) sits below the walk's
    ///   threshold, which proves the item is not in the answer.
    ///
    /// Results stay bit-identical to the f64 index. The §III-E new-vector
    /// path stays f64. int8 is MAXIMUS's one screen tier: measured over the
    /// catalog stand-ins and the benchmark shapes, an f32 walk screen won no
    /// plan by more than sampling noise, and racing it cost cold time and a
    /// mirror per cluster.
    ///
    /// Each cluster's int8 rows are **gathered** in list order from the
    /// model's own int8 mirror ([`MfModel::mirror`] — built once per model
    /// and shared with brute force's screen), so no row is quantized once
    /// per cluster, and the rescore reads the model's f64 rows, so the
    /// variant holds no f64 copy of the prefix and never packs the f64
    /// prefix panels. The variant's `build_seconds` is that gathering and
    /// packing alone; its work counters start at zero.
    ///
    /// When the model does not quantize usably (subnormal rows, factor
    /// counts past the i32-overflow cap) the result runs unscreened.
    pub fn with_i8_screen(&self) -> MaximusIndex {
        let t = Instant::now();
        let core = Arc::clone(&self.core);
        let screens = core.model.mirror::<i8>().sides().map(|(_, items)| {
            let screen = |c: &ClusterIndex| {
                let rows = items.gather(c.list_ids.iter().map(|&i| i as usize));
                let prefix_panels = PackedPanels::pack(rows.row_block(0, c.start));
                ClusterScreen {
                    rows,
                    prefix_panels,
                }
            };
            core.clusters.iter().map(screen).collect()
        });
        MaximusIndex::over(core, screens, t.elapsed().as_secs_f64())
    }

    /// The armed screen tier, if any.
    pub fn screen(&self) -> Option<ScreenTier> {
        self.screens.as_ref().map(|_| ScreenTier::I8)
    }

    /// Build-stage breakdown (Fig. 8) of the shared construction.
    pub fn build_stats(&self) -> MaximusBuildStats {
        self.core.build_stats
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

    /// Serves one cluster's user group: shared **fused** GEMM→heap streaming
    /// over the list prefix, then individual walks. `group` carries
    /// `(output position, user id)`.
    ///
    /// The §III-D blocked multiply no longer materializes its
    /// `group × block` score buffer: panels stream straight into the same
    /// per-user heaps the list walk continues with, translated from list
    /// positions to item ids by [`ColumnIds::Mapped`]. With the screen
    /// armed the prefix streams int8 blocks through the block screen
    /// instead, into the same heaps.
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
        let n_items = cluster.list_ids.len();
        let block = cluster.start;
        let screen = self.screens.as_ref().map(|screens| &screens[c]);

        let mut heaps: Vec<TopKHeap> = group.iter().map(|_| TopKHeap::new(k)).collect();
        if block > 0 {
            let users: Vec<usize> = group.iter().map(|&(_, u)| u).collect();
            let gathered = model.users().gather_rows(&users);
            let prefix_ids = ColumnIds::Mapped(&cluster.list_ids[..block]);
            match screen {
                None => {
                    let panels = cluster.block_panels.get_or_init(|| {
                        PackedPanels::gather(model.items().into(), &cluster.list_ids[..block])
                    });
                    let (users, items) = ((&gathered).into(), panels.into());
                    stream_topk_into_heaps(users, items, &mut heaps, prefix_ids, &mut scratch.gemm);
                }
                Some(screen) => {
                    // `screens` exists only over a usable int8 mirror.
                    let mirrored = model.mirror::<i8>().users().gather(users.iter().copied());
                    let prefix = screen.rows.view().rows(0..block);
                    let stats = screen_topk_into_heaps(
                        (&gathered).into(),
                        model.items().into(),
                        mirrored.view(),
                        prefix.with_panels(&screen.prefix_panels),
                        &mut heaps,
                        prefix_ids,
                        &mut scratch.screen,
                    );
                    self.screen_tally.record(stats.screened, stats.rescored);
                }
            }
            self.query_stats
                .items_blocked
                .fetch_add((group.len() * block) as u64, Ordering::Relaxed);
        }

        let (rel, abs) = reassoc_envelope_parts(model.num_factors());
        let list = &mut scratch.walk;
        for (mut heap, &(pos, u)) in heaps.into_iter().zip(group) {
            let user = model.users().row(u);
            let unorm = norm2(user);
            let env_rel = rel * unorm;
            // Walk-phase screen state: the user row as int8 codes plus its
            // envelope coefficients. Absent unless the screen is armed; a
            // user row that does not quantize walks unscreened — still
            // exact, just unaccelerated.
            let armed = screen.and_then(|screen| Some((ArmedUser::<i8>::arm(user)?, &screen.rows)));
            let mut walked = 0u64;
            let mut screen_evaluated = 0u64;
            let mut screened_out = 0u64;
            // The prefix's exact entries in the heap seed the shortlist;
            // the walk's `dot` scores go through it.
            list.begin(&heap);
            let mut list_pos = block;
            while list_pos < n_items {
                // Early termination: bounds descend, so the first failure
                // covers the whole tail.
                if list.is_full() && unorm * cluster.bounds[list_pos] < list.threshold() {
                    break;
                }
                // Int8 screen: when even the envelope-widened screen score
                // sits strictly below the threshold, so does the exact
                // score, and the item cannot make the answer.
                if list.is_full() {
                    if let Some((armed, rows)) = &armed {
                        screen_evaluated += 1;
                        if armed.upper_bound(rows, list_pos) < list.threshold() {
                            screened_out += 1;
                            list_pos += 1;
                            continue;
                        }
                    }
                }
                let score = dot(user, cluster.items.row(list_pos - block));
                let env = env_rel * cluster.norms[list_pos] + abs;
                list.offer(cluster.list_ids[list_pos], score, env);
                walked += 1;
                list_pos += 1;
            }
            list.finish(simd::active(), user, model.items().into(), &mut heap);
            self.query_stats
                .items_walked
                .fetch_add(walked, Ordering::Relaxed);
            self.query_stats
                .items_screen_pruned
                .fetch_add(screened_out, Ordering::Relaxed);
            self.screen_tally
                .record(screen_evaluated, screen_evaluated - screened_out);
            self.query_stats
                .items_pruned
                .fetch_add((n_items - list_pos) as u64, Ordering::Relaxed);
            self.query_stats
                .users_served
                .fetch_add(1, Ordering::Relaxed);
            out[pos] = heap.into_sorted();
        }
    }

    /// Serves an ad-hoc user vector that was *not* part of the clustered set
    /// (§III-E dynamic users): assigns it to the nearest centroid and walks
    /// that cluster's list with a per-item bound widened to the user's own
    /// angle when it exceeds θ_b, through a [`Shortlist`] like the
    /// clustered users' walk.
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
            let score = dot(user, cluster.item_row(items, pos));
            list.offer(id, score, rel * unorm * cluster.norms[pos] + abs);
        }
        list.finish(simd::active(), user, items.into(), &mut heap);
        heap.into_sorted()
    }
}

/// Builds one cluster's sorted list, gathering the items past its blocked
/// prefix of `start` positions.
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
    let walked: Vec<usize> = list_ids[start..].iter().map(|&i| i as usize).collect();
    let gathered = items.gather_rows(&walked);

    ClusterIndex {
        theta_b,
        list_ids,
        bounds,
        theta_ic,
        norms,
        start,
        items: gathered,
        block_panels: OnceLock::new(),
        members,
    }
}

impl MipsSolver for MaximusIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        true // the shared prefix GEMM batches cluster members
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
        let m = model(60, 500, 16, 0.1); // tight bundles → small θ_b
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 8,
                ..small_config()
            },
        );
        let _ = maximus.query_all(1);
        let stats = maximus.query_stats();
        assert!(
            stats.items_pruned.load(Ordering::Relaxed) > 0,
            "no pruning on tightly clustered users"
        );
        let avg = stats.avg_items_visited();
        assert!(
            avg < m.num_items() as f64 * 0.9,
            "w̄ = {avg} — index visited nearly everything"
        );
    }

    #[test]
    fn screened_variant_is_bit_identical_and_prunes_in_both_phases() {
        use crate::precision::Precision;
        // B = 8 pushes most of the work into the walk, B = 64 splits it, and
        // a block past the list length leaves the block screen alone.
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
            // The block screen saw every prefix pair and rescored a fraction.
            let tally = screened.take_screen_stats().expect("a screening solver");
            let prefix = (3 * m.num_users() * block_size.min(500)) as u64;
            assert!(tally.screened >= prefix, "B={block_size}: {tally:?}");
            assert!(
                tally.rescored < tally.screened / 2,
                "B={block_size}: {tally:?}"
            );
            let stats = screened.query_stats();
            let walked = stats.items_walked.load(Ordering::Relaxed);
            if block_size >= 500 {
                assert_eq!(walked, 0);
                continue;
            }
            assert!(
                stats.items_screen_pruned.load(Ordering::Relaxed) > 0,
                "the walk screen never engaged at B={block_size}"
            );
            // Screened items reduce walked dots relative to the plain index.
            assert!(walked < plain.query_stats().items_walked.load(Ordering::Relaxed));
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

    #[test]
    fn clusters_gather_only_the_walked_suffix() {
        // Each cluster's gathered copy holds list positions `start..` in
        // list order; the blocked prefix lives only in its packed panels.
        // The Fig. 8 lesion blocks nothing, so it gathers the whole list.
        let m = model(40, 90, 8, 0.4);
        for (block_size, start) in [(16, 16), (500, 90), (0, 0)] {
            let config = MaximusConfig {
                block_size,
                ..small_config()
            };
            let index = MaximusIndex::build(Arc::clone(&m), &config);
            for cluster in &index.core.clusters {
                assert_eq!(cluster.start, start, "{config:?}");
                assert_eq!(cluster.items.rows(), m.num_items() - start, "{config:?}");
                for (r, &id) in cluster.list_ids[start..].iter().enumerate() {
                    assert_eq!(cluster.items.row(r), m.items().row(id as usize));
                }
            }
        }
    }

    #[test]
    fn cluster_screens_are_gathered_in_list_order() {
        // A cluster's int8 rows, gathered from the model's mirror, cover
        // the whole list: row `pos` is list position `pos`, and it bounds
        // exactly like a store built from the model's rows at those
        // positions. The packed prefix is the first `start` of them.
        let m = model(40, 90, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config());
        let screened = plain.with_i8_screen();
        let armed = ArmedUser::<i8>::arm(m.users().row(3)).unwrap();
        let screens = screened.screens.as_ref().expect("the model quantizes");
        for (cluster, screen) in plain.core.clusters.iter().zip(screens) {
            let list: Vec<usize> = cluster.list_ids.iter().map(|&id| id as usize).collect();
            let rows = m.items().gather_rows(&list);
            let rebuilt = TierRows::<i8>::build((&rows).into()).unwrap();
            assert_eq!(screen.rows.rows(), m.num_items());
            for pos in 0..list.len() {
                assert_eq!(
                    armed.upper_bound(&screen.rows, pos).to_bits(),
                    armed.upper_bound(&rebuilt, pos).to_bits(),
                    "list position {pos}"
                );
            }
            let panels = &screen.prefix_panels;
            assert_eq!((panels.rows(), panels.cols()), (cluster.start, 8));
        }
    }

    #[test]
    fn the_blocked_prefix_is_packed_once_per_cluster_and_only_by_the_f64_path() {
        let m = model(40, 90, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config());
        let packed = |index: &MaximusIndex| -> Vec<Option<*const PackedPanels<f64>>> {
            let clusters = index.core.clusters.iter();
            clusters
                .map(|c| c.block_panels.get().map(|p| p as *const _))
                .collect()
        };
        // Lazy: nothing is packed until a request reaches the cluster, and
        // a point lookup packs its own cluster's prefix only.
        assert!(packed(&plain).iter().all(Option::is_none));
        let first = plain.query_range(5, 3..4);
        let home = plain.assignments()[3] as usize;
        for (c, panels) in packed(&plain).iter().enumerate() {
            assert_eq!(panels.is_some(), c == home, "cluster {c}");
        }
        let all = plain.query_all(5);
        assert_eq!(all[3], first[0]);
        let after_all = packed(&plain);
        for (cluster, panels) in plain.core.clusters.iter().zip(&after_all) {
            assert_eq!(panels.is_some(), !cluster.members.is_empty());
        }
        // A second pass repacks nothing.
        assert_eq!(plain.query_all(5), all);
        assert_eq!(packed(&plain), after_all);
        // The int8 variant screens its prefix from its own int8 panels and
        // rescores from the model's rows: derived from a fresh build, it
        // answers the same and leaves the shared f64 panels unpacked.
        let fresh = MaximusIndex::build(Arc::clone(&m), &small_config());
        let screened = fresh.with_i8_screen();
        assert_eq!(screened.query_all(5), all);
        assert!(packed(&screened).iter().all(Option::is_none));
        // The panels hold the list prefix the rows hold: the lesion index
        // (no blocking, so no panels) answers the same.
        let unblocked = MaximusConfig {
            block_size: 0,
            ..small_config()
        };
        let walked = MaximusIndex::build(Arc::clone(&m), &unblocked);
        assert_eq!(walked.query_all(5), all);
        assert!(packed(&walked).iter().all(Option::is_none));
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
        // Everything was scored in the blocked phase.
        assert_eq!(
            maximus.query_stats().items_walked.load(Ordering::Relaxed),
            0
        );
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
        // The blocked prefix has no gathered copy: a walk through it reads
        // the model's rows by id. With the whole list blocked, every item
        // it returns comes from there.
        let prefix_only = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 10_000,
                ..small_config()
            },
        );
        assert!(prefix_only
            .core
            .clusters
            .iter()
            .all(|c| c.items.rows() == 0));
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
