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
//! `‖u‖`) falls below their heap threshold.

pub mod bound;

use crate::maximus::bound::stored_bound;
use crate::solver::{screened_name, MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, OnceLock};
use mips_clustering::{kmeans, max_angles_per_cluster, KMeansConfig};
use mips_data::MfModel;
use mips_linalg::kernels::{angle, dot, norm2};
use mips_linalg::{per_tier, GemmScratch, Matrix, PackedPanels};
use mips_topk::{
    canonicalize, stream_topk_into_heaps, ColumnIds, ItemMirror, ScreenTier, TopKHeap, TopKList,
    UserScreen,
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
    pub block_size: usize,
    /// Lesion switch for the §III-D item-blocking optimization (Fig. 8).
    pub item_blocking: bool,
    /// Seed for clustering.
    pub seed: u64,
}

impl Default for MaximusConfig {
    fn default() -> Self {
        MaximusConfig {
            num_clusters: 8,
            kmeans_iters: 3,
            block_size: 4096,
            item_blocking: true,
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
            (self.block_size, "block_size"),
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
    /// Items scored through the shared blocked multiply.
    pub items_blocked: AtomicU64,
    /// Items scored individually during the list walk.
    pub items_walked: AtomicU64,
    /// Items skipped by early termination.
    pub items_pruned: AtomicU64,
    /// Walked items whose exact dot (and guaranteed-rejected push) the
    /// mixed-precision screen — f32 or int8 — skipped; counted neither as
    /// walked nor pruned.
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
    /// capped at the list length, 0 with item blocking off.
    start: usize,
    /// The walked items, list positions `start..`, gathered in list order
    /// (the `O(|C||I|f)` storage of §III-D; sequential walks instead of
    /// random model access): row `pos − start` is position `pos`. The
    /// prefix has no gathered copy; only its packed panels score it.
    items: Matrix<f64>,
    /// The list prefix (positions `0..start`), packed for the GEMM driver
    /// straight from the model's rows by the first request that reaches the
    /// cluster, and shared from then on by every request, thread and screen
    /// variant. A per-call pack is a fixed `B × f` copy per cluster that a
    /// small batch does not amortize: a point lookup would pay it whole,
    /// and the planner — which times a user sample and scales by
    /// `|U| / sample` — would charge MAXIMUS that copy many times over and
    /// tie it with candidates it beats.
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

/// Everything construction derives from the model — the clustering, every
/// cluster's bound-sorted list and its gathered copy of the walked items.
/// Immutable once built (the packed list prefixes fill in on first use) and
/// shared, behind an [`Arc`], by an index and every screen variant of it
/// ([`MaximusIndex::with_screen`]).
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
    /// One mirror per cluster — its gathered walked items in the armed
    /// tier's storage — row-aligned with the cluster's `items`; empty when
    /// no tier is armed.
    mirrors: Vec<ItemMirror>,
    /// Seconds spent building what this handle added: the whole
    /// construction for [`MaximusIndex::build`], the mirrors alone for a
    /// [`MaximusIndex::with_screen`] variant.
    build_seconds: f64,
    query_stats: MaximusQueryStats,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]); separate from
    /// [`MaximusQueryStats`], whose counters benches read cumulatively.
    screen_tally: ScreenTallyCells,
    /// The armed screen tier.
    screen: Option<ScreenTier>,
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
        let start = if config.item_blocking {
            config.block_size.min(model.num_items())
        } else {
            0
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
            Vec::new(),
            None,
            clustering_seconds + construction_seconds,
        )
    }

    /// A handle on `core` serving through `mirrors` in `screen`.
    fn over(
        core: Arc<MaximusCore>,
        mirrors: Vec<ItemMirror>,
        screen: Option<ScreenTier>,
        build_seconds: f64,
    ) -> MaximusIndex {
        MaximusIndex {
            core,
            mirrors,
            build_seconds,
            query_stats: MaximusQueryStats::default(),
            screen_tally: ScreenTallyCells::default(),
            screen,
            name: screened_name("Maximus", screen),
        }
    }

    /// This index with the mixed-precision screen armed on the **list
    /// walk**, **sharing everything [`MaximusIndex::build`] constructed**:
    /// the variant adds one mirror per cluster in `tier`'s storage, and
    /// walked items are pre-scored against it — the exact dot and its push
    /// are skipped only when the envelope-widened screen score
    /// ([`UserScreen::upper_bound`]) proves the push would be rejected, so
    /// results stay bit-identical. The §III-D blocked prefix stays f64 (it
    /// is GEMM-bound; the `bmm` screen variant covers that regime), as does
    /// the §III-E new-vector path.
    ///
    /// Each cluster's mirror is **gathered** in list order from the model's
    /// own mirror of the tier ([`MfModel::mirror`] — built once per model
    /// and shared with brute force's screen), so no row is rounded or
    /// quantized once per cluster; like the f64 copy it holds the walked
    /// positions only. The variant's `build_seconds` is that gathering
    /// alone; its work counters start at zero.
    ///
    /// The variant carries the mirrors of `tier` only, whatever `self` had
    /// armed. When the model does not mirror usably in `tier` (int8:
    /// subnormal rows, factor counts past the i32-overflow cap; f32:
    /// overflow) the result keeps the identity `self` had, plain or
    /// screened.
    pub fn with_screen(&self, tier: ScreenTier) -> MaximusIndex {
        let t = Instant::now();
        let core = Arc::clone(&self.core);
        let gathered: Option<Vec<ItemMirror>> = per_tier!(tier, T => {
            let sides = core.model.mirror::<T>().sides();
            sides.map(|(_, items)| {
                let lists = core.clusters.iter().map(|c| c.list_ids[c.start..].iter());
                lists
                    .map(|ids| items.gather(ids.map(|&i| i as usize)).into())
                    .collect()
            })
        });
        let (mirrors, screen) = match gathered {
            Some(mirrors) => (mirrors, Some(tier)),
            None => (self.mirrors.clone(), self.screen),
        };
        MaximusIndex::over(core, mirrors, screen, t.elapsed().as_secs_f64())
    }

    /// The armed screen tier, if any.
    pub fn screen(&self) -> Option<ScreenTier> {
        self.screen
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
    /// positions to item ids by [`ColumnIds::Mapped`].
    fn serve_cluster(
        &self,
        c: usize,
        group: &[(usize, usize)],
        k: usize,
        scratch: &mut GemmScratch<f64>,
        out: &mut [TopKList],
    ) {
        let model = &self.core.model;
        let cluster = &self.core.clusters[c];
        let n_items = cluster.list_ids.len();
        let block = cluster.start;

        let mut heaps: Vec<TopKHeap> = group.iter().map(|_| TopKHeap::new(k)).collect();
        if block > 0 {
            let users: Vec<usize> = group.iter().map(|&(_, u)| u).collect();
            let gathered = model.users().gather_rows(&users);
            let panels = cluster.block_panels.get_or_init(|| {
                PackedPanels::gather(model.items().into(), &cluster.list_ids[..block])
            });
            stream_topk_into_heaps(
                (&gathered).into(),
                panels.into(),
                &mut heaps,
                ColumnIds::Mapped(&cluster.list_ids[..block]),
                scratch,
            );
            self.query_stats
                .items_blocked
                .fetch_add((group.len() * block) as u64, Ordering::Relaxed);
        }

        for (mut heap, &(pos, u)) in heaps.into_iter().zip(group) {
            let user = model.users().row(u);
            let unorm = norm2(user);
            // Walk-phase screen state: the user row in the armed tier's
            // storage plus its envelope coefficients. Absent unless a tier
            // is armed; a user row the tier cannot represent walks
            // unscreened — still exact, just unaccelerated.
            let screen = self
                .mirrors
                .get(c)
                .and_then(|mirror| Some((UserScreen::arm(user, mirror.tier())?, mirror)));
            let mut walked = 0u64;
            let mut screen_evaluated = 0u64;
            let mut screened_out = 0u64;
            let mut walk_admitted = false;
            let mut list_pos = block;
            while list_pos < n_items {
                // Early termination: bounds descend, so the first failure
                // covers the whole tail.
                if heap.is_full() && unorm * cluster.bounds[list_pos] < heap.threshold() {
                    break;
                }
                // Mixed-precision screen: when even the envelope-widened
                // screen score sits strictly below the threshold, the exact
                // score does too and its push would be rejected — skipping
                // dot and push leaves the heap trajectory bit-identical.
                if heap.is_full() {
                    if let Some((user_screen, mirror)) = &screen {
                        screen_evaluated += 1;
                        if user_screen.upper_bound(mirror, list_pos - block) < heap.threshold() {
                            screened_out += 1;
                            list_pos += 1;
                            continue;
                        }
                    }
                }
                let score = dot(user, cluster.items.row(list_pos - block));
                walk_admitted |= heap.push(score, cluster.list_ids[list_pos]);
                walked += 1;
                list_pos += 1;
            }
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
            // Heaps fed only by the blocked prefix already hold canonical
            // (GEMM-kernel) scores; only a heap a walk-scored (`dot`) item
            // made it into needs the canonicalizing pass.
            out[pos] = if walk_admitted {
                canonicalize(heap.into_sorted(), user, model.items())
            } else {
                heap.into_sorted()
            };
        }
    }

    /// Serves an ad-hoc user vector that was *not* part of the clustered set
    /// (§III-E dynamic users): assigns it to the nearest centroid and walks
    /// that cluster's list with a per-item bound widened to the user's own
    /// angle when it exceeds θ_b.
    ///
    /// List order no longer matches the widened bound, so pruning skips
    /// items without early exit — still exact, usually still far fewer dots
    /// than brute force.
    pub fn query_new_vector(&self, user: &[f64], k: usize) -> TopKList {
        let core = &*self.core;
        assert_eq!(
            user.len(),
            core.model.num_factors(),
            "MaximusIndex: user dimensionality mismatch"
        );
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
        let mut heap = TopKHeap::new(k);
        if theta_uc <= cluster.theta_b {
            // Covered by the stored bounds: normal walk with early exit.
            for (pos, &id) in cluster.list_ids.iter().enumerate() {
                if heap.is_full() && unorm * cluster.bounds[pos] < heap.threshold() {
                    break;
                }
                heap.push(dot(user, cluster.item_row(items, pos)), id);
            }
        } else {
            for (pos, &id) in cluster.list_ids.iter().enumerate() {
                if heap.is_full() {
                    let b = stored_bound(cluster.norms[pos], cluster.theta_ic[pos], theta_uc);
                    if unorm * b < heap.threshold() {
                        continue; // no early exit: order is stale for θ_uc
                    }
                }
                heap.push(dot(user, cluster.item_row(items, pos)), id);
            }
        }
        canonicalize(heap.into_sorted(), user, items)
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
        crate::precision::Precision::of_tier(self.screen)
    }

    fn screen_tiers(&self) -> &[ScreenTier] {
        &ScreenTier::ALL
    }

    fn screen_variant(&self, tier: ScreenTier) -> Option<Box<dyn MipsSolver>> {
        Some(Box::new(self.with_screen(tier)))
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
            let mut scratch = GemmScratch::new();
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
        let mut scratch = GemmScratch::new();
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
            item_blocking: true,
            seed: 7,
        }
    }

    #[test]
    fn clustered_users_get_bmm_answers_with_and_without_item_blocking() {
        let m = model(50, 200, 12, 0.4);
        let bmm = BmmSolver::build(Arc::clone(&m));
        for item_blocking in [true, false] {
            let config = MaximusConfig {
                item_blocking,
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
    fn screened_walk_is_bit_identical_and_prunes() {
        use crate::precision::Precision;
        // Small block size pushes most of the work into the walk phase,
        // where the screen operates.
        let m = model(60, 500, 16, 0.4);
        let config = MaximusConfig {
            block_size: 8,
            ..small_config()
        };
        let plain = MaximusIndex::build(Arc::clone(&m), &config);
        assert_eq!(plain.screen(), None);
        for tier in ScreenTier::ALL {
            let screened = plain.with_screen(tier);
            assert!(
                Arc::ptr_eq(&screened.core, &plain.core),
                "construction is shared"
            );
            assert_eq!(screened.screen(), Some(tier));
            assert_eq!(screened.name(), format!("Maximus{}", tier.suffix()));
            assert_eq!(screened.precision(), Precision::of_tier(Some(tier)));
            for k in [1usize, 5, 20] {
                let want = plain.query_all(k);
                let got = screened.query_all(k);
                for u in 0..m.num_users() {
                    assert_eq!(got[u].items, want[u].items, "{tier:?} k={k} user {u}");
                    for (a, b) in got[u].scores.iter().zip(&want[u].scores) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} k={k} user {u}");
                    }
                }
            }
            let stats = screened.query_stats();
            assert!(
                stats.items_screen_pruned.load(Ordering::Relaxed) > 0,
                "{tier:?} screen never engaged on a walk-dominated configuration"
            );
            // Screened items reduce walked dots relative to the plain index.
            assert!(
                stats.items_walked.load(Ordering::Relaxed)
                    < plain.query_stats().items_walked.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn a_variant_carries_one_tier_and_a_degenerate_request_changes_nothing() {
        use crate::precision::Precision;
        let tiers = |index: &MaximusIndex| -> Vec<ScreenTier> {
            index.mirrors.iter().map(ItemMirror::tier).collect()
        };
        let plain = MaximusIndex::build(model(30, 80, 6, 0.4), &small_config());
        let index = plain
            .with_screen(ScreenTier::F32)
            .with_screen(ScreenTier::I8);
        assert_eq!(index.name(), "Maximus+i8");
        // One mirror per cluster, in the newly armed tier: the f32 rows are
        // not resident next to the int8 codes.
        assert_eq!(tiers(&index), vec![ScreenTier::I8; 4]);
        assert!(
            tiers(&plain).is_empty(),
            "deriving a variant leaves the base plain"
        );

        // Subnormal item rows cannot be quantized: the int8 request is
        // refused and the index keeps the identity it had.
        let degenerate = Arc::new(
            MfModel::new(
                "subnormal",
                Matrix::from_fn(6, 4, |r, c| ((r + c) as f64 + 1.0) * 1.0e-320),
                Matrix::from_fn(12, 4, |r, c| ((r * c) as f64 + 1.0) * 1.0e-320),
            )
            .unwrap(),
        );
        let plain = MaximusIndex::build(degenerate, &small_config());
        let index = plain.with_screen(ScreenTier::I8);
        assert_eq!(
            (index.name(), index.precision()),
            ("Maximus", Precision::F64)
        );
        let index = plain
            .with_screen(ScreenTier::F32)
            .with_screen(ScreenTier::I8);
        assert_eq!(
            (index.name(), index.precision()),
            ("Maximus+f32", Precision::F32Rescore)
        );
        assert_eq!(tiers(&index), vec![ScreenTier::F32; 4]);
    }

    #[test]
    fn clusters_gather_only_the_walked_suffix() {
        // Each cluster's gathered copy holds list positions `start..` in
        // list order; the blocked prefix lives only in its packed panels.
        // The Fig. 8 lesion blocks nothing, so it gathers the whole list.
        let m = model(40, 90, 8, 0.4);
        for (item_blocking, block_size, start) in [(true, 16, 16), (true, 500, 90), (false, 16, 0)]
        {
            let config = MaximusConfig {
                item_blocking,
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
    fn cluster_mirrors_are_gathered_in_list_order() {
        // A cluster's mirror, gathered from the model's, is row-aligned
        // with the cluster's walked rows: row `r` is list position
        // `start + r`, and it bounds exactly like a mirror built from the
        // model's rows at those positions.
        let m = model(40, 90, 8, 0.4);
        let plain = MaximusIndex::build(Arc::clone(&m), &small_config());
        for tier in ScreenTier::ALL {
            let screened = plain.with_screen(tier);
            let screen = UserScreen::arm(m.users().row(3), tier).unwrap();
            for (cluster, mirror) in plain.core.clusters.iter().zip(&screened.mirrors) {
                let walked: Vec<usize> = cluster.list_ids[cluster.start..]
                    .iter()
                    .map(|&id| id as usize)
                    .collect();
                let rebuilt = ItemMirror::build(&m.items().gather_rows(&walked), tier).unwrap();
                for r in 0..walked.len() {
                    assert_eq!(
                        screen.upper_bound(mirror, r).to_bits(),
                        screen.upper_bound(&rebuilt, r).to_bits(),
                        "{tier:?} list position {}",
                        cluster.start + r
                    );
                }
            }
        }
    }

    #[test]
    fn the_blocked_prefix_is_packed_once_per_cluster_and_shared_by_variants() {
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
        // A variant derived afterwards multiplies against the very same
        // panels, and a second pass repacks nothing.
        let screened = plain.with_screen(ScreenTier::I8);
        assert_eq!(screened.query_all(5), all);
        assert_eq!(plain.query_all(5), all);
        assert_eq!(packed(&screened), after_all);
        assert_eq!(packed(&plain), after_all);
        // The panels hold the list prefix the rows hold: the lesion index
        // (no blocking, so no panels) answers the same.
        let unblocked = MaximusConfig {
            item_blocking: false,
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
