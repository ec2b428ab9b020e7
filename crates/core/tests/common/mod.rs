//! The core test kit: one seeded corpus family and one driver that referees
//! every backend against the oracle, [`mips_topk::exact_topk`].
//!
//! The contract is README "Adding a backend" step 1: whatever backend and
//! numeric path serves, the answer is the oracle's — the same ids and the
//! same score bits. [`drive`] checks it for every key of
//! [`BackendRegistry::with_defaults`] plus small-structure MAXIMUS and LEMP
//! configurations, in f64 and in every tier each solver's `screen_tiers()`
//! lists, through `query_all`, a reversed `query_subset` and (where offered)
//! `query_vector`. A backend added to `with_defaults`, or a tier added to a
//! solver's `screen_tiers()`, is covered with no edit here. A suite
//! includes the kit with `mod common;` and uses the part it needs.

#![allow(dead_code)]

use mips_core::engine::{BackendRegistry, LempFactory, MaximusFactory, SolverFactory};
use mips_core::maximus::MaximusConfig;
use mips_core::solver::MipsSolver;
use mips_core::verify::check_user_topk;
use mips_data::MfModel;
use mips_lemp::LempConfig;
use mips_linalg::Matrix;
use mips_topk::{exact_topk, TopKList};
use std::sync::Arc;

/// A seeded linear congruential generator: every corpus draws from one.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// The next draw, uniform in `[0, 1)`.
    pub fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benign corpus shapes: on each, every backend must return the
/// oracle's ids and score bits.
#[derive(Clone, Copy, Debug)]
pub enum Corpus {
    /// Uniform in `[-2, 2)`: continuous scores, no ties.
    Random,
    /// Coordinates in `{-1, 0, 1}`: exact ties everywhere, all-zero rows
    /// included, so the smaller-id rule decides.
    Tied,
    /// Multiples of 1/8 in `[-2, 2)`: every dot is exact in any
    /// accumulation order, so ties are exact ties on every path.
    Eighths,
    /// Uniform users; items uniform in direction with norms spread over
    /// 2⁻³..2³ (powers of two, so the scaling is exact) — the shape LEMP's
    /// buckets and the length bounds prune on.
    Skewed,
}

/// A `users × items × f` model of `corpus`, seeded.
pub fn model(corpus: Corpus, users: usize, items: usize, f: usize, seed: u64) -> Arc<MfModel> {
    let mut rng = Lcg::new(seed);
    let mut draw = |row_scale: f64| match corpus {
        Corpus::Random => rng.next() * 4.0 - 2.0,
        Corpus::Tied => (rng.next() * 3.0).floor() - 1.0,
        Corpus::Eighths => ((rng.next() * 32.0).floor() - 16.0) / 8.0,
        Corpus::Skewed => (rng.next() * 4.0 - 2.0) * row_scale,
    };
    let user_rows = Matrix::from_fn(users, f, |_, _| draw(1.0));
    let item_rows = Matrix::from_fn(items, f, |r, _| draw(2f64.powi((r % 7) as i32 - 3)));
    Arc::new(MfModel::new(format!("{corpus:?}"), user_rows, item_rows).unwrap())
}

/// A corpus built to break an unsound screen in either tier, with `n`
/// items per regime; the user rows mirror the regimes so every (user,
/// item) pairing crosses magnitudes. Its near-ties sit below the `dot`
/// ulp, so a scan that selects with `dot` may pick the other item of such
/// a pair at the k-th place — refereed with [`Bar::Membership`].
pub fn adversarial(n: usize, f: usize) -> Arc<MfModel> {
    let mut rng = Lcg::new(0xDEAD_BEEF);
    let mut next = move || rng.next() * 2.0 - 1.0;
    // A shared base direction, so regime 0/1 items are near-ties against
    // every user.
    let base: Vec<f64> = (0..f).map(|_| next()).collect();
    let items = Matrix::from_fn(5 * n, f, |r, c| {
        let (regime, jitter) = (r / n, next());
        match regime {
            // Near-ties: perturbations ~1e-13, below f32 resolution and far
            // below the ~1/254 int8 step — only the envelope keeps the true
            // winners alive for the f64 rescore.
            0 => base[c] + jitter * 1e-13,
            // Exact duplicates of one vector: ties broken by item id.
            1 => base[c],
            // Large magnitude: f32 products near 1e16, int8 scales near
            // 127/1e8 — the envelopes must absorb errors of ~1e6.
            2 => jitter * 1e8,
            // Tiny magnitude: f32 products underflow to zero, int8 scales
            // near 127/1e-30 — the envelopes' absolute and 1/s terms must
            // stay finite and conservative.
            3 => jitter * 1e-30,
            // Near-cancellation: huge alternating entries whose dot nearly
            // cancels, so the screen learns nothing and rescores everything.
            _ => {
                if c % 2 == 0 {
                    1e6 + jitter
                } else {
                    -1e6 + jitter
                }
            }
        }
    });
    let users = Matrix::from_fn(8, f, |r, c| match r % 4 {
        0 => base[c] + next() * 1e-13,
        1 => next() * 1e8,
        2 => next() * 1e-30,
        _ => next(),
    });
    Arc::new(MfModel::new("adversarial", users, items).unwrap())
}

/// The `k` edges for an `n`-item catalog: none, one, the middle, all, and
/// past the end (solvers clamp to `n`).
pub fn k_edges(n: usize) -> Vec<usize> {
    let mut edges = vec![0, 1, (n / 2).max(1), n, n + 3];
    edges.dedup();
    edges
}

/// Lists as comparable `(ids, score bits)` rows: `f64` equality would
/// accept `-0.0 == 0.0`; the contract is bits.
pub fn bits(lists: &[TopKList]) -> Vec<(Vec<u32>, Vec<u64>)> {
    let row = |l: &TopKList| {
        (
            l.items.clone(),
            l.scores.iter().map(|s| s.to_bits()).collect(),
        )
    };
    lists.iter().map(row).collect()
}

/// The oracle's answer for every user of `model` at `k`.
pub fn oracle(model: &MfModel, k: usize) -> Vec<TopKList> {
    let items = model.items();
    let users = model.users();
    (0..model.num_users())
        .map(|u| exact_topk(users.row(u), items, k))
        .collect()
}

/// Every backend the driver referees, labelled: each key of
/// [`BackendRegistry::with_defaults`], plus a MAXIMUS whose small blocks
/// leave most of each list to the walk, one with the §III-D blocking off,
/// and a LEMP with many small buckets.
pub fn backends() -> Vec<(String, Arc<dyn SolverFactory>)> {
    let registry = BackendRegistry::with_defaults();
    let mut all: Vec<(String, Arc<dyn SolverFactory>)> = registry
        .factories()
        .iter()
        .map(|f| (f.key().to_string(), Arc::clone(f)))
        .collect();
    let maximus = |block_size, item_blocking, seed| {
        Arc::new(MaximusFactory::new(MaximusConfig {
            num_clusters: 3,
            kmeans_iters: 2,
            block_size,
            item_blocking,
            seed,
        }))
    };
    all.push(("maximus, B = 8".into(), maximus(8, true, 5)));
    all.push(("maximus, unblocked".into(), maximus(4, false, 6)));
    let lemp = LempFactory::new(LempConfig {
        bucket_size: 8,
        tune_sample: 2,
        ..LempConfig::default()
    });
    all.push(("lemp, buckets of 8".into(), Arc::new(lemp)));
    all
}

/// What an answer is held to.
#[derive(Clone, Copy, Debug)]
pub enum Bar {
    /// The oracle's ids and score bits.
    Oracle,
    /// Canonical score bits, and [`check_user_topk`] at this tolerance for
    /// which items make the k-th place — the bar for corpora whose
    /// near-ties sit below the `dot` ulp.
    Membership(f64),
}

/// Backends the driver leaves out on `model`, named so a skip is visible
/// in the code that makes it: FEXIPRO's SVD over 600 factors takes minutes
/// in an unoptimized build, so the widest corpus runs without it there.
fn skipped(label: &str, model: &MfModel) -> bool {
    cfg!(debug_assertions) && label.starts_with("fexipro") && model.num_factors() >= 600
}

/// Referees every backend of [`backends`] on `model` at each of `ks`.
///
/// Each solver — the plain build and every variant its `screen_tiers()`
/// lists — answers through `query_all`; its reversed `query_subset` and
/// its `query_vector` of each user row (where offered) must repeat that
/// answer bit for bit, every variant must repeat its plain build's, and
/// the plain build's must meet `bar`. Returns the first failure,
/// labelled with the backend, the tier, `k` and the user.
pub fn drive(model: &Arc<MfModel>, ks: &[usize], bar: Bar) -> Result<(), String> {
    let oracles: Vec<Vec<TopKList>> = ks.iter().map(|&k| oracle(model, k)).collect();
    for (label, factory) in backends() {
        if !skipped(&label, model) {
            drive_one(&label, factory.as_ref(), model, ks, &oracles, bar)?;
        }
    }
    Ok(())
}

/// [`drive`] for one backend, e.g. a structure configuration a property
/// test draws: `oracles[i]` is [`oracle`]'s answer at `ks[i]`.
pub fn drive_one(
    label: &str,
    factory: &dyn SolverFactory,
    model: &Arc<MfModel>,
    ks: &[usize],
    oracles: &[Vec<TopKList>],
    bar: Bar,
) -> Result<(), String> {
    let plain = factory
        .build(model)
        .map_err(|e| format!("{label}: build failed: {e}"))?;
    let variants: Vec<(String, Box<dyn MipsSolver>)> = plain
        .screen_tiers()
        .iter()
        .filter_map(|&tier| {
            let variant = plain.screen_variant(tier)?;
            Some((format!("{label}{}", tier.suffix()), variant))
        })
        .collect();
    for (&k, want) in ks.iter().zip(oracles) {
        let served = answers(plain.as_ref(), model, k).map_err(|e| format!("{label} {e}"))?;
        referee(model, k, &served, want, bar).map_err(|e| format!("{label} k={k}: {e}"))?;
        for (name, variant) in &variants {
            let got = answers(variant.as_ref(), model, k).map_err(|e| format!("{name} {e}"))?;
            if bits(&got) != bits(&served) {
                return Err(format!("{name} k={k}: differs from its f64 build"));
            }
        }
    }
    Ok(())
}

/// `solver`'s `query_all` answer at `k`, after checking that its other
/// routes repeat it.
fn answers(solver: &dyn MipsSolver, model: &MfModel, k: usize) -> Result<Vec<TopKList>, String> {
    let all = solver.query_all(k);
    let reversed: Vec<usize> = (0..model.num_users()).rev().collect();
    let mut subset = solver.query_subset(k, &reversed);
    subset.reverse();
    if bits(&subset) != bits(&all) {
        return Err(format!("k={k}: query_subset differs from query_all"));
    }
    for (u, list) in all.iter().enumerate() {
        if let Some(point) = solver.query_vector(model.users().row(u), k) {
            if bits(&[point]) != bits(std::slice::from_ref(list)) {
                return Err(format!(
                    "k={k} user {u}: query_vector differs from query_all"
                ));
            }
        }
    }
    Ok(all)
}

/// Holds one solver's answers to `bar`.
fn referee(
    model: &MfModel,
    k: usize,
    got: &[TopKList],
    oracle: &[TopKList],
    bar: Bar,
) -> Result<(), String> {
    for (u, (got, want)) in got.iter().zip(oracle).enumerate() {
        match bar {
            Bar::Oracle => {
                if bits(std::slice::from_ref(got)) != bits(std::slice::from_ref(want)) {
                    return Err(format!("user {u}: got {got:?}, the oracle has {want:?}"));
                }
            }
            Bar::Membership(tol) => check_user_topk(model, u, k, got, tol)?,
        }
    }
    Ok(())
}
