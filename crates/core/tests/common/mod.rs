//! The core test kit: one seeded corpus family and one driver that referees
//! every backend, on every route an answer can take, against the oracle,
//! [`mips_topk::exact_topk`].
//!
//! The contract is README "Adding a backend" step 1: whatever backend,
//! numeric path and route serves, the answer is the oracle's — the same ids
//! and the same score bits. [`drive`] checks it for every built-in key
//! ([`BUILTIN_KEYS`], raced or named) plus small-structure MAXIMUS and LEMP
//! configurations, on each [`Route`] it is given: the solver itself (in f64
//! and every tier its `screen_tiers()` lists), named and planned dispatch
//! through an [`Engine`] under every [`Precision`], a sharded
//! `MipsServer`, and `POST /query` on a loopback `HttpServer`. A
//! backend added to `BUILTIN_KEYS`, or a tier added to a solver's
//! `screen_tiers()` or to [`ScreenTier::ALL`], is covered with no edit
//! here. A suite includes the kit with `mod common;` and uses the part it
//! needs.

#![allow(dead_code)]

use mips_core::engine::{
    builtin, Engine, EngineBuilder, LempFactory, MaximusFactory, QueryRequest, QueryResponse,
    SolverFactory, UserSelection, BUILTIN_KEYS,
};
use mips_core::maximus::MaximusConfig;
use mips_core::precision::Precision;
use mips_core::serve::ServerBuilder;
use mips_core::solver::MipsSolver;
use mips_data::MfModel;
use mips_lemp::LempConfig;
use mips_linalg::kernels::{dot, dot_gemm_ordered};
use mips_linalg::Matrix;
use mips_net::client::Client;
use mips_net::json::{self, Json};
use mips_net::HttpServerBuilder;
use mips_topk::{exact_topk, ScreenTier, TopKList};
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
    /// Random, with every third user and item row all zero: whole rows of
    /// exact-zero scores, ordered by item id alone.
    ZeroRows,
    /// Random, with every third user and item row scaled to subnormals: the
    /// int8 scales overflow, so the int8 mirror is unusable and a forced
    /// int8 tier must serve f64-direct.
    Subnormal,
}

impl Corpus {
    /// Every corpus shape.
    pub const ALL: [Corpus; 6] = [
        Corpus::Random,
        Corpus::Tied,
        Corpus::Eighths,
        Corpus::Skewed,
        Corpus::ZeroRows,
        Corpus::Subnormal,
    ];
}

/// A `users × items × f` model of `corpus`, seeded.
pub fn model(corpus: Corpus, users: usize, items: usize, f: usize, seed: u64) -> Arc<MfModel> {
    let mut rng = Lcg::new(seed);
    // Row `r`'s scale on the item (`true`) or user side.
    let row_scale = |r: usize, item: bool| match corpus {
        Corpus::Skewed if item => 2f64.powi((r % 7) as i32 - 3),
        Corpus::ZeroRows if r % 3 == 0 => 0.0,
        Corpus::Subnormal if r % 3 == 0 => 1e-310,
        _ => 1.0,
    };
    let mut draw = |scale: f64| match corpus {
        Corpus::Tied => (rng.next() * 3.0).floor() - 1.0,
        Corpus::Eighths => ((rng.next() * 32.0).floor() - 16.0) / 8.0,
        _ if scale == 0.0 => 0.0,
        _ => (rng.next() * 4.0 - 2.0) * scale,
    };
    let user_rows = Matrix::from_fn(users, f, |r, _| draw(row_scale(r, false)));
    let item_rows = Matrix::from_fn(items, f, |r, _| draw(row_scale(r, true)));
    Arc::new(MfModel::new(format!("{corpus:?}"), user_rows, item_rows).unwrap())
}

/// A corpus built to break an unsound screen in either tier, with `n`
/// items per regime; the user rows mirror the regimes so every (user,
/// item) pairing crosses magnitudes, and its near-ties sit below the `dot`
/// ulp.
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

/// A one-user, eight-item model on which the four-lane `dot` and the chain
/// order the top two items differently, so a scan that decides the k-th
/// place in `dot`'s rounding returns the wrong k = 1 item. Items 1 (A) and
/// 4 (B) lean on the user; one coordinate of B is solved so that B's score
/// ties A's, then walked by ulps until `dot` strictly prefers one of the
/// two and the chain the other. The other six items score far below. A
/// seed whose walk finds no split moves on to the next seed. Below four
/// factors `dot` is the chain, so `f` must be at least 4.
pub fn split(f: usize, seed: u64) -> Arc<MfModel> {
    assert!(f >= 4, "split: below four factors `dot` is the chain");
    for seed in seed.. {
        let mut rng = Lcg::new(seed);
        let mut next = move || rng.next() * 2.0 - 1.0;
        let user: Vec<f64> = (0..f).map(|_| next()).collect();
        let a: Vec<f64> = user.iter().map(|&u| u + 0.5 * next()).collect();
        let mut b: Vec<f64> = user.iter().map(|&u| u + 0.5 * next()).collect();
        let target = dot_gemm_ordered(&user, &a);
        let c = (0..f)
            .max_by(|&i, &j| user[i].abs().total_cmp(&user[j].abs()))
            .expect("f ≥ 4");
        let rest: f64 = (0..f).filter(|&j| j != c).map(|j| user[j] * b[j]).sum();
        let tie = (target - rest) / user[c];
        let found = (0..400i64).flat_map(|step| [step, -step]).any(|step| {
            b[c] = f64::from_bits((tie.to_bits() as i64 + step) as u64);
            let (da, db) = (dot(&user, &a), dot(&user, &b));
            let (ca, cb) = (dot_gemm_ordered(&user, &a), dot_gemm_ordered(&user, &b));
            // `dot` strictly prefers one item where the heap, by the chain
            // (ties to the smaller id, A), ranks the other first.
            da != db && (da > db) != (ca >= cb)
        });
        if !found || target <= 0.0 {
            continue;
        }
        let items = Matrix::from_fn(8, f, |r, col| match r {
            1 => a[col],
            4 => b[col],
            _ => -(1.0 + r as f64 / 4.0) * a[col] + 0.01 * next(),
        });
        let users = Matrix::from_vec(1, f, user).unwrap();
        return Arc::new(MfModel::new(format!("split {seed}"), users, items).unwrap());
    }
    unreachable!("the seed range is unbounded")
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
/// [`BUILTIN_KEYS`], plus a MAXIMUS whose small blocks
/// leave most of each list to the walk, one with the §III-D blocking off,
/// and a LEMP with many small buckets.
pub fn backends() -> Vec<(String, Arc<dyn SolverFactory>)> {
    let mut all: Vec<(String, Arc<dyn SolverFactory>)> = BUILTIN_KEYS
        .iter()
        .map(|&key| (key.to_string(), builtin(key).expect("a built-in key")))
        .collect();
    let maximus = |block_size, seed| {
        Arc::new(MaximusFactory::new(MaximusConfig {
            num_clusters: 3,
            kmeans_iters: 2,
            block_size,
            seed,
        }))
    };
    all.push(("maximus, B = 8".into(), maximus(8, 5)));
    all.push(("maximus, unblocked".into(), maximus(0, 6)));
    let lemp = LempFactory::new(LempConfig {
        bucket_size: 8,
        tune_sample: 2,
        ..LempConfig::default()
    });
    all.push(("lemp, buckets of 8".into(), Arc::new(lemp)));
    all
}

/// Backends the driver leaves out on `model`, named so a skip is visible
/// in the code that makes it: FEXIPRO's SVD over 600 factors takes minutes
/// in an unoptimized build, so the widest corpus runs without it there.
fn skipped(label: &str, model: &MfModel) -> bool {
    cfg!(debug_assertions) && label.starts_with("fexipro") && model.num_factors() >= 600
}

/// A way an answer reaches its caller; [`drive`] checks the routes it is
/// given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The built solver: `query_all`, a reversed `query_subset` and (where
    /// offered) `query_vector`, in f64 and in every tier its
    /// `screen_tiers()` lists.
    Solver,
    /// [`Engine::execute_with`] by key under each [`Precision`], at 1 and 2
    /// engine threads.
    Named,
    /// [`Engine::execute`] under [`Precision::Auto`], at 1 and 2 engine
    /// threads: whichever of the backend's builds the planner picks.
    Planned,
    /// A `MipsServer` over 2 shards and 2 workers under each
    /// [`Precision`].
    Served,
    /// `POST /query` to a loopback `HttpServer` over the `Served` server,
    /// the JSON scores parsed back to bits.
    Wire,
}

impl Route {
    /// Every route.
    pub const ALL: [Route; 5] = [
        Route::Solver,
        Route::Named,
        Route::Planned,
        Route::Served,
        Route::Wire,
    ];
}

/// Referees every backend of [`backends`] on `model` at each of `ks`, on
/// each of `routes`. Returns the first failure, labelled with the backend,
/// the route, the precision or tier, `k`, the user selection and the user.
pub fn drive(model: &Arc<MfModel>, ks: &[usize], routes: &[Route]) -> Result<(), String> {
    let oracles: Vec<Vec<TopKList>> = ks.iter().map(|&k| oracle(model, k)).collect();
    for (label, factory) in backends() {
        if !skipped(&label, model) {
            drive_one(&label, &factory, model, ks, &oracles, routes)?;
        }
    }
    Ok(())
}

/// [`drive`] for one backend, e.g. a structure configuration a property
/// test draws: `oracles[i]` is [`oracle`]'s answer at `ks[i]`. The engine
/// routes take the `ks` in `1..=items` (any other `k` is a typed error
/// there).
pub fn drive_one(
    label: &str,
    factory: &Arc<dyn SolverFactory>,
    model: &Arc<MfModel>,
    ks: &[usize],
    oracles: &[Vec<TopKList>],
    routes: &[Route],
) -> Result<(), String> {
    if routes.contains(&Route::Solver) {
        drive_solver(label, factory.as_ref(), model, ks, oracles)?;
    }
    if routes.iter().any(|&route| route != Route::Solver) {
        drive_engine(label, factory, model, ks, oracles, routes)?;
    }
    Ok(())
}

/// The [`Route::Solver`] leg: the plain build and every variant its
/// `screen_tiers()` lists answer through `query_all`; each one's other
/// query paths must repeat that answer bit for bit, every variant must
/// repeat its plain build's, and the plain build's must be the oracle's.
fn drive_solver(
    label: &str,
    factory: &dyn SolverFactory,
    model: &Arc<MfModel>,
    ks: &[usize],
    oracles: &[Vec<TopKList>],
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
        for (name, variant) in &variants {
            let got = answers(variant.as_ref(), model, k).map_err(|e| format!("{name} {e}"))?;
            if bits(&got) != bits(&served) {
                return Err(format!("{name} k={k}: differs from its f64 build"));
            }
        }
        check(label, model, &QueryRequest::top_k(k), want, Ok(served))?;
    }
    Ok(())
}

/// Every [`Precision`] an engine can run under: f64, each screen tier
/// forced, and `Auto`.
fn precisions() -> Vec<Precision> {
    let tiers = ScreenTier::ALL.map(Some);
    std::iter::once(None)
        .chain(tiers)
        .map(Precision::of_tier)
        .chain([Precision::Auto])
        .collect()
}

/// The user selections the engine routes serve out of `n` users: every
/// user, a range across the 2-shard split, and an out-of-order id list
/// with a repeat.
fn selections(n: usize) -> [UserSelection; 3] {
    [
        UserSelection::All,
        UserSelection::Range(n / 3..n),
        UserSelection::Ids(vec![n - 1, 0, n / 2, n - 1]),
    ]
}

/// The engine legs — [`Route::Named`], [`Route::Planned`],
/// [`Route::Served`] and [`Route::Wire`], whichever `routes` lists — over
/// an engine holding `factory` alone, under every [`precisions`] entry.
fn drive_engine(
    label: &str,
    factory: &Arc<dyn SolverFactory>,
    model: &Arc<MfModel>,
    ks: &[usize],
    oracles: &[Vec<TopKList>],
    routes: &[Route],
) -> Result<(), String> {
    let on = |route| routes.contains(&route);
    let requests: Vec<(QueryRequest, &[TopKList])> = ks
        .iter()
        .zip(oracles)
        .filter(|(&k, _)| (1..=model.num_items()).contains(&k))
        .flat_map(|(&k, want)| {
            selections(model.num_users()).map(|users| {
                let request = QueryRequest {
                    k,
                    users,
                    exclude: None,
                };
                (request, want.as_slice())
            })
        })
        .collect();
    for precision in precisions() {
        for threads in [1, 2] {
            let engine = EngineBuilder::new()
                .model(Arc::clone(model))
                .register_arc(Arc::clone(factory))
                .precision(precision)
                .threads(threads)
                .build()
                .map_err(|e| format!("{label}: engine: {e}"))?;
            let at = format!("{label} under {precision} at {threads} threads");
            for (request, want) in &requests {
                if on(Route::Named) {
                    let got = results(engine.execute_with(factory.key(), request));
                    check(&format!("{at}, named"), model, request, want, got)?;
                }
                if on(Route::Planned) && precision == Precision::Auto {
                    let got = results(engine.execute(request));
                    check(&format!("{at}, planned"), model, request, want, got)?;
                }
            }
            if threads == 1 && (on(Route::Served) || on(Route::Wire)) {
                let at = format!("{label} under {precision}");
                drive_server(&at, Arc::new(engine), model, &requests, routes)?;
            }
        }
    }
    Ok(())
}

/// The [`Route::Served`] and [`Route::Wire`] legs over one engine.
fn drive_server(
    at: &str,
    engine: Arc<Engine>,
    model: &MfModel,
    requests: &[(QueryRequest, &[TopKList])],
    routes: &[Route],
) -> Result<(), String> {
    let server = Arc::new(
        ServerBuilder::new()
            .engine(engine)
            .shards(2)
            .workers(2)
            .build()
            .map_err(|e| format!("{at}: server: {e}"))?,
    );
    let mut front = routes.contains(&Route::Wire).then(|| {
        let http = HttpServerBuilder::new().server(Arc::clone(&server));
        let http = http.build().expect("a loopback front door");
        let client = Client::connect(http.local_addr()).expect("a loopback connection");
        (http, client)
    });
    for (request, want) in requests {
        if routes.contains(&Route::Served) {
            let got = results(server.execute(request));
            check(&format!("{at}, served"), model, request, want, got)?;
        }
        if let Some((_, client)) = front.as_mut() {
            let got = wire(client, request);
            check(&format!("{at}, wire"), model, request, want, got)?;
        }
    }
    if let Some((http, _)) = front {
        http.shutdown().expect("the front door drains");
    }
    Ok(())
}

/// A route's response as its result lists.
fn results(
    response: Result<QueryResponse, mips_core::engine::MipsError>,
) -> Result<Vec<TopKList>, String> {
    response.map(|r| r.results).map_err(|e| e.to_string())
}

/// `request` as `POST /query` on `client`, with the answer's JSON scores
/// parsed back to `f64`s.
fn wire(client: &mut Client, request: &QueryRequest) -> Result<Vec<TopKList>, String> {
    let users = match &request.users {
        UserSelection::All => String::new(),
        UserSelection::Range(r) => format!(", \"users\": {{\"range\": [{}, {}]}}", r.start, r.end),
        UserSelection::Ids(ids) => format!(", \"users\": {ids:?}"),
    };
    let body = format!("{{\"k\": {}{users}}}", request.k);
    let response = client
        .request("POST", "/query", Some(&body))
        .map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.body));
    }
    let doc = json::parse(&response.body)?;
    let numbers = |row: &Json, key: &str| -> Vec<f64> {
        let values = row.get(key).and_then(Json::as_arr).unwrap_or_default();
        values.iter().filter_map(Json::as_num).collect()
    };
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let list = |row: &Json| TopKList {
        items: numbers(row, "items")
            .into_iter()
            .map(|i| i as u32)
            .collect(),
        scores: numbers(row, "scores"),
    };
    Ok(rows.iter().map(list).collect())
}

/// `solver`'s `query_all` answer at `k`, after checking that its other
/// query paths repeat it.
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

/// Holds one route's answer to `request` to the oracle's ids and score
/// bits: `oracle` is the oracle's answer for every user at `request.k`.
fn check(
    what: &str,
    model: &MfModel,
    request: &QueryRequest,
    oracle: &[TopKList],
    got: Result<Vec<TopKList>, String>,
) -> Result<(), String> {
    let k = request.k;
    let fail = |e: String| format!("{what} k={k} {:?}: {e}", request.users);
    let got = got.map_err(fail)?;
    let users: Vec<usize> = match &request.users {
        UserSelection::All => (0..model.num_users()).collect(),
        UserSelection::Range(r) => r.clone().collect(),
        UserSelection::Ids(ids) => ids.clone(),
    };
    if got.len() != users.len() {
        return Err(fail(format!(
            "{} lists for {} users",
            got.len(),
            users.len()
        )));
    }
    for (got, &u) in got.iter().zip(&users) {
        let want = &oracle[u];
        if bits(std::slice::from_ref(got)) != bits(std::slice::from_ref(want)) {
            let e = format!("user {u}: got {got:?}, the oracle has {want:?}");
            return Err(fail(e));
        }
    }
    Ok(())
}
