//! The staged planning race and the shared-base build contract, pinned with
//! counting stubs.
//!
//! Two properties make "decide before building" safe to rely on:
//!
//! * **Build once.** A backend's plain construction runs once per
//!   `key` and epoch; every screen variant is derived from that
//!   build through [`MipsSolver::screen_variant`] and reports only its own
//!   mirroring as `build_seconds`. Builds run outside every cache lock, so
//!   a slow one never holds up another first-touch builder.
//! * **Race lazily, never wrongly.** [`Optimus::choose`] builds a candidate
//!   only while it can still win: a candidate over its analytical bound is
//!   never built, a far-off one stops at `TTEST_MIN_SAMPLES`, a variant over its
//!   tier-rate bound is never built — and one sitting exactly *at* the
//!   bound still is. A variant that wins the race by less than the
//!   adoption margin hands the plan to its f64 base.
//! * **Race only what is registered.** A built-in key the engine did not
//!   register still serves by name, with the oracle's answer, and never
//!   enters a plan's decision record — on a default engine, every key the
//!   plan census took out of the race, in both traffic classes.
//! * **Price the calls that are served.** A call over `m` users takes the
//!   point plan when `m² < S` (`S` the bulk sample size), else the bulk
//!   plan. The point race times every candidate one user per call; the
//!   bulk race times the reference on the whole sample in one call; each
//!   plan is raced once and then reused by every call of its class.
//!
//! The stubs answer through brute force (so every plan stays exact) and
//! spend a fixed sleep per served user, which makes "10× slower" a property
//! of the stub rather than of the host.

use mips_core::engine::{
    builtin, BackendRegistry, BmmFactory, Engine, EngineBuilder, FnFactory, MipsError,
    QueryRequest, SolverFactory, BUILTIN_KEYS,
};
use mips_core::optimus::{
    CandidateOutcome, CandidateSource, Optimus, OptimusConfig, StrategyEstimate, TrafficClass,
    TTEST_MIN_SAMPLES,
};
use mips_core::serve::ServerBuilder;
use mips_core::solver::MipsSolver;
use mips_core::MaximusIndex;
use mips_core::Precision;
use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use mips_linalg::CacheConfig;
use mips_topk::{exact_topk, ScreenTier, TopKList};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

fn model(users: usize, seed: u64) -> Arc<MfModel> {
    Arc::new(synth_model(&SynthConfig {
        num_users: users,
        num_items: 60,
        num_factors: 8,
        seed,
        ..SynthConfig::default()
    }))
}

/// A 32-user sample on these models (the L2 floor of a 2 KB "L2").
fn tiny_optimus() -> OptimusConfig {
    OptimusConfig {
        sample_fraction: 0.05,
        cache: CacheConfig {
            l1_bytes: 1024,
            l2_bytes: 2048,
            l3_bytes: 4096,
        },
        ..OptimusConfig::default()
    }
}

/// What a stub's construction produced — the thing variants must share.
struct Core {
    answers: MaximusIndex,
}

/// Brute force at a fixed price per served user.
struct Stub {
    core: Arc<Core>,
    name: String,
    per_user: Duration,
    batches: bool,
    tiers: &'static [ScreenTier],
    build_seconds: f64,
    /// A one-off price for each user the stub serves for the first time,
    /// reported as construction: the stub builds per-user state lazily,
    /// as MAXIMUS packs a list segment the first time a pass reaches it.
    first_touch: Duration,
    touched: Mutex<Vec<bool>>,
    /// Nanoseconds spent on first touches so far.
    lazy_nanos: AtomicU64,
    /// Users served, warm-up included.
    served: AtomicUsize,
    /// Counts the variants derived through
    /// [`MipsSolver::screen_variant`]; `None`: the stub has none.
    screens: Option<Arc<AtomicUsize>>,
}

impl Stub {
    fn new(model: &Arc<MfModel>, name: &str, per_user: Duration) -> Stub {
        Stub {
            core: Arc::new(Core {
                answers: MaximusIndex::brute_force(Arc::clone(model)),
            }),
            name: name.to_string(),
            per_user,
            batches: false,
            tiers: &[],
            build_seconds: 0.0,
            first_touch: Duration::ZERO,
            touched: Mutex::new(vec![false; model.num_users()]),
            lazy_nanos: AtomicU64::new(0),
            served: AtomicUsize::new(0),
            screens: None,
        }
    }

    fn pay(&self, users: &[usize]) {
        self.served.fetch_add(users.len(), Ordering::Relaxed);
        if !self.first_touch.is_zero() {
            let mut touched = self.touched.lock().expect("no panic while held");
            let fresh = users
                .iter()
                .filter(|&&u| !std::mem::replace(&mut touched[u], true));
            let started = Instant::now();
            std::thread::sleep(self.first_touch * fresh.count() as u32);
            let nanos = started.elapsed().as_nanos() as u64;
            self.lazy_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
        std::thread::sleep(self.per_user * users.len() as u32);
    }
}

impl MipsSolver for Stub {
    fn name(&self) -> &str {
        &self.name
    }
    fn build_seconds(&self) -> f64 {
        self.build_seconds + self.lazy_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
    fn batches_users(&self) -> bool {
        self.batches
    }
    fn screen_tiers(&self) -> &[ScreenTier] {
        self.tiers
    }
    fn num_users(&self) -> usize {
        self.core.answers.num_users()
    }
    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        self.pay(users);
        self.core.answers.query_subset(k, users)
    }
    fn screen_variant(&self, tier: ScreenTier) -> Option<Box<dyn MipsSolver>> {
        self.screens.as_ref()?.fetch_add(1, Ordering::SeqCst);
        Some(Box::new(Stub {
            core: Arc::clone(&self.core),
            name: format!("{}{}", self.name, tier.suffix()),
            per_user: self.per_user,
            batches: self.batches,
            tiers: self.tiers,
            // Only what the variant added.
            build_seconds: 1e-6,
            first_touch: Duration::ZERO,
            touched: Mutex::new(Vec::new()),
            lazy_nanos: AtomicU64::new(0),
            served: AtomicUsize::new(0),
            screens: None,
        }))
    }
}

/// A hand-assembled candidate source: prebuilt stubs handed out on demand,
/// counting every hand-out.
struct Stubs {
    bases: Vec<(Arc<Stub>, Option<f64>)>,
    /// `(base, tier, time ratio, variant)`.
    variants: Vec<(usize, ScreenTier, f64, Arc<Stub>)>,
    base_builds: Vec<usize>,
    variant_builds: usize,
}

impl Stubs {
    fn new(bases: Vec<(Arc<Stub>, Option<f64>)>) -> Stubs {
        Stubs {
            base_builds: vec![0; bases.len()],
            bases,
            variants: Vec::new(),
            variant_builds: 0,
        }
    }
}

impl CandidateSource for Stubs {
    type Error = std::convert::Infallible;

    fn labels(&self) -> Vec<String> {
        self.bases.iter().map(|(s, _)| s.name.clone()).collect()
    }

    fn analytical_bound(&mut self, base: usize) -> Option<f64> {
        self.bases[base].1
    }

    fn build(&mut self, base: usize) -> Result<Arc<dyn MipsSolver>, Self::Error> {
        self.base_builds[base] += 1;
        Ok(Arc::clone(&self.bases[base].0) as Arc<dyn MipsSolver>)
    }

    fn tier_time_ratio(&mut self, base: usize, tier: ScreenTier) -> Option<f64> {
        let of = |v: &&(usize, ScreenTier, f64, Arc<Stub>)| v.0 == base && v.1 == tier;
        self.variants.iter().find(of).map(|v| v.2)
    }

    fn build_variant(
        &mut self,
        base: usize,
        tier: ScreenTier,
    ) -> Result<Option<Arc<dyn MipsSolver>>, Self::Error> {
        self.variant_builds += 1;
        let of = |v: &&(usize, ScreenTier, f64, Arc<Stub>)| v.0 == base && v.1 == tier;
        let variant = self
            .variants
            .iter()
            .find(of)
            .expect("bounded variants exist");
        Ok(Some(Arc::clone(&variant.3) as Arc<dyn MipsSolver>))
    }
}

fn row<'a>(estimates: &'a [StrategyEstimate], name: &str) -> &'a StrategyEstimate {
    let found = estimates.iter().find(|e| e.name == name);
    found.unwrap_or_else(|| panic!("{name} missing from {estimates:?}"))
}

#[test]
fn a_far_off_candidate_stops_at_min_t_samples_and_a_gated_one_is_never_built() {
    let m = model(200, 3);
    let config = tiny_optimus();
    let mut leader = Stub::new(&m, "leader", Duration::from_micros(300));
    leader.batches = true;
    let leader = Arc::new(leader);
    let slow = Arc::new(Stub::new(&m, "slow", Duration::from_micros(3000)));
    let gated = Arc::new(Stub::new(&m, "gated", Duration::ZERO));
    let mut source = Stubs::new(vec![
        // Registered first, but a point-query backend is not the reference.
        (Arc::clone(&slow), None),
        (Arc::clone(&leader), None),
        // An hour of analytical cost against a leader of milliseconds.
        (Arc::clone(&gated), Some(3600.0)),
    ]);
    let Ok(choice) = Optimus::new(config).choose(&m, 3, TrafficClass::Bulk, &mut source);
    let estimates: Vec<StrategyEstimate> =
        choice.entries.iter().map(|e| e.estimate.clone()).collect();

    let min_t = TTEST_MIN_SAMPLES as usize;
    assert_eq!(
        row(&estimates, "slow").outcome,
        CandidateOutcome::StoppedEarly { after: min_t }
    );
    // The warm-up prefix plus exactly the users the t-test needed.
    assert_eq!(slow.served.load(Ordering::Relaxed), 4 + min_t);
    assert_eq!(row(&estimates, "leader").outcome, CandidateOutcome::Sampled);
    assert_eq!(row(&estimates, "leader").sampled_users, choice.sample_size);

    let pruned = row(&estimates, "gated");
    assert_eq!(
        pruned.outcome,
        CandidateOutcome::PrunedAnalytical {
            bound_seconds: 3600.0
        }
    );
    assert_eq!((pruned.sampled_users, pruned.build_seconds), (0, 0.0));
    assert_eq!(
        source.base_builds,
        [1, 1, 0],
        "the gated stub was never built"
    );
    assert_eq!(gated.served.load(Ordering::Relaxed), 0);
    assert!(choice.entries[2].solver.is_none());
    assert_eq!(choice.entries[choice.chosen].estimate.name, "leader");
}

#[test]
fn a_variant_exactly_at_the_tier_rate_bound_is_still_built_and_can_win() {
    let m = model(200, 5);
    let variant_of = |base: &Stub, name: &str| {
        let mut variant = Stub::new(&m, name, Duration::from_micros(30));
        variant.core = Arc::clone(&base.core);
        Arc::new(variant)
    };
    let mut base = Stub::new(&m, "base", Duration::from_micros(600));
    base.batches = true;
    base.tiers = &ScreenTier::ALL;
    let base = Arc::new(base);
    let mut source = Stubs::new(vec![(Arc::clone(&base), None)]);
    // The base is the leader, so a time ratio of exactly 1 puts the f32
    // variant's bound exactly at the leader's estimate: not over it, so it
    // races. A hair over 1 puts the i8 variant over the bound.
    source.variants = vec![
        (0, ScreenTier::F32, 1.0, variant_of(&base, "base+f32")),
        (0, ScreenTier::I8, 1.0 + 1e-9, variant_of(&base, "base+i8")),
    ];
    let Ok(choice) = Optimus::new(tiny_optimus()).choose(&m, 3, TrafficClass::Bulk, &mut source);
    let estimates: Vec<StrategyEstimate> =
        choice.entries.iter().map(|e| e.estimate.clone()).collect();

    assert_eq!(source.variant_builds, 1, "only the variant at the bound");
    let raced = row(&estimates, "base+f32");
    assert_eq!(raced.outcome, CandidateOutcome::Sampled);
    assert_eq!(raced.sampled_users, choice.sample_size);
    assert_eq!(choice.entries[choice.chosen].estimate.name, "base+f32");
    let winner = &choice.entries[choice.chosen];
    assert_eq!((winner.base, winner.tier), (0, Some(ScreenTier::F32)));
    assert!(matches!(
        row(&estimates, "base+i8").outcome,
        CandidateOutcome::NotBuilt { bound_seconds } if bound_seconds > 0.0
    ));
    // The winner's group was timed twice (the margin decision's second
    // pass): warm-up + two whole samples each.
    let twice = 4 + 2 * choice.sample_size;
    assert_eq!(base.served.load(Ordering::Relaxed), twice);
}

#[test]
fn a_variant_within_the_adoption_margin_hands_the_plan_to_its_base() {
    // The adoption rule runs inside the race: a variant 7.5 % faster than
    // its base leads the race but not by the margin (it must be under 85 %
    // of the base), so the plan goes to the base and the record says why.
    // The stubs sleep ≈ 60 ms per timed pass, so a scheduler stall would
    // have to hit the same side in both passes to move either verdict.
    let m = model(200, 9);
    let mut base = Stub::new(&m, "base", Duration::from_micros(2000));
    base.batches = true;
    base.tiers = &[ScreenTier::I8];
    let base = Arc::new(base);
    let mut variant = Stub::new(&m, "base+i8", Duration::from_micros(1850));
    variant.core = Arc::clone(&base.core);
    let mut source = Stubs::new(vec![(Arc::clone(&base), None)]);
    source.variants = vec![(0, ScreenTier::I8, 0.0, Arc::new(variant))];
    let Ok(choice) = Optimus::new(tiny_optimus()).choose(&m, 3, TrafficClass::Bulk, &mut source);
    let estimates: Vec<StrategyEstimate> =
        choice.entries.iter().map(|e| e.estimate.clone()).collect();

    let demoted = row(&estimates, "base+i8");
    assert_eq!(demoted.outcome, CandidateOutcome::DemotedWithinMargin);
    assert!(demoted.estimated_total_seconds < row(&estimates, "base").estimated_total_seconds);
    let winner = &choice.entries[choice.chosen];
    assert_eq!((winner.base, winner.tier), (0, None));
}

#[test]
fn construction_a_timed_pass_sets_off_is_charged_to_the_build() {
    // The lazy stub serves at 100 µs per user but pays 3 ms the first time
    // it serves each user, and reports that as construction. The warm-up
    // touches only the sample's first users, so the timed pass sets off the
    // rest: timed as serving, the stub would lose to a steady rival at
    // 400 µs per user by ≈ 7x; charged to its build, it wins by ≈ 4x, and
    // the one-offs stay out of the decision's seconds too.
    let m = model(200, 11);
    let mut rival = Stub::new(&m, "rival", Duration::from_micros(400));
    rival.batches = true;
    let mut lazy = Stub::new(&m, "lazy", Duration::from_micros(100));
    lazy.batches = true;
    lazy.first_touch = Duration::from_millis(3);
    let mut source = Stubs::new(vec![(Arc::new(rival), None), (Arc::new(lazy), None)]);
    let Ok(choice) = Optimus::new(tiny_optimus()).choose(&m, 3, TrafficClass::Bulk, &mut source);
    let estimates: Vec<StrategyEstimate> =
        choice.entries.iter().map(|e| e.estimate.clone()).collect();

    let lazy = row(&estimates, "lazy");
    assert_eq!(lazy.outcome, CandidateOutcome::Sampled);
    assert_eq!(choice.entries[choice.chosen].estimate.name, "lazy");
    // Every sampled user was touched once, warm-up included.
    let one_offs = Duration::from_millis(3) * choice.sample_size as u32;
    assert!(lazy.build_seconds >= one_offs.as_secs_f64(), "{lazy:?}");
    assert!(lazy.sample_seconds < row(&estimates, "rival").sample_seconds);
    // ... and none of the decision's own clock.
    assert!(choice.decision_seconds < one_offs.as_secs_f64() / 2.0);
}

/// A backend whose plain build is slow and counted, and whose screen
/// variants share it (and are counted by the stub it builds).
struct CountingFactory {
    builds: Arc<AtomicUsize>,
    screens: Arc<AtomicUsize>,
}

const BUILD_COST: Duration = Duration::from_millis(30);

impl SolverFactory for CountingFactory {
    fn key(&self) -> &str {
        "stub"
    }

    fn build(&self, model: &Arc<MfModel>) -> Result<Box<dyn MipsSolver>, MipsError> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(BUILD_COST);
        let mut stub = Stub::new(model, "Stub", Duration::ZERO);
        stub.batches = true;
        stub.tiers = &ScreenTier::ALL;
        stub.build_seconds = BUILD_COST.as_secs_f64();
        stub.screens = Some(Arc::clone(&self.screens));
        Ok(Box::new(stub))
    }
}

fn counting_engine(
    precision: Precision,
) -> (mips_core::Engine, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let (builds, screens) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let engine = EngineBuilder::new()
        .model(model(120, 7))
        .register(CountingFactory {
            builds: Arc::clone(&builds),
            screens: Arc::clone(&screens),
        })
        .precision(precision)
        .optimus(tiny_optimus())
        .build()
        .expect("engine assembles");
    (engine, builds, screens)
}

#[test]
fn variants_never_rerun_their_base_construction() {
    // Auto: however many variants the race builds, the plain construction
    // runs once per epoch, and a built variant reports its own cost only.
    let (engine, builds, screens) = counting_engine(Precision::Auto);
    let planned = |k: usize, epochs_so_far: usize| {
        let plan = engine.prepare(k).expect("plan");
        assert_eq!(builds.load(Ordering::SeqCst), epochs_so_far, "k {k}");
        assert_eq!(plan.estimates().len(), 1 + ScreenTier::ALL.len());
        for variant in &plan.estimates()[1..] {
            match variant.outcome {
                CandidateOutcome::NotBuilt { .. } => assert_eq!(variant.build_seconds, 0.0),
                _ => assert!(variant.build_seconds < BUILD_COST.as_secs_f64() / 10.0),
            }
        }
    };
    planned(3, 1);
    planned(5, 1);
    engine.swap_model(model(120, 8)).expect("valid model");
    planned(3, 2);
    // One derived variant per variant the races built, never one per plan.
    assert!(screens.load(Ordering::SeqCst) <= 2 * ScreenTier::ALL.len());

    // Forced tiers, in-process and served: one plain build per `key`, one
    // derived variant, however many shards serve.
    for tier in ScreenTier::ALL {
        let (engine, builds, screens) = counting_engine(Precision::of_tier(Some(tier)));
        let response = engine
            .execute_with("stub", &QueryRequest::top_k(3))
            .expect("named dispatch");
        assert_eq!(response.backend, format!("Stub{}", tier.suffix()));
        assert_eq!(
            (
                builds.load(Ordering::SeqCst),
                screens.load(Ordering::SeqCst)
            ),
            (1, 1)
        );

        let server = ServerBuilder::new()
            .engine(Arc::new(engine))
            .shards(2)
            .workers(1)
            .build()
            .expect("server assembles");
        for _ in 0..2 {
            let response = server.execute(&QueryRequest::top_k(3)).expect("served");
            assert_eq!(response.results.len(), 120);
        }
        assert_eq!(
            (
                builds.load(Ordering::SeqCst),
                screens.load(Ordering::SeqCst)
            ),
            (1, 1),
            "two shards share the one plain build and its derived variant"
        );
    }
}

#[test]
fn concurrent_first_touch_builds_do_not_convoy() {
    // Lazy builds run OUTSIDE the epoch's cache locks and install
    // compare-and-swap style. The "slow" backend's first build parks until
    // released; while it is parked mid-build, a first-touch build of another
    // key on the same epoch and a second first-touch of the slow key itself
    // (whose later builds are instant) must both complete.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let builds = AtomicUsize::new(0);
    let slow = FnFactory::new("slow", move |m: &Arc<MfModel>| {
        if builds.fetch_add(1, Ordering::SeqCst) == 0 {
            entered_tx.send(()).expect("the test is listening");
            let parked = release_rx.lock().expect("one parked build");
            parked.recv().expect("the test releases the build");
        }
        Ok(Box::new(Stub::new(m, "Slow", Duration::ZERO)) as Box<dyn MipsSolver>)
    });
    let engine = EngineBuilder::new()
        .model(model(40, 3))
        .register(slow)
        .register(BmmFactory)
        .build()
        .expect("engine assembles");

    let (probed_tx, probed_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| engine.solver("slow").expect("slow builds"));
        entered_rx.recv().expect("the slow build starts");

        scope.spawn(|| {
            let other = engine.solver("bmm").expect("bmm builds");
            let second = engine.solver("slow").expect("slow builds again");
            probed_tx
                .send((other, second))
                .expect("the test is listening");
        });
        let probed = probed_rx.recv_timeout(Duration::from_secs(10));
        // Unpark the first build whatever happened, so a failure is an
        // assertion and not a hung scope.
        release_tx.send(()).expect("the slow build is parked");
        let (other, second) = probed.expect("first-touch builds convoyed behind the slow one");
        assert_eq!(other.name(), "Blocked MM");
        // The parked build lost the install race and adopted the winner.
        let first = parked.join().expect("no panic");
        assert!(Arc::ptr_eq(&first, &second));
    });
}

#[test]
fn unregistered_builtins_serve_by_name_and_never_enter_a_plan() {
    let m = model(120, 13);
    let engine = EngineBuilder::new()
        .model(Arc::clone(&m))
        .register(BmmFactory)
        .precision(Precision::Auto)
        .optimus(tiny_optimus())
        .build()
        .expect("engine assembles");
    let k = 5;
    let want: Vec<TopKList> = (0..m.num_users())
        .map(|u| exact_topk(m.users().row(u), m.items(), k))
        .collect();
    for key in ["lemp", "fexipro-si", "fexipro-sir"] {
        assert_serves_by_name(&engine, key, &want);
    }
    // The plan races BMM and its tiers alone, though three other built-ins
    // are now built in this epoch.
    let plan = engine.prepare(k).expect("plan");
    assert!(!plan.estimates().is_empty(), "Auto races BMM's tiers");
    for estimate in plan.estimates() {
        assert!(estimate.name.starts_with("Blocked MM"), "{estimate:?}");
    }
    assert!(plan.backend_key().starts_with("bmm"));
    let unknown = MipsError::UnknownBackend { key: "nope".into() };
    let err = engine.execute_with("nope", &QueryRequest::top_k(k));
    assert_eq!(err.unwrap_err(), unknown);
    assert_eq!(engine.solver("nope").err(), Some(unknown));
}

/// Serves every user at `want`'s k through the unplanned named route and
/// holds each answer to the oracle's ids and score bits.
fn assert_serves_by_name(engine: &Engine, key: &str, want: &[TopKList]) {
    let response = engine
        .execute_with(key, &QueryRequest::top_k(want[0].len()))
        .unwrap_or_else(|e| panic!("{key} by name: {e}"));
    assert!(!response.planned, "{key}");
    assert_eq!(response.results.len(), want.len(), "{key}");
    for (u, (got, want)) in response.results.iter().zip(want).enumerate() {
        assert_eq!(got.items, want.items, "{key} user {u}");
        let bits = |list: &TopKList| list.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{key} user {u}");
    }
}

/// The built-ins the plan census left out of the default race (README,
/// "Named, not raced"): each serves by name only.
const NAMED_ONLY: [&str; 2] = ["fexipro-si", "fexipro-sir"];

#[test]
fn a_default_engine_plans_no_named_only_builtin_and_serves_each_by_name() {
    let defaults = BackendRegistry::with_defaults();
    let named: Vec<&str> = BUILTIN_KEYS
        .into_iter()
        .filter(|key| defaults.get(key).is_none())
        .collect();
    assert_eq!(named, NAMED_ONLY);
    let m = model(120, 17);
    let engine = EngineBuilder::new()
        .model(Arc::clone(&m))
        .with_default_backends()
        .precision(Precision::Auto)
        .optimus(tiny_optimus())
        .build()
        .expect("engine assembles");
    let k = 5;
    let point = engine
        .plan_for(&QueryRequest::top_k(k).users(vec![3]))
        .expect("point plan");
    let bulk = engine.plan_for(&QueryRequest::top_k(k)).expect("bulk plan");
    assert!(
        !Arc::ptr_eq(&point, &bulk),
        "one user and all users plan apart"
    );
    assert_eq!(engine.planner_runs(), 2);
    let want: Vec<TopKList> = (0..m.num_users())
        .map(|u| exact_topk(m.users().row(u), m.items(), k))
        .collect();
    for key in NAMED_ONLY {
        let solver = builtin(key).expect("built in").build(&m).expect("builds");
        let name = solver.name();
        for plan in [&point, &bulk] {
            // A plain build is recorded under its name, a tier under
            // name + suffix; `FEXIPRO-SI` is a prefix of `FEXIPRO-SIR`.
            let listed = plan
                .estimates()
                .iter()
                .find(|e| e.name == name || e.name.starts_with(&format!("{name}+")));
            assert!(listed.is_none(), "{key} entered a plan: {listed:?}");
        }
        assert_serves_by_name(&engine, key, &want);
    }
    assert_eq!(engine.planner_runs(), 2, "serving by name plans nothing");
}

/// Brute force that records the user count of every `query_subset` call —
/// each call a race timed and each call a request was served by — and
/// parks each call while the test holds `gate`.
struct Recorder {
    answers: MaximusIndex,
    name: &'static str,
    batches: bool,
    calls: Arc<Mutex<Vec<usize>>>,
    gate: Arc<RwLock<()>>,
}

impl MipsSolver for Recorder {
    fn name(&self) -> &str {
        self.name
    }
    fn build_seconds(&self) -> f64 {
        0.0
    }
    fn batches_users(&self) -> bool {
        self.batches
    }
    fn num_users(&self) -> usize {
        self.answers.num_users()
    }
    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        let _open = self.gate.read().expect("no panic while held");
        self.calls
            .lock()
            .expect("no panic while held")
            .push(users.len());
        self.answers.query_subset(k, users)
    }
}

/// An engine racing a batch-capable recorder (`reference`, the race's
/// reference) against a point-query one (`point`), with each one's call
/// log and the gate both park on.
struct Recorded {
    engine: Arc<mips_core::Engine>,
    reference: Arc<Mutex<Vec<usize>>>,
    point: Arc<Mutex<Vec<usize>>>,
    gate: Arc<RwLock<()>>,
}

/// A 36-user bulk sample on 120-user models: a perfect square, so the
/// class boundary `m² < S` falls between 5 and 6 users with 6² = S.
fn square_optimus() -> OptimusConfig {
    OptimusConfig {
        sample_fraction: 0.3,
        ..tiny_optimus()
    }
}

fn recorded_engine(m: &Arc<MfModel>) -> Recorded {
    let gate = Arc::new(RwLock::new(()));
    let log = || Arc::new(Mutex::new(Vec::new()));
    let (reference, point) = (log(), log());
    let factory = |key: &'static str, batches: bool, calls: &Arc<Mutex<Vec<usize>>>| {
        let (calls, gate) = (Arc::clone(calls), Arc::clone(&gate));
        FnFactory::new(key, move |m: &Arc<MfModel>| {
            Ok(Box::new(Recorder {
                answers: MaximusIndex::brute_force(Arc::clone(m)),
                name: key,
                batches,
                calls: Arc::clone(&calls),
                gate: Arc::clone(&gate),
            }) as Box<dyn MipsSolver>)
        })
    };
    let engine = EngineBuilder::new()
        .model(Arc::clone(m))
        .register(factory("point", false, &point))
        .register(factory("reference", true, &reference))
        .optimus(square_optimus())
        .build()
        .expect("engine assembles");
    Recorded {
        engine: Arc::new(engine),
        reference,
        point,
        gate,
    }
}

/// The calls logged since the last drain.
fn drain(log: &Mutex<Vec<usize>>) -> Vec<usize> {
    std::mem::take(&mut *log.lock().expect("no panic while held"))
}

#[test]
fn few_user_calls_take_a_point_plan_timed_one_user_per_call() {
    let m = model(120, 17);
    let k = 4;
    // S = 36: 5² < 36 is a point call, 6² = 36 is not.
    let optimus = Optimus::new(square_optimus());
    let sample = optimus.sample_size(m.num_users(), m.num_factors());
    assert_eq!(sample, 36);
    let class = |users| optimus.class_of(m.num_users(), m.num_factors(), users);
    assert_eq!(class(1), TrafficClass::Point);
    assert_eq!(class(5), TrafficClass::Point);
    assert_eq!(class(6), TrafficClass::Bulk);
    assert_eq!(class(m.num_users()), TrafficClass::Bulk);
    let want = |users: &[usize]| -> Vec<TopKList> {
        users
            .iter()
            .map(|&u| exact_topk(m.users().row(u), m.items(), k))
            .collect()
    };

    let r = recorded_engine(&m);
    let engine = &r.engine;
    // A one-user request plans the point plan: every call either race
    // candidate saw carries one user, the batch-capable reference's too.
    let one = engine.execute(&QueryRequest::top_k(k).users(vec![7]));
    assert_eq!(one.expect("served").results, want(&[7]));
    assert_eq!(engine.planner_runs(), 1);
    let (reference, point) = (drain(&r.reference), drain(&r.point));
    assert!(!reference.is_empty() && !point.is_empty());
    assert!(
        reference.iter().chain(&point).all(|&len| len == 1),
        "{reference:?} {point:?}"
    );

    // Another user, three users and five — the last point size — reuse it.
    for users in [vec![11], vec![3, 0, 3], vec![1, 2, 4, 8, 16]] {
        let response = engine.execute(&QueryRequest::top_k(k).users(users.clone()));
        assert_eq!(response.expect("served").results, want(&users));
    }
    // So does a server batch coalesced from four single-user requests:
    // the one worker parks inside the first call until all four are
    // queued, so the rest (or all four) share one solver call.
    let server = ServerBuilder::new()
        .engine(Arc::clone(engine))
        .shards(1)
        .workers(1)
        .max_batch(16)
        .build()
        .expect("server assembles");
    let closed = r.gate.write().expect("no panic while held");
    let handles: Vec<_> = [20, 21, 22, 23]
        .map(|u| {
            let request = QueryRequest::top_k(k).users(vec![u]);
            (u, server.submit(&request).expect("admitted"))
        })
        .into_iter()
        .collect();
    drop(closed);
    for (u, handle) in handles {
        assert_eq!(handle.wait().expect("served").results, want(&[u]));
    }
    assert!(server.metrics().coalesced() > 0, "the requests coalesced");
    assert_eq!(engine.planner_runs(), 1, "every few-user call reused it");
    let served: Vec<usize> = [drain(&r.reference), drain(&r.point)].concat();
    assert!(
        served.iter().all(|&len| len <= 5),
        "served calls only: {served:?}"
    );

    // A whole-model request plans the bulk plan: the reference is warmed
    // on a prefix, then timed on the whole sample in one call.
    let all = engine.execute(&QueryRequest::top_k(k)).expect("served");
    assert_eq!(all.results, want(&(0..m.num_users()).collect::<Vec<_>>()));
    assert_eq!(engine.planner_runs(), 2);
    let reference = drain(&r.reference);
    assert_eq!(reference[..2], [4, sample], "{reference:?}");
    let plan = engine.prepare(k).expect("the bulk plan");
    assert_eq!(plan.sample_size(), sample);
    assert_eq!(engine.planner_runs(), 2, "prepare(k) is the bulk plan");
    // ... and a one-user request still takes the point plan.
    engine
        .execute(&QueryRequest::top_k(k).users(vec![9]))
        .expect("served");
    assert_eq!(engine.planner_runs(), 2);

    // The boundary through the engine, on fresh engines: a five-user
    // request plans a point plan, so the bulk plan is raced afterwards;
    // a six-user request plans the bulk plan itself.
    for (users, runs_after_bulk) in [(5usize, 2), (6, 1)] {
        let fresh = recorded_engine(&m);
        let ids: Vec<usize> = (0..users).collect();
        fresh
            .engine
            .execute(&QueryRequest::top_k(k).users(ids))
            .expect("served");
        assert_eq!(fresh.engine.planner_runs(), 1);
        fresh.engine.prepare(k).expect("the bulk plan");
        assert_eq!(
            fresh.engine.planner_runs(),
            runs_after_bulk,
            "{users} users"
        );
    }
}
