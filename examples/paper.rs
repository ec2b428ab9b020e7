//! The paper's evaluation (§V), section by section, over the engine and the
//! planner that actually serve.
//!
//! ```sh
//! cargo run --release --example paper               # all ten sections
//! cargo run --release --example paper -- table2     # one of: table1 fig2 fig4 fig5
//!                                                   # fig6 table2 fig7 fig8 ablation sparse
//! MIPS_SCALE=0.05 cargo run --release --example paper   # the CI smoke size
//! ```
//!
//! Models are the catalog's seeded stand-ins at roughly 1/100 of Table I's
//! sizes; `MIPS_SCALE` (the only environment input) grows or shrinks them.
//! Absolute seconds move with scale and host; who wins, by roughly what
//! factor, and where the crossovers sit is what each section reproduces.
//!
//! Fig. 2 and Fig. 4 are a row filter and a build column of the Fig. 5 grid,
//! measured once per model. Every optimizer section (Table II, Figs. 7–8,
//! `sparse`) assembles an [`Engine`] and reads what the staged race
//! decided: `QueryResponse.backend`, `PreparedPlan::{estimates,
//! decision_seconds}` and each estimate's `CandidateOutcome`.

use optimus_maximus::core::precision::Precision;
use optimus_maximus::data::catalog::find;
use optimus_maximus::data::sparse::{synth_sparse_model, SparseSynthConfig};
use optimus_maximus::data::DatasetStats;
use optimus_maximus::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The `K` values the paper evaluates throughout (Fig. 2, Fig. 5, Table II).
const KS: [usize; 4] = [1, 5, 10, 50];

/// The five strategies of Fig. 5 in its legend order: the name a served
/// response reports, and the registry key.
const BACKENDS: [(&str, &str); 5] = [
    ("Blocked MM", "bmm"),
    ("Maximus", "maximus"),
    ("LEMP", "lemp"),
    ("FEXIPRO-SIR", "fexipro-sir"),
    ("FEXIPRO-SI", "fexipro-si"),
];
const BMM: usize = 0;
const MAXIMUS: usize = 1;
const LEMP: usize = 2;
const SIR: usize = 3;
const SI: usize = 4;

/// One model's slice of the Fig. 5 grid: every strategy built once and
/// served to completion at every `k`, through a one-backend engine.
struct ModelRows {
    model: Arc<MfModel>,
    ks: Vec<usize>,
    /// Construction seconds per strategy, in [`BACKENDS`] order.
    build: Vec<f64>,
    /// Serve-all seconds per `k` (outer, in `ks` order) and strategy.
    serve: Vec<Vec<f64>>,
}

impl ModelRows {
    /// End-to-end seconds (build + serve-all) of every strategy at `ks[at]`.
    fn totals(&self, at: usize) -> Vec<f64> {
        let totals = self.serve[at].iter().zip(&self.build);
        totals.map(|(serve, build)| serve + build).collect()
    }

    /// The factories of [`BACKENDS`], in its order: MAXIMUS with the paper's
    /// `|C|` and `i`, its passes sized at query time.
    fn factories(&self) -> Vec<Factory> {
        vec![
            Arc::new(BmmFactory),
            Arc::new(MaximusFactory::default()),
            Arc::new(LempFactory::default()),
            Arc::new(FexiproFactory::sir()),
            Arc::new(FexiproFactory::si()),
        ]
    }
}

/// The scale, and the grid rows measured so far (by model name).
struct Paper {
    scale: f64,
    grid: RefCell<HashMap<String, Rc<ModelRows>>>,
}

impl Paper {
    /// The catalog model `dataset`-`training` at `f` factors, with its rows.
    fn find(&self, dataset: &str, training: &str, f: usize) -> Rc<ModelRows> {
        self.rows(find(dataset, training, f).expect("catalog model"))
    }

    /// The model and grid rows of `spec`, built and measured on first use.
    fn rows(&self, spec: ModelSpec) -> Rc<ModelRows> {
        if let Some(measured) = self.grid.borrow().get(&spec.name()) {
            return Rc::clone(measured);
        }
        let model = Arc::new(spec.build(self.scale));
        let ks = ks_for(&model);
        let mut rows = ModelRows {
            model,
            build: Vec::new(),
            serve: vec![Vec::new(); ks.len()],
            ks,
        };
        for (factory, (_, key)) in rows.factories().into_iter().zip(BACKENDS) {
            let engine = build(engine(&rows.model, [factory]));
            let solver = engine.solver(key).expect("the backend builds");
            for (at, &k) in rows.ks.iter().enumerate() {
                // Construction a serve sets off (MAXIMUS packs a list
                // part on first touch) goes to the build column.
                let built = solver.build_seconds();
                let serve = serve_with(&engine, key, k);
                rows.serve[at].push(serve - (solver.build_seconds() - built));
            }
            rows.build.push(solver.build_seconds());
        }
        let rows = Rc::new(rows);
        self.grid.borrow_mut().insert(spec.name(), Rc::clone(&rows));
        rows
    }
}

/// The paper's `K`s that fit the model: a tiny stand-in can hold under 50 items.
fn ks_for(model: &MfModel) -> Vec<usize> {
    KS.into_iter().filter(|&k| k <= model.num_items()).collect()
}

type Factory = Arc<dyn SolverFactory>;

fn engine(model: &Arc<MfModel>, factories: impl IntoIterator<Item = Factory>) -> EngineBuilder {
    let builder = EngineBuilder::new().model(Arc::clone(model));
    factories
        .into_iter()
        .fold(builder, EngineBuilder::register_arc)
}

fn build(builder: EngineBuilder) -> Engine {
    builder.build().expect("engine assembles")
}

/// Serve-all seconds at `k` through named dispatch (no planning).
fn serve_with(engine: &Engine, key: &str, k: usize) -> f64 {
    let response = engine.execute_with(key, &QueryRequest::top_k(k));
    response.expect("valid request").serve_seconds
}

/// The planner scaled with the stand-ins: the paper's L2-occupancy floor
/// assumes ≥ 480 k users and would swallow 13–30 % of a miniature user set, so
/// the floor shrinks with everything else and the fraction sets the sample.
fn scaled_optimus(sample_fraction: f64, seed: u64) -> OptimusConfig {
    let mut optimus = OptimusConfig {
        sample_fraction,
        seed,
        ..OptimusConfig::default()
    };
    optimus.cache.l2_bytes = 2048;
    optimus
}

/// `"a×2 b×1"` for `[a, b, a]`, in first-seen order.
fn tally(labels: &[String]) -> String {
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for label in labels {
        match counts.iter_mut().find(|(seen, _)| seen == label) {
            Some((_, n)) => *n += 1,
            None => counts.push((label, 1)),
        }
    }
    let parts = counts.iter().map(|(label, n)| format!("{label}×{n}"));
    parts.collect::<Vec<_>>().join(" ")
}

/// Index of the smallest value.
fn fastest(times: &[f64]) -> usize {
    let by_time = times.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1));
    by_time.expect("non-empty").0
}

fn median_of_3(mut run: impl FnMut() -> f64) -> f64 {
    let mut runs = [run(), run(), run()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Sample standard deviation (0 with fewer than two values).
fn std_dev(xs: &[f64]) -> f64 {
    let m = mean(xs);
    let squares = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    (squares / xs.len().saturating_sub(1).max(1) as f64).sqrt()
}

/// Geometric mean (the paper's "average speedup" aggregation).
fn geo_mean(xs: &[f64]) -> f64 {
    mean(&xs.iter().map(|x| x.max(1e-12).ln()).collect::<Vec<_>>()).exp()
}

/// Seconds with about three significant digits.
fn secs(s: f64) -> String {
    match s {
        s if s >= 100.0 => format!("{s:.0}s"),
        s if s >= 1.0 => format!("{s:.2}s"),
        s if s >= 1e-3 => format!("{:.1}ms", s * 1e3),
        s => format!("{:.0}µs", s * 1e6),
    }
}

/// A fixed-width table. A row is one string with `|` between its cells;
/// the first row is the header.
struct Table(Vec<Vec<String>>);

impl Table {
    fn new(headers: &str) -> Table {
        let mut table = Table(Vec::new());
        table.row(headers.to_string());
        table
    }

    fn row(&mut self, cells: String) {
        self.0.push(cells.split('|').map(str::to_string).collect());
    }

    fn print(&self) {
        let mut widths = vec![0; self.0[0].len()];
        for row in &self.0 {
            assert_eq!(row.len(), widths.len(), "Table: ragged row {row:?}");
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.chars().count());
            }
        }
        for (i, row) in self.0.iter().enumerate() {
            let cells = row.iter().zip(&widths).map(|(c, &w)| format!("{c:<w$}"));
            let line = cells.collect::<Vec<_>>().join("  ");
            println!("{}", line.trim_end());
            if i == 0 {
                println!("{}", "-".repeat(line.chars().count()));
            }
        }
    }
}

/// Table I: the paper's dataset statistics next to the scaled stand-ins,
/// with the item-norm skew that drives solver choice.
fn table1(paper: &Paper) {
    let scale = paper.scale;
    println!("== Table I: datasets (stand-ins generated at scale {scale}) ==\n");
    let mut table = Table::new(
        "dataset|paper users|paper items|ours users|ours items|item-norm p99/p50|mean item norm",
    );
    for spec in reference_models() {
        // One representative spec per dataset family: its first.
        if table.0.iter().any(|row| row[0] == spec.dataset) {
            continue;
        }
        let s = DatasetStats::compute(&spec.build(scale));
        let (paper_users, paper_items) = spec.paper_shape();
        table.row(format!(
            "{}|{paper_users}|{paper_items}|{}|{}|{:.2}|{:.2}",
            spec.dataset, s.num_users, s.num_items, s.item_norm_p99_over_p50, s.mean_item_norm
        ));
    }
    table.print();
}

/// Figure 2, the motivating experiment: BMM vs LEMP vs FEXIPRO end to end.
fn fig2(paper: &Paper) {
    println!("== Figure 2: BMM vs LEMP vs FEXIPRO (motivation) ==\n");
    let columns = [BMM, LEMP, SI];
    for (dataset, training) in [("Netflix", "DSGD"), ("R2", "NOMAD")] {
        let rows = paper.find(dataset, training, 50);
        let (users, items) = (rows.model.num_users(), rows.model.num_items());
        println!("{} ({users} users x {items} items)", rows.model.name());
        let mut table = Table::new("K|Blocked MM|LEMP|FEXIPRO-SI|fastest");
        for (at, k) in rows.ks.iter().enumerate() {
            let totals = rows.totals(at);
            let times = columns.map(|b| totals[b]);
            let winner = BACKENDS[columns[fastest(&times)]].0;
            let [bmm, lemp, si] = times.map(secs);
            table.row(format!("{k}|{bmm}|{lemp}|{si}|{winner}"));
        }
        table.print();
        println!();
    }
    println!("paper: BMM 1.9-3.1x faster on every Netflix K, LEMP/FEXIPRO 2-3.5x faster on R2.");
}

/// Figure 4: index construction against end-to-end K = 1 retrieval — the
/// gap that lets OPTIMUS afford building an index just to test it.
fn fig4(paper: &Paper) {
    println!("== Figure 4: construction vs end-to-end retrieval (K = 1) ==\n");
    let mut table = Table::new("model|index|construction|end-to-end|constr. share");
    for f in [10usize, 50, 100] {
        let rows = paper.find("Netflix", "DSGD", f);
        let totals = rows.totals(0);
        for b in [LEMP, SI, SIR] {
            let (name, index) = (rows.model.name(), BACKENDS[b].0);
            let share = rows.build[b] / totals[b] * 100.0;
            let (build, total) = (secs(rows.build[b]), secs(totals[b]));
            table.row(format!("{name}|{index}|{build}|{total}|{share:.2}%"));
        }
    }
    table.print();
    println!("\npaper: construction is 0.5% (LEMP) / 1.9% (FEXIPRO) of a K = 1 batch run.");
}

/// Figure 5: all five strategies on every reference model and K, plus the
/// paper's headline aggregates (win counts, geometric-mean speedups).
fn fig5(paper: &Paper) {
    println!("== Figure 5: end-to-end runtime, all models x K ==\n");
    let mut table = Table::new("model|K|Blocked MM|Maximus|LEMP|FEXIPRO-SIR|FEXIPRO-SI|fastest");
    let mut wins = [0usize; 3];
    let (mut vs_lemp, mut vs_bmm, mut vs_si) = (Vec::new(), Vec::new(), Vec::new());
    for spec in reference_models() {
        let rows = paper.rows(spec);
        for (at, k) in rows.ks.iter().enumerate() {
            let totals = rows.totals(at);
            let cells: Vec<String> = totals.iter().map(|&t| secs(t)).collect();
            let (name, winner) = (rows.model.name(), BACKENDS[fastest(&totals)].0);
            table.row(format!("{name}|{k}|{}|{winner}", cells.join("|")));
            wins[fastest(&totals[..=LEMP])] += 1;
            vs_lemp.push(totals[LEMP] / totals[MAXIMUS]);
            vs_bmm.push(totals[BMM] / totals[MAXIMUS]);
            vs_si.push(totals[SI] / totals[MAXIMUS]);
        }
    }
    table.print();
    let ([bmm, maximus, lemp], combos) = (wins, vs_bmm.len());
    println!("\n-- aggregates over {combos} model/K combinations --");
    println!("fastest of three: BMM {bmm} | Maximus {maximus} | LEMP {lemp}   (paper: 53|28|11)");
    for (versus, ratios, reported) in [
        ("LEMP:      ", &vs_lemp, "1.8x avg, up to 10.6x"),
        ("Blocked MM:", &vs_bmm, "2.7x avg, up to 43.4x"),
        ("FEXIPRO-SI:", &vs_si, ">10x avg"),
    ] {
        let (geo, most) = (geo_mean(ratios), ratios.iter().cloned().fold(0.0, f64::max));
        println!("Maximus vs {versus} {geo:.2}x geo-mean, up to {most:.1}x   (paper: {reported})");
    }
}

/// Figure 6: multi-core scaling of K = 1 serving. The three strategies are
/// read-only after construction, so the engine partitions users across
/// `threads`; speedups saturate at the host's core count (printed).
fn fig6(paper: &Paper) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Figure 6: multi-core scaling, K = 1 (host has {cores} cores) ==\n");
    let rows = paper.find("Netflix", "DSGD", 50);
    let factories = rows.factories();
    let mut table = Table::new("threads|Blocked MM|Maximus|LEMP");
    let mut base = [0.0f64; 3];
    for threads in [1usize, 2, 4, 8, 16] {
        let cells = [BMM, MAXIMUS, LEMP].map(|b| {
            let key = BACKENDS[b].1;
            let engine = build(engine(&rows.model, [Arc::clone(&factories[b])]).threads(threads));
            // Thread spawn noise is visible at these sub-second scales.
            let t = median_of_3(|| serve_with(&engine, key, 1));
            if threads == 1 {
                base[b] = t;
            }
            format!("{} ({:.2}x)", secs(t), base[b] / t)
        });
        table.row(format!("{threads}|{}", cells.join("|")));
    }
    table.print();
    println!("\npaper: near-linear speedup for all three up to its 16 cores (this host: {cores}).");
}

/// Table II: effectiveness of the optimizer that serves. Per pairing (BMM
/// plus one or two indexes) and model/K: a **cold** `Engine::execute` —
/// staged race, the index builds it triggers, then serving — against the
/// oracle, i.e. the pairing's truly fastest strategy from the Fig. 5 grid.
/// Speedups are against the LEMP-only baseline, as in the paper.
fn table2(paper: &Paper) {
    println!("== Table II: optimizer effectiveness on the reference models ==\n");
    let pairings: [(&str, &[usize]); 5] = [
        ("BMM + LEMP", &[BMM, LEMP]),
        ("BMM + FEXIPRO-SI", &[BMM, SI]),
        ("BMM + FEXIPRO-SIR", &[BMM, SIR]),
        ("BMM + MAXIMUS", &[BMM, MAXIMUS]),
        ("BMM + LEMP + MAXIMUS", &[BMM, LEMP, MAXIMUS]),
    ];
    // Per pairing: [correct, overhead, index-only, OPTIMUS, oracle] samples.
    let mut samples = vec![[(); 5].map(|_| Vec::new()); pairings.len()];
    let optimus = scaled_optimus(0.01, OptimusConfig::default().seed);
    for spec in reference_models() {
        let rows = paper.rows(spec);
        let factories = rows.factories();
        for (at, &k) in rows.ks.iter().enumerate() {
            let totals = rows.totals(at);
            for ((_, candidates), acc) in pairings.iter().zip(&mut samples) {
                let times: Vec<f64> = candidates.iter().map(|&b| totals[b]).collect();
                let best = fastest(&times);
                let registered = candidates.iter().map(|&b| Arc::clone(&factories[b]));
                let engine = build(engine(&rows.model, registered).optimus(optimus));
                let started = Instant::now();
                let response = engine.execute(&QueryRequest::top_k(k)).expect("serves");
                let cold = started.elapsed().as_secs_f64();
                let correct = response.backend == BACKENDS[candidates[best]].0;
                acc[0].push(f64::from(u8::from(correct)));
                acc[1].push((cold / times[best] - 1.0).max(0.0));
                acc[2].push(totals[LEMP] / totals[candidates[1]]);
                acc[3].push(totals[LEMP] / cold);
                acc[4].push(totals[LEMP] / times[best]);
            }
        }
    }
    let mut table = Table::new(
        "Optimizer Choices|Accuracy|Avg Overhead|Std Dev Overhead|Index Only|\
         OPTIMUS (w/ overhead)|Oracle (no overhead)",
    );
    for ((label, candidates), acc) in pairings.iter().zip(&samples) {
        let percent = |ratio: f64| format!("{:.1}%", ratio * 100.0);
        let [accuracy, overhead, spread] =
            [mean(&acc[0]), mean(&acc[1]), std_dev(&acc[1])].map(percent);
        let index_only = match candidates.len() {
            2 => format!("{:.2}x", mean(&acc[2])),
            _ => "-".to_string(),
        };
        let (optimus, oracle) = (mean(&acc[3]), mean(&acc[4]));
        table.row(format!(
            "{label}|{accuracy}|{overhead}|{spread}|{index_only}|{optimus:.2}x|{oracle:.2}x"
        ));
    }
    table.print();
    println!("\npaper: 84.8-97.8% accuracy, 4.3-9.1% average overhead; BMM + MAXIMUS 93.5%, 5.5%,");
    println!("1.78x index-only, 3.15x OPTIMUS, 3.43x oracle (all vs the LEMP-only baseline).");
}

/// Figure 7: the planner's estimates against the user sample ratio, on
/// KDD-REF f = 51 at K = 1, four seeds per ratio. Each candidate's estimate
/// (mean ± std over the seeds) is printed beside its true serve-all seconds,
/// the users it was timed on (mean) and what the race did with it. LEMP is
/// re-seeded per run: its bucket tuning is itself sample-dependent, the
/// paper's one high-variance series.
fn fig7(paper: &Paper) {
    println!("== Figure 7: estimate quality vs sample ratio (KDD-REF f=51, K=1) ==\n");
    let rows = paper.find("KDD", "REF", 51);
    let mut table = Table::new("sample|users|candidate|true serve|estimate|timed|outcome|planned");
    // The paper sweeps 0.01%..1% of 1M users; at the stand-in's user count
    // the same *absolute* sample sizes are larger ratios.
    for ratio in [0.01, 0.02, 0.05, 0.10, 0.20] {
        let mut estimates = vec![Vec::new(); BACKENDS.len()];
        let mut outcomes = vec![Vec::new(); BACKENDS.len()];
        let mut timed = vec![Vec::new(); BACKENDS.len()];
        let mut planned = Vec::new();
        let mut sampled_users = 0;
        for run in 0..4u64 {
            let mut lemp = LempConfig::default();
            lemp.seed += 7919 * run;
            let mut factories = rows.factories();
            factories[LEMP] = Arc::new(LempFactory::new(lemp));
            let optimus = scaled_optimus(ratio, 0xF1607 + run);
            let engine = build(engine(&rows.model, factories).optimus(optimus));
            let plan = engine.prepare(1).expect("planner runs");
            sampled_users = plan.sample_size();
            planned.push(plan.backend_name().to_string());
            for (b, e) in plan.estimates().iter().enumerate() {
                estimates[b].push(e.estimated_total_seconds);
                timed[b].push(e.sampled_users as f64);
                // The variant's name; `timed` carries where a stopped one stopped.
                let outcome = format!("{:?}", e.outcome);
                outcomes[b].push(outcome.split(' ').next().unwrap_or_default().to_string());
            }
        }
        let (percent, plans) = (ratio * 100.0, tally(&planned));
        table.row(format!("{percent:.0}%|{sampled_users}||||||{plans}"));
        for (b, (name, _)) in BACKENDS.iter().enumerate() {
            let (truth, estimate) = (secs(rows.serve[0][b]), secs(mean(&estimates[b])));
            let (spread, outcome) = (secs(std_dev(&estimates[b])), tally(&outcomes[b]));
            let users = mean(&timed[b]);
            table.row(format!(
                "||{name}|{truth}|{estimate}±{spread}|{users:.0}|{outcome}|"
            ));
        }
    }
    table.print();
    println!("\npaper: the index-vs-BMM decision is right with well under 1% of users, whatever");
    println!("the per-strategy estimate noise.");
}

/// Figure 8: MAXIMUS's four stages — clustering, construction, cost
/// estimation (the planner's `decision_seconds` for a BMM + MAXIMUS engine),
/// traversal — with the shortest first pass and with the default walk. The
/// lesion forces every walk's first pass to 16 positions (`block_size:
/// 16`), the shortest there is, so users are checked for a stop from the
/// first panel on; the default sizes each pass at query time from the stop
/// positions earlier walks reached. The paper's lesion, with no `B`-item
/// prefix, walks the lists one item at a time, which this index never
/// does.
fn fig8(paper: &Paper) {
    println!("== Figure 8: MAXIMUS runtime breakdown, K = 1 ==\n");
    let mut table = Table::new(
        "configuration|clustering|construction + first-touch packing|cost estimation|traversal|w̄|planned",
    );
    let mut lesion = Vec::new();
    for (dataset, training) in [("Netflix", "NOMAD"), ("R2", "NOMAD")] {
        let rows = paper.find(dataset, training, 50);
        let name = rows.model.name();
        let sized = MaximusConfig::default();
        let shortest = MaximusConfig {
            block_size: 16,
            ..sized
        };
        let configs = [
            (shortest, "shortest first pass, B = 16"),
            (sized, "passes sized at query time"),
        ];
        let traversal = configs.map(|(config, label)| {
            let maximus: Factory = Arc::new(MaximusFactory::new(config));
            let engine = build(engine(&rows.model, [Arc::new(BmmFactory), maximus]));
            let plan = engine.prepare(1).expect("planner runs");
            let index = MaximusIndex::build(Arc::clone(&rows.model), &config);
            let built = index.build_stats().construction_seconds;
            let started = Instant::now();
            assert_eq!(index.query_all(1).len(), rows.model.num_users());
            let (stages, visited) = (index.build_stats(), index.query_stats().avg_items_visited());
            // The parts the traversal packed are construction.
            let packing = stages.construction_seconds - built;
            let traversal = started.elapsed().as_secs_f64() - packing;
            let (clustering, construction) =
                (stages.clustering_seconds, stages.construction_seconds);
            let stages = [clustering, construction, plan.decision_seconds(), traversal].map(secs);
            let (stages, planned) = (stages.join("|"), plan.backend_name());
            table.row(format!(
                "{name} ({label}, parts packed on first touch)|{stages}|{visited:.0}|{planned}"
            ));
            traversal
        });
        lesion.push((name.to_string(), traversal));
    }
    table.print();
    println!("\n-- first-pass lesion: the shortest first pass vs passes sized at query time --");
    println!("(the paper's lesion walks item by item: 2.4x Netflix, 1.4x R2)");
    for (name, [without, with]) in lesion {
        let (ratio, without, with) = (without / with, secs(without), secs(with));
        println!("{name}: traversal {without} -> {with} ({ratio:.2}x)");
    }
    println!("\npaper: clustering + construction + estimation are 1.8% of end-to-end time.");
}

/// Ablation (§III-D): MAXIMUS's runtime across the blocking factor `B`, the
/// cluster count `|C|` and the k-means budget `i`, swept around the
/// defaults on one index-friendly and one BMM-friendly model. A `B` row
/// forces every walk's first pass to `B` positions; the default (`B = 0`)
/// sizes it at query time.
fn ablation(paper: &Paper) {
    println!("== Ablation: MAXIMUS parameters (K = 1) ==\n");
    let sweeps: [(&str, &[usize]); 3] = [
        ("B", &[0, 16, 64, 256, 1024, 4096]),
        ("C", &[1, 2, 4, 8, 16, 32]),
        ("i", &[1, 3, 10]),
    ];
    for (dataset, training) in [("R2", "NOMAD"), ("Netflix", "DSGD")] {
        let rows = paper.find(dataset, training, 50);
        let (name, base) = (rows.model.name(), MaximusConfig::default());
        let (b, c, i) = (base.block_size, base.num_clusters, base.kmeans_iters);
        println!("{name} (defaults: B = {b}, sized at query time; |C| = {c}, i = {i})");
        let mut table = Table::new("parameter|value|end-to-end|w̄");
        for (parameter, values) in sweeps {
            for &value in values {
                let mut config = base;
                match parameter {
                    "B" => config.block_size = value,
                    "C" => config.num_clusters = value,
                    _ => config.kmeans_iters = value,
                }
                let index = MaximusIndex::build(Arc::clone(&rows.model), &config);
                // Read before the query: the parts it packs on first
                // touch are in its elapsed time.
                let built = index.build_seconds();
                let started = Instant::now();
                let served = index.query_all(1).len();
                let total = built + started.elapsed().as_secs_f64();
                assert_eq!(served, rows.model.num_users());
                let visited = index.query_stats().avg_items_visited();
                table.row(format!("{parameter}|{value}|{}|{visited:.0}", secs(total)));
            }
        }
        table.print();
        println!();
    }
    println!("paper: runtime varies mildly across |C| and i; an oversized B degrades toward");
    println!("brute force on index-friendly models (wasted shared work).");
}

/// The sparse family: the inverted index against brute force on a
/// ≥ 99 %-sparse synthetic catalog, and what the default registry under
/// `Precision::Auto` actually plans there — the `sparse` candidate's row of
/// the decision record says whether the index was ever built.
fn sparse(paper: &Paper) {
    let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
        num_users: ((800.0 * paper.scale) as usize).max(16),
        num_items: ((2000.0 * paper.scale) as usize).max(32),
        ..SparseSynthConfig::default()
    }));
    let (users, items, f) = (model.num_users(), model.num_items(), model.num_factors());
    println!("== Sparse: inverted index vs BMM on SparseSynth ({users} x {items}, f = {f}) ==\n");
    let index: Factory = Arc::new(SparseFactory);
    let index = build(engine(&model, [index]));
    let bmm = build(engine(&model, [Arc::new(BmmFactory) as Factory]));
    let auto = engine(&model, []).with_default_backends();
    let auto = build(auto.precision(Precision::Auto));
    let mut table = Table::new(
        "K|bmm serve|sparse serve|bmm/sparse|auto plans|auto serve|sparse estimate|sparse outcome",
    );
    for k in ks_for(&model) {
        let bmm_seconds = median_of_3(|| serve_with(&bmm, "bmm", k));
        let sparse_seconds = median_of_3(|| serve_with(&index, "sparse", k));
        let plan = auto.prepare(k).expect("planner runs");
        let served = auto.execute(&QueryRequest::top_k(k)).expect("serves");
        // A candidate that was never built is recorded under its registry key.
        let is_sparse = |name: &str| name == "sparse" || name == "Sparse-II";
        let row = plan.estimates().iter().find(|e| is_sparse(&e.name));
        let row = row.expect("the default registry holds the sparse backend");
        let (ratio, estimate) = (bmm_seconds / sparse_seconds, row.estimated_total_seconds);
        let [bmm_s, sparse_s, auto_s, estimate] =
            [bmm_seconds, sparse_seconds, served.serve_seconds, estimate].map(secs);
        let (planned, outcome) = (plan.backend_key(), &row.outcome);
        table.row(format!(
            "{k}|{bmm_s}|{sparse_s}|{ratio:.2}x|{planned}|{auto_s}|{estimate}|{outcome:?}"
        ));
    }
    table.print();
}

fn main() {
    let sections = [
        ("table1", table1 as fn(&Paper)),
        ("fig2", fig2),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("table2", table2),
        ("fig7", fig7),
        ("fig8", fig8),
        ("ablation", ablation),
        ("sparse", sparse),
    ];
    let pick = std::env::args().nth(1);
    let picked = |name: &str| pick.as_deref().map_or(true, |p| p == name);
    if !sections.iter().any(|(name, _)| picked(name)) {
        let names: Vec<&str> = sections.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: paper [{}]", names.join(" | "));
        std::process::exit(2);
    }
    let scale = std::env::var("MIPS_SCALE").ok();
    let scale = scale.and_then(|v| v.parse::<f64>().ok());
    let paper = Paper {
        scale: scale.filter(|s| s.is_finite() && *s > 0.0).unwrap_or(1.0),
        grid: RefCell::default(),
    };
    for (name, section) in sections {
        if picked(name) {
            section(&paper);
            println!();
        }
    }
}
