//! Table II: effectiveness of the online optimizer.
//!
//! For each optimizer pairing (BMM + one index, plus the three-way
//! BMM + LEMP + MAXIMUS) over every model/K combination:
//!
//! * **accuracy** — how often OPTIMUS picks the truly fastest strategy,
//! * **overhead** — OPTIMUS's total time over the best strategy's full
//!   runtime, minus one,
//! * **speedups vs the LEMP-only baseline** — for the index alone, for
//!   OPTIMUS (overhead included), and for a zero-overhead oracle.
//!
//! The paper reports 84.8–97.8 % accuracy, 4.3–9.1 % average overhead, and
//! OPTIMUS within ~12 % of the oracle.

use mips_bench::{build_model, figure5_backends, mean, std_dev, BenchBackend, Table, PAPER_KS};
use mips_core::engine::SolverFactory;
use mips_core::optimus::{Optimus, OptimusConfig};
use mips_data::catalog::reference_models;
use std::sync::Arc;
use std::time::Instant;

/// Full measured end-to-end times for the five Fig. 5 backends, in the
/// order BMM, Maximus, LEMP, FEXIPRO-SIR, FEXIPRO-SI.
fn measure_all(model: &Arc<mips_data::MfModel>, backends: &[BenchBackend], k: usize) -> Vec<f64> {
    backends
        .iter()
        .map(|b| {
            let solver = b.factory.build(model).expect("bench index builds");
            let t0 = Instant::now();
            let r = solver.query_all(k);
            assert_eq!(r.len(), model.num_users());
            solver.build_seconds() + t0.elapsed().as_secs_f64()
        })
        .collect()
}

struct PairingAccumulator {
    label: &'static str,
    correct: usize,
    total: usize,
    overheads: Vec<f64>,
    index_only_speedup: Vec<f64>,
    optimus_speedup: Vec<f64>,
    oracle_speedup: Vec<f64>,
}

fn main() {
    println!("== Table II: optimizer effectiveness on the reference models ==\n");
    // Candidate index sets per pairing; indexes refer to positions in the
    // Fig. 5 strategy vector: 1 = Maximus, 2 = LEMP, 3 = SIR, 4 = SI.
    let pairings: Vec<(&'static str, Vec<usize>)> = vec![
        ("BMM + LEMP", vec![2]),
        ("BMM + FEXIPRO-SI", vec![4]),
        ("BMM + FEXIPRO-SIR", vec![3]),
        ("BMM + MAXIMUS", vec![1]),
        ("BMM + LEMP + MAXIMUS", vec![2, 1]),
    ];
    let mut accs: Vec<PairingAccumulator> = pairings
        .iter()
        .map(|(label, _)| PairingAccumulator {
            label,
            correct: 0,
            total: 0,
            overheads: Vec::new(),
            index_only_speedup: Vec::new(),
            optimus_speedup: Vec::new(),
            oracle_speedup: Vec::new(),
        })
        .collect();

    for spec in reference_models() {
        let model = build_model(&spec);
        let backends = figure5_backends(&spec, &model);
        for k in PAPER_KS {
            let times = measure_all(&model, &backends, k);
            let lemp_baseline = times[2];
            for (p, (_, index_ids)) in pairings.iter().enumerate() {
                let candidates: Vec<Arc<dyn SolverFactory>> = index_ids
                    .iter()
                    .map(|&i| Arc::clone(&backends[i].factory))
                    .collect();
                // True best among BMM + these indexes.
                let candidate_times: Vec<f64> = std::iter::once(times[0])
                    .chain(index_ids.iter().map(|&i| times[i]))
                    .collect();
                let best_time = candidate_times
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                let best_name = if best_time == times[0] {
                    "Blocked MM".to_string()
                } else {
                    let pos = index_ids
                        .iter()
                        .position(|&i| times[i] == best_time)
                        .expect("best among candidates");
                    backends[index_ids[pos]].name.to_string()
                };

                // Scaled-down analogue of the paper's 0.5% sample: the
                // L2-occupancy floor assumes ≥480k users and would swallow
                // 13-30% of our miniature user sets, so the bench shrinks
                // the floor along with everything else (see benchmark/README.md).
                let optimus = Optimus::new(OptimusConfig {
                    sample_fraction: 0.01,
                    cache: mips_linalg::CacheConfig {
                        l1_bytes: 1024,
                        l2_bytes: 2048,
                        l3_bytes: 4096,
                    },
                    ..OptimusConfig::default()
                });
                let t0 = Instant::now();
                let outcome = optimus.run(&model, k, &candidates);
                let optimus_total = t0.elapsed().as_secs_f64();

                let acc = &mut accs[p];
                acc.total += 1;
                if outcome.chosen == best_name {
                    acc.correct += 1;
                }
                acc.overheads
                    .push((optimus_total / best_time - 1.0).max(0.0));
                // "Index only": always use this pairing's (first) index.
                acc.index_only_speedup
                    .push(lemp_baseline / times[index_ids[0]]);
                acc.optimus_speedup.push(lemp_baseline / optimus_total);
                acc.oracle_speedup.push(lemp_baseline / best_time);
            }
        }
    }

    let mut table = Table::new(&[
        "Optimizer Choices",
        "Accuracy",
        "Avg Overhead",
        "Std Dev Overhead",
        "Index Only",
        "OPTIMUS (w/ overhead)",
        "Oracle (no overhead)",
    ]);
    for acc in &accs {
        table.row(vec![
            acc.label.to_string(),
            format!("{:.1}%", acc.correct as f64 / acc.total as f64 * 100.0),
            format!("{:.1}%", mean(&acc.overheads) * 100.0),
            format!("{:.1}%", std_dev(&acc.overheads) * 100.0),
            if acc.label.contains("LEMP + MAXIMUS") {
                "-".to_string()
            } else {
                format!("{:.2}x", mean(&acc.index_only_speedup))
            },
            format!("{:.2}x", mean(&acc.optimus_speedup)),
            format!("{:.2}x", mean(&acc.oracle_speedup)),
        ]);
    }
    table.print();
    println!(
        "\npaper row for comparison (BMM + MAXIMUS): 93.5% accuracy, 5.5% overhead, \
         1.78x index-only, 3.15x OPTIMUS, 3.43x oracle (all vs the LEMP-only baseline)."
    );
}
