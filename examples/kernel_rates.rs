//! Kernel rates against a measured peak: each register tile's GFLOP/s (or
//! GOP/s), alone and through the packed driver, beside a register-only
//! multiply-add loop timed in the same process — ROADMAP aim 1's "kernels
//! against the machine". The shape is the benchmark's dense model
//! (512 users × 5200 items × f 50), so the driver rows are the per-score
//! costs the BMM scan pays. Three more f64 rows time a MAXIMUS pass, which
//! reads the catalog by id: B gathered and packed per call, for the block
//! and for one user, and one user's 16-chain dot straight from the rows —
//! the two one-row rates the walk's chain cutoff is read from.
//!
//! A last table adds the selection: multiply + top-k per score at
//! k = 1, 10, 50 for the f64 fused select and the f32 / i8 screens (with
//! their exact rescore), on a seeded model of the benchmark's dense shape —
//! the per-layer view of how selection cost grows with k.
//!
//! ```sh
//! cargo run --release --example kernel_rates            # dispatched kernels
//! MIPS_KERNEL=scalar cargo run --release --example kernel_rates
//! ```

use optimus_maximus::data::synth::{synth_model, SynthConfig};
use optimus_maximus::data::{MfModel, MirrorElem};
use optimus_maximus::linalg::simd::{self, PeakOp};
use optimus_maximus::linalg::{
    chain_nt_stream_blocks_with, gemm_flops, gemm_nt_into, gemm_nt_stream_blocks, GemmB, GemmElem,
    GemmScratch, PackedPanels, RowBlock, TierView,
};
use optimus_maximus::topk::{
    screen_parts_topk_into_heaps, stream_topk_into_heaps, ColumnIds, ScreenScratch, TopKHeap,
};
use std::hint::black_box;
use std::time::Instant;

const USERS: usize = 512;
const ITEMS: usize = 5200;
const FACTORS: usize = 50;

/// Best seconds of five runs after one warm-up.
fn best_of_5(mut work: impl FnMut()) -> f64 {
    work();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Register-only peak of `op` in giga-operations per second.
fn peak(op: PeakOp) -> f64 {
    let kern = simd::active();
    let rounds = 2_000_000u64;
    let seconds = best_of_5(|| {
        black_box(kern.peak(op, black_box(rounds)));
    });
    (rounds * kern.peak_ops_per_round(op)) as f64 / seconds * 1e-9
}

/// `rows × FACTORS` pseudo-random values mapped into `T`.
fn operand<T>(rows: usize, seed: u64, map: impl Fn(f64) -> T) -> Vec<T> {
    let mut state = seed | 1;
    (0..rows * FACTORS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            map(((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
        })
        .collect()
}

/// One element type's four rows: the tile alone on L1-resident panels,
/// the driver packing B per call, and the driver streaming blocks off
/// panels packed once, for the whole user block and for one user.
fn report<T: GemmElem>(name: &str, unit: &str, peak: f64, map: impl Fn(f64) -> T) {
    let kern = simd::active();
    let giga = |ops: f64, seconds: f64| ops / seconds * 1e-9;
    let row = |what: &str, rate: f64| {
        println!(
            "{name:<4} {what:<34} {rate:8.2} {unit}  {:5.1} % of peak",
            100.0 * rate / peak
        );
    };

    // The tile alone: one MR × NR tile over a padded depth, repeated.
    let depth = FACTORS.div_ceil(T::KGROUP) * T::KGROUP;
    let a = vec![map(0.5).to_panel(); depth * T::MR];
    let b = vec![map(-0.25).to_panel(); depth * T::NR];
    let mut c = vec![T::Acc::default(); T::MR * T::NR];
    let tile = T::tile(kern);
    let reps = 200_000usize;
    let seconds = best_of_5(|| {
        for _ in 0..reps {
            tile(black_box(&a), black_box(&b), &mut c, T::NR, false);
        }
        black_box(&c);
    });
    let tile_ops = gemm_flops(T::MR, T::NR, FACTORS) * reps as f64;
    row("tile, panels in L1", giga(tile_ops, seconds));

    let users = operand(USERS, 7, &map);
    let items = operand(ITEMS, 11, &map);
    let users = RowBlock::new(&users, USERS, FACTORS);
    let items = RowBlock::new(&items, ITEMS, FACTORS);
    let ops = gemm_flops(USERS, ITEMS, FACTORS);

    let mut scores = vec![T::Acc::default(); USERS * ITEMS];
    let seconds = best_of_5(|| gemm_nt_into(users, items, black_box(&mut scores)));
    row("gemm_nt_into, B packed per call", giga(ops, seconds));

    let panels = PackedPanels::pack(items);
    let mut scratch = GemmScratch::new();
    let seconds = best_of_5(|| {
        gemm_nt_stream_blocks(users, (&panels).into(), &mut scratch, |block, _, _| {
            black_box(block);
        });
    });
    row("stream blocks, B packed once", giga(ops, seconds));

    // A single-user lookup: one row of A against the same panels, so a
    // tile short of `MR` rows shows its cost beside the full ones.
    let one = RowBlock::new(&users.as_slice()[..FACTORS], 1, FACTORS);
    let reps = 50;
    let seconds = best_of_5(|| {
        for _ in 0..reps {
            gemm_nt_stream_blocks(one, (&panels).into(), &mut scratch, |block, _, _| {
                black_box(block);
            });
        }
    });
    let one_ops = gemm_flops(1, ITEMS, FACTORS) * reps as f64;
    row("stream blocks, 1 row", giga(one_ops, seconds));
}

/// The f64 rows of a MAXIMUS pass, which keeps no packed copy of its list:
/// the items in list order (a fixed shuffle of the catalog) are rows read
/// by id, packed into the scratch per call — for the whole user block and
/// for one user — or scored for one user by sixteen chains straight from
/// the rows. The last two rows give the walk's chain cutoff
/// (`CHAIN_WALKERS` in `crates/core/src/maximus/mod.rs`): a pass of up to
/// `MR` users costs the gathered multiply about its one-row time, and the
/// chains that many one-row times.
fn report_gathered(peak: f64) {
    let kern = simd::active();
    let row = |what: &str, ops: f64, seconds: f64| {
        let rate = ops / seconds * 1e-9;
        println!(
            "f64  {what:<34} {rate:8.2} GFLOP/s  {:5.1} % of peak",
            100.0 * rate / peak
        );
    };
    let users = operand(USERS, 7, |v| v);
    let items = operand(ITEMS, 11, |v| v);
    let users = RowBlock::new(&users, USERS, FACTORS);
    let items = RowBlock::new(&items, ITEMS, FACTORS);
    let ids: Vec<u32> = (0..ITEMS as u64)
        .map(|i| (i * 2_654_435_761 % ITEMS as u64) as u32)
        .collect();
    let gathered = GemmB::Gathered(items, &ids);
    let mut scratch = GemmScratch::new();

    let seconds = best_of_5(|| {
        gemm_nt_stream_blocks(users, gathered, &mut scratch, |block, _, _| {
            black_box(block);
        });
    });
    row(
        "stream blocks, B gathered per call",
        gemm_flops(USERS, ITEMS, FACTORS),
        seconds,
    );

    let one = RowBlock::new(&users.as_slice()[..FACTORS], 1, FACTORS);
    let reps = 50;
    let one_ops = gemm_flops(1, ITEMS, FACTORS) * reps as f64;
    let seconds = best_of_5(|| {
        for _ in 0..reps {
            gemm_nt_stream_blocks(one, gathered, &mut scratch, |block, _, _| {
                black_box(block);
            });
        }
    });
    row("stream blocks, B gathered, 1 row", one_ops, seconds);

    let seconds = best_of_5(|| {
        for _ in 0..reps {
            let blocks = &f64::BLOCKS;
            chain_nt_stream_blocks_with(kern, one, items, &ids, blocks, &mut scratch, |b, _, _| {
                black_box(b);
            });
        }
    });
    row("16-chain gathered dot, 1 row", one_ops, seconds);
}

/// The k values of the select table: the benchmark's batch ks.
const SELECT_KS: [usize; 3] = [1, 10, 50];

/// One row of the select table: ns per score of a pass at `k`.
type SelectRow = fn(&MfModel, usize) -> f64;

/// Nanoseconds per (user, item) score of one multiply + select pass.
fn ns_per_score(model: &MfModel, seconds: f64) -> f64 {
    seconds * 1e9 / (model.num_users() * model.num_items()) as f64
}

/// The f64 row of the select table: the fused multiply + top-k off the
/// catalog panels packed once.
fn select_f64(model: &MfModel, k: usize) -> f64 {
    let panels = PackedPanels::pack(model.items().into());
    let mut scratch = GemmScratch::new();
    let seconds = best_of_5(|| {
        let mut heaps = vec![TopKHeap::new(k); model.num_users()];
        stream_topk_into_heaps(
            model.users().into(),
            (&panels).into(),
            &mut heaps,
            ColumnIds::Offset(0),
            &mut scratch,
        );
        black_box(heaps);
    });
    ns_per_score(model, seconds)
}

/// A screen tier's row: its multiply + screen select + exact rescore.
fn select_screen<T: MirrorElem>(model: &MfModel, k: usize) -> f64 {
    let mirror = model.mirror::<T>();
    let rows = mirror.items();
    let panels = PackedPanels::pack(rows.row_block(0, rows.rows()));
    let items = TierView::packed((&panels).into(), rows.terms());
    let mut scratch = ScreenScratch::new();
    let seconds = best_of_5(|| {
        let mut heaps = vec![TopKHeap::new(k); model.num_users()];
        screen_parts_topk_into_heaps(
            model.users().into(),
            model.items().into(),
            mirror.users().view(),
            &[(items, ColumnIds::Offset(0))],
            &mut heaps,
            &mut scratch,
        );
        black_box(heaps);
    });
    ns_per_score(model, seconds)
}

fn select_table() {
    // The benchmark's dense model (`benchmark/src/models.rs`), cut to
    // `USERS` users.
    let model = synth_model(&SynthConfig {
        num_users: USERS,
        num_items: ITEMS,
        num_factors: FACTORS,
        seed: 3,
        user_clusters: 6,
        user_spread: 1.30,
        item_norm_skew: 0.08,
        spectral_decay: 1.00,
    });
    println!("select: multiply + top-k, ns per score (dense synth model, seed 3)");
    println!("tier       k=1     k=10     k=50   k=50 / k=1");
    let rows: [(&str, SelectRow); 3] = [
        ("f64", select_f64),
        ("f32", select_screen::<f32>),
        ("i8", select_screen::<i8>),
    ];
    for (name, run) in rows {
        let ns = SELECT_KS.map(|k| run(&model, k));
        println!(
            "{name:<4} {:8.2} {:8.2} {:8.2} {:10.2}",
            ns[0],
            ns[1],
            ns[2],
            ns[2] / ns[0]
        );
    }
}

fn main() {
    let kern = simd::active();
    println!(
        "kernel set: {}; shape {USERS} x {ITEMS} x f {FACTORS}; 1 thread",
        kern.name()
    );
    let (p64, p32, p16) = (
        peak(PeakOp::FmaF64),
        peak(PeakOp::FmaF32),
        peak(PeakOp::MaddI16),
    );
    println!("peak f64 FMA            {p64:8.2} GFLOP/s");
    println!("peak f32 FMA            {p32:8.2} GFLOP/s");
    println!("peak i16 multiply-add   {p16:8.2} GOP/s");
    report::<f64>("f64", "GFLOP/s", p64, |v| v);
    report_gathered(p64);
    report::<f32>("f32", "GFLOP/s", p32, |v| v as f32);
    report::<i8>("i8", "GOP/s  ", p16, |v| {
        i8::try_from((v * 127.0).round() as i32).expect("|v| <= 1 maps into the code range")
    });
    select_table();
}
