//! Quickstart: assemble an engine, let the planner pick a backend, read the
//! recommendations.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use optimus_maximus::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), MipsError> {
    // A synthetic matrix-factorization model standing in for a trained
    // recommender: 2,000 users and 1,500 items with 32 latent factors.
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: 2000,
        num_items: 1500,
        num_factors: 32,
        ..SynthConfig::default()
    }));
    println!(
        "model: {} users x {} items, f = {}",
        model.num_users(),
        model.num_items(),
        model.num_factors()
    );

    // The engine decides online whether this model is worth indexing: its
    // planner builds the candidates, times them on a small user sample, and
    // caches the winner. The item blocking factor B is scaled to the
    // catalog size (the paper's B = 4096 assumes 20k-1M items).
    let maximus = MaximusConfig {
        block_size: (model.num_items() / 16).max(16),
        ..MaximusConfig::default()
    };
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(MaximusFactory::new(maximus))
        .build()?;

    let plan = engine.prepare(5)?;
    println!(
        "\nplanner sampled {} users and chose: {} (key {:?})",
        plan.sample_size(),
        plan.backend_name(),
        plan.backend_key()
    );
    for estimate in plan.estimates() {
        println!(
            "  {:<12} estimated total {:>8.3}s (build {:>6.4}s, sampled {} users in {:.4}s)",
            estimate.name,
            estimate.estimated_total_seconds,
            estimate.build_seconds,
            estimate.sampled_users,
            estimate.sample_seconds,
        );
    }
    println!("decision overhead {:.3}s", plan.decision_seconds());

    // Serving goes through the cached plan — no re-sampling.
    let response = engine.execute(&QueryRequest::top_k(5))?;
    assert_eq!(engine.planner_runs(), 1);

    // Top-5 recommendations for the first three users.
    println!("\ntop-5 recommendations (served by {}):", response.backend);
    for user in 0..3 {
        let list = &response.results[user];
        let pretty: Vec<String> = list
            .iter()
            .map(|(item, score)| format!("item {item} ({score:.3})"))
            .collect();
        println!("  user {user}: {}", pretty.join(", "));
    }

    // A recommender never re-surfaces what a user has already seen: exclude
    // each of those users' top two items and serve them again. The filtered
    // lists continue exactly where the excluded items left off.
    let seen = ExclusionSet::from_pairs(
        (0..3).flat_map(|u| response.results[u].items[..2].iter().map(move |&i| (u, i))),
    );
    let filtered = engine.execute(&QueryRequest::top_k(5).users(vec![0, 1, 2]).exclude(seen))?;
    for (user, list) in filtered.results.iter().enumerate() {
        assert_eq!(list.items[..3], response.results[user].items[2..]);
    }
    println!("excluding each one's top two items shifts their lists up by two");

    // Malformed requests come back as typed errors, never panics.
    let err = engine.execute(&QueryRequest::top_k(0)).unwrap_err();
    println!("\nk = 0 rejected gracefully: {err}");

    // Every result is exact — verify against a freshly computed reference.
    check_all_topk(&model, 5, &response.results).expect("exact top-k");
    println!(
        "verified: all {} results exactly match brute force",
        response.results.len()
    );
    Ok(())
}
