//! High-dimensional similarity search over word embeddings — the paper's
//! GloVe-Twitter workload (Table I): a small set of query vectors against a
//! large vocabulary, where the item catalog dwarfs the query set.
//!
//! ```sh
//! cargo run --release --example word_embeddings
//! ```

use optimus_maximus::prelude::*;
use std::sync::Arc;

fn main() {
    // The catalog's GloVe stand-in: per [33], a permutation of the embedding
    // set acts as queries ("users") and the remainder as items.
    let spec = reference_models()
        .into_iter()
        .find(|s| s.dataset == "GloVe" && s.f == 100)
        .expect("GloVe f=100 is in the catalog");
    let model = Arc::new(spec.build(0.5));
    println!(
        "{}: {} query vectors x {} vocabulary entries, f = {}",
        model.name(),
        model.num_users(),
        model.num_items(),
        model.num_factors()
    );

    // Serve the 10 nearest (by inner product) vocabulary entries for every
    // query with each registered backend and compare wall-clock.
    let k = 10;
    let engine = EngineBuilder::new()
        .model(Arc::clone(&model))
        .register(BmmFactory)
        .register(MaximusFactory::default())
        .register(LempFactory::default())
        .build()
        .expect("engine assembles");
    let request = QueryRequest::top_k(k);
    let mut reference: Option<Vec<TopKList>> = None;
    for key in engine.backend_keys() {
        let response = engine.execute_with(key, &request).expect("valid request");
        let build = engine.solver(key).expect("built").build_seconds();
        println!(
            "  {:<12} build {:>7.4}s  serve {:>7.4}s",
            response.backend, build, response.serve_seconds
        );
        match &reference {
            None => {
                check_all_topk(&model, k, &response.results).expect("exact");
                reference = Some(response.results);
            }
            Some(want) => {
                for (u, (got, expect)) in response.results.iter().zip(want).enumerate() {
                    assert_eq!(got.items, expect.items, "user {u} disagrees");
                }
            }
        }
    }

    // Show a few neighborhoods.
    let results = reference.expect("at least one strategy ran");
    println!("\nsample neighborhoods (query -> nearest vocabulary ids):");
    for (q, list) in results.iter().take(3).enumerate() {
        let ids: Vec<String> = list.iter().take(6).map(|(i, _)| i.to_string()).collect();
        println!("  query {q}: {}", ids.join(", "));
    }

    // Embeddings arrive incrementally in practice; serve one unseen vector
    // through MAXIMUS's dynamic-user path and cross-check against the
    // oracle scan.
    let maximus = MaximusIndex::build(Arc::clone(&model), &MaximusConfig::default());
    let novel: Vec<f64> = (0..model.num_factors())
        .map(|j| ((j as f64) * 0.37).sin())
        .collect();
    let fast = maximus.query_new_vector(&novel, 5);
    let slow = optimus_maximus::topk::exact_topk(&novel, model.items(), 5);
    assert_eq!(fast, slow);
    println!("\nunseen query served exactly via the dynamic-user path (§III-E)");
}
