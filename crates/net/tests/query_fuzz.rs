//! Seeded wire fuzzer for `POST /query`.
//!
//! Adversarial bodies go to a loopback server over real sockets: `k` of 0,
//! one past the catalog and 2^64 − 1; ids that are duplicated, out of range
//! or `u64::MAX`; empty id lists; ranges with `lo ≥ hi` or past the last
//! user; `"all"` with exclusions of out-of-range items; `1e999`, `-0` and
//! `1.5` in integer fields; and id lists longer than `max_batch`, which the
//! runtime cuts into pieces. Every answer must be a 2xx carrying exactly
//! what [`Engine::execute`] returns for the decoded request, or a typed 4xx
//! (`{"error": .., "status": ..}`) for a request the decoder or the engine
//! rejects — never a 5xx, a hang or a dropped connection — and a fresh
//! connection must be answered afterwards.

use mips_core::engine::{Engine, EngineBuilder};
use mips_core::serve::ServerBuilder;
use mips_data::synth::{synth_model, SynthConfig};
use mips_net::client::Client;
use mips_net::json::{self, Json};
use mips_net::{HttpServer, HttpServerBuilder};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const USERS: usize = 40;
const ITEMS: usize = 50;
const MAX_BATCH: usize = 8;

/// A fresh engine over a small model behind a two-worker server whose
/// micro-batches hold `MAX_BATCH` users.
fn stack() -> (Arc<Engine>, HttpServer) {
    let model = Arc::new(synth_model(&SynthConfig {
        num_users: USERS,
        num_items: ITEMS,
        num_factors: 6,
        seed: 29,
        ..SynthConfig::default()
    }));
    let engine = Arc::new(
        EngineBuilder::new()
            .model(model)
            .with_default_backends()
            .build()
            .unwrap(),
    );
    let server = ServerBuilder::new()
        .engine(Arc::clone(&engine))
        .workers(2)
        .max_batch(MAX_BATCH)
        .build()
        .unwrap();
    let http = HttpServerBuilder::new()
        .server(Arc::new(server))
        .build()
        .unwrap();
    (engine, http)
}

/// Numbers no integer field accepts as written, plus `-0`, which reads
/// as 0.
const ODD_NUMBERS: [&str; 5] = ["1e999", "-0", "1.5", "18446744073709551615", "-3"];

fn odd_number() -> impl Strategy<Value = String> {
    (0..ODD_NUMBERS.len()).prop_map(|i| ODD_NUMBERS[i].to_string())
}

/// A `k`: 0, one past the catalog, 2^64 − 1, an odd number, or valid.
fn k_field() -> impl Strategy<Value = String> {
    (0usize..8, 1..=ITEMS, odd_number()).prop_map(|(pick, k, odd)| match pick {
        0 => "0".to_string(),
        1 => (ITEMS + 1).to_string(),
        2 => u64::MAX.to_string(),
        3 => odd,
        _ => k.to_string(),
    })
}

/// One user id: out of range, `u64::MAX`, an odd number, or valid.
fn user_id() -> impl Strategy<Value = String> {
    (0usize..10, 0..USERS, odd_number()).prop_map(|(pick, user, odd)| match pick {
        0 => (USERS + user).to_string(),
        1 => u64::MAX.to_string(),
        2 => odd,
        _ => user.to_string(),
    })
}

fn id_list(ids: Vec<String>) -> String {
    format!("[{}]", ids.join(", "))
}

/// The `users` field, `None` to leave it out (every user).
fn users_field() -> impl Strategy<Value = Option<String>> {
    (
        0usize..8,
        vec(user_id(), 1..=2 * MAX_BATCH),
        vec(0..USERS, MAX_BATCH + 1..=4 * MAX_BATCH),
        (0..USERS, 0..USERS, 1usize..10),
    )
        .prop_map(|(pick, mixed, long, (a, b, past))| match pick {
            0 => None,
            1 => Some("\"all\"".to_string()),
            2 => Some("[]".to_string()),
            3 => Some(id_list(mixed)),
            // Valid ids, repeats likely, more of them than one batch holds.
            4 => Some(id_list(long.iter().map(usize::to_string).collect())),
            5 => Some(format!("{{\"range\": [{}, {}]}}", a.max(b), a.min(b))),
            6 => Some(format!("{{\"range\": [{a}, {}]}}", USERS + past)),
            _ => Some(format!("{{\"range\": [{}, {}]}}", a.min(b), a.max(b) + 1)),
        })
}

/// The `exclude` field, `None` to leave it out: items out of range (past
/// the catalog, past `u32`, odd numbers) or valid, for one valid user.
fn exclude_field() -> impl Strategy<Value = Option<String>> {
    (
        0usize..4,
        0..USERS,
        vec(0..ITEMS, 1..4),
        (0..ITEMS, odd_number()),
    )
        .prop_map(|(pick, user, items, (past, odd))| {
            let mut items: Vec<String> = items.iter().map(usize::to_string).collect();
            match pick {
                0 | 1 => return None,
                2 => items.extend([(ITEMS + past).to_string(), (1u64 << 32).to_string(), odd]),
                _ => {}
            }
            Some(format!("{{\"{user}\": {}}}", id_list(items)))
        })
}

fn body() -> impl Strategy<Value = String> {
    (k_field(), users_field(), exclude_field()).prop_map(|(k, users, exclude)| {
        let mut fields = vec![format!("\"k\": {k}")];
        fields.extend(users.map(|users| format!("\"users\": {users}")));
        fields.extend(exclude.map(|exclude| format!("\"exclude\": {exclude}")));
        format!("{{{}}}", fields.join(", "))
    })
}

/// Each result row's item ids and score bits.
fn rows(doc: &Json) -> Vec<(Vec<u64>, Vec<u64>)> {
    let field = |row: &Json, key: &str, read: fn(&Json) -> Option<u64>| -> Vec<u64> {
        let values = row.get(key).and_then(Json::as_arr).expect("a result array");
        values.iter().map(|v| read(v).expect("a number")).collect()
    };
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    results
        .iter()
        .map(|row| {
            (
                field(row, "items", Json::as_u64),
                field(row, "scores", |s| s.as_num().map(f64::to_bits)),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every adversarial body gets the in-process answer as a 2xx or a
    /// typed 4xx, and the server keeps taking connections.
    #[test]
    fn adversarial_query_bodies_get_the_engine_answer_or_a_typed_4xx(
        bodies in vec(body(), 64)
    ) {
        let (engine, http) = stack();
        // Answers seen: 2xx, 2xx cut into pieces (over `MAX_BATCH` users),
        // and typed 4xx.
        let mut seen = [0usize; 3];
        for body in &bodies {
            let mut client = Client::connect(http.local_addr()).unwrap();
            let response = client.request("POST", "/query", Some(body)).unwrap();
            let doc = json::parse(&response.body)
                .unwrap_or_else(|e| panic!("{body}: unparseable answer {e}: {}", response.body));
            // The same body, decoded and served in process.
            let expected = json::decode_query_request(body.as_bytes())
                .map_err(|_| None)
                .and_then(|request| engine.execute(&request).map_err(Some));
            match response.status {
                200..=299 => {
                    let want = expected.unwrap_or_else(|e| panic!("{body}: 2xx, in process {e:?}"));
                    let want: Vec<(Vec<u64>, Vec<u64>)> = want
                        .results
                        .iter()
                        .map(|list| {
                            let items = list.items.iter().map(|&i| u64::from(i)).collect();
                            (items, list.scores.iter().map(|s| s.to_bits()).collect())
                        })
                        .collect();
                    seen[0] += 1;
                    seen[1] += usize::from(want.len() > MAX_BATCH);
                    prop_assert_eq!(rows(&doc), want, "{}", body);
                }
                400..=499 => {
                    seen[2] += 1;
                    prop_assert!(doc.get("error").and_then(Json::as_str).is_some(), "{}", body);
                    prop_assert_eq!(
                        doc.get("status").and_then(Json::as_u64),
                        Some(u64::from(response.status))
                    );
                    match expected {
                        Err(None) => {}
                        Err(Some(error)) => {
                            prop_assert!(error.is_client_error(), "{}: {:?}", body, error);
                            prop_assert_eq!(error.http_status(), response.status);
                        }
                        Ok(_) => prop_assert!(false, "{}: 4xx, served in process", body),
                    }
                }
                status => prop_assert!(false, "{}: status {}: {}", body, status, response.body),
            }
            let mut fresh = Client::connect(http.local_addr()).unwrap();
            prop_assert_eq!(fresh.request("GET", "/healthz", None).unwrap().status, 200);
        }
        prop_assert!(seen.iter().all(|&n| n > 0), "{:?}", seen);
        let net = http.shutdown().unwrap();
        prop_assert_eq!(net.responses_5xx, 0);
    }
}
