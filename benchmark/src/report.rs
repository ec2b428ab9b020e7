//! Names: the workloads, the metrics each run must report, and the result
//! line the driver reads. `BENCHMARK.json` carries the same names; a unit
//! test keeps the two in step.

use optimus_maximus::prelude::{Engine, MfModel};
use std::fmt::Write as _;
use std::sync::Arc;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "batch-dense",
        why: "flat-norm model, top-k for all users via Engine::execute: brute force wins, so GEMM, fused top-k and the f32/i8 screens do the work",
    },
    WorkloadSpec {
        name: "batch-index",
        why: "direction-clustered model, same protocol: planner sampling and index builds are most of cold time, pruned scans the rest, GEMM almost none",
    },
    WorkloadSpec {
        name: "serve-burst",
        why: "dense model over HTTP, 2 connections pipelined to depth 8 against 2 workers: a queue forms, so coalescing and batched query_subset carry the load",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees; every workload reports every one, with
/// tracing off.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("cold_s", "s", "lower", 0.25),
    e2e("answers_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// One layer each, from the traced run. Prefix = the module called.
pub const PER_LAYER: [MetricSpec; 52] = [
    layer("data.model_new_s", "s", "lower"),
    layer("linalg.gemm_f64_gflops", "GFLOP/s", "higher"),
    layer("linalg.gemm_f32_gflops", "GFLOP/s", "higher"),
    layer("linalg.dot_i8_gops", "GOP/s", "higher"),
    layer("linalg.gemm_bytes", "MB", "lower"),
    layer("topk.fused_s", "s", "lower"),
    layer("topk.select_s", "s", "lower"),
    layer("topk.screen_survivor_ratio_f32", "ratio", "lower"),
    layer("topk.screen_survivor_ratio_i8", "ratio", "lower"),
    layer("clustering.kmeans_s", "s", "lower"),
    layer("bmm.serve_s", "s", "lower"),
    layer("maximus.build_s", "s", "lower"),
    layer("maximus.serve_s", "s", "lower"),
    layer("lemp.build_s", "s", "lower"),
    layer("lemp.serve_s", "s", "lower"),
    layer("fexipro.build_s", "s", "lower"),
    layer("fexipro.serve_s", "s", "lower"),
    layer("precision.f64_s", "s", "lower"),
    layer("precision.f32_s", "s", "lower"),
    layer("precision.i8_s", "s", "lower"),
    layer("precision.auto_regret", "ratio", "lower"),
    layer("optimus.plan_s", "s", "lower"),
    layer("optimus.plan_share", "ratio", "lower"),
    layer("optimus.regret", "ratio", "lower"),
    layer("optimus.plan_flips", "count", "lower"),
    layer("optimus.bmm_share", "ratio", "higher"),
    layer("engine.build_s", "s", "lower"),
    layer("engine.overhead_ratio", "ratio", "lower"),
    layer("engine.point_us", "us", "lower"),
    layer("engine.swap_ack_ms", "ms", "lower"),
    layer("engine.replan_ms", "ms", "lower"),
    layer("parallel.scaling_ratio", "ratio", "higher"),
    layer("serve.inproc_p50_us", "us", "lower"),
    layer("serve.inproc_p99_us", "us", "lower"),
    layer("serve.runtime_overhead_us", "us", "lower"),
    layer("serve.mean_batch", "ratio", "higher"),
    layer("serve.coalesced_share", "ratio", "higher"),
    layer("serve.busy_share", "ratio", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.swap_goodput_ratio", "ratio", "higher"),
    layer("serve.swap_stall_ms", "ms", "lower"),
    layer("net.boot_rate_spread", "ratio", "lower"),
    layer("net.p50_us", "us", "lower"),
    layer("net.p99_us", "us", "lower"),
    layer("net.wire_overhead_us", "us", "lower"),
    layer("net.parse_us", "us", "lower"),
    layer("net.decode_us", "us", "lower"),
    layer("net.encode_us", "us", "lower"),
    layer("net.responses_5xx", "count", "lower"),
    layer("net.rejected_overload", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.accounted_share", "ratio", "higher"),
];

/// Metric values by name, in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} is reported twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// What one run of one workload found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A finished workload: its result, plus what the layer probes of a traced
/// run pick up from it.
pub struct WorkloadRun {
    pub outcome: Outcome,
    /// The model the last fresh system served.
    pub model: Arc<MfModel>,
    /// That system's engine, planned at every k the workload uses.
    pub engine: Arc<Engine>,
    /// Layer numbers only the workload body can see (traced runs only).
    pub observed: Metrics,
}

impl Outcome {
    /// The driver's result line: exactly the metrics of `specs`, each with
    /// its unit and every digit measured.
    ///
    /// # Panics
    /// Panics when a metric of `specs` was not measured or one outside it
    /// was: the run's metric set is part of the contract.
    pub fn to_json(&self, specs: &[MetricSpec]) -> String {
        for (name, _) in &self.metrics.0 {
            assert!(
                specs.iter().any(|s| s.name == *name),
                "metric {name} is not in the spec"
            );
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, spec) in specs.iter().enumerate() {
            let value = self
                .metrics
                .get(spec.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
            assert!(value.is_finite(), "metric {} is {value}", spec.name);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                spec.name,
                spec.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_maximus::net::json::{self, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("entry has no string {key}"))
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key}"))
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = manifest();
        let listed: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let doc = manifest();
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str, &str)> = entries(&doc, key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                specs.iter().map(|s| (s.name, s.unit, s.better)).collect();
            assert_eq!(listed, ours, "{key}");
            if key == "end_to_end" {
                for (entry, spec) in entries(&doc, key).iter().zip(specs) {
                    let bound = entry.get("bound").and_then(Json::as_num);
                    assert_eq!(bound, Some(spec.bound), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn result_line_carries_exactly_the_spec() {
        let mut metrics = Metrics::default();
        for spec in &END_TO_END {
            metrics.set(spec.name, 1.5);
        }
        let line = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json(&END_TO_END);
        let doc = json::parse(&line).expect("result line parses");
        assert_eq!(doc.as_obj().map(<[_]>::len), Some(4));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let reported = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(reported.len(), END_TO_END.len());
        assert_eq!(reported[0].1.get("unit").and_then(Json::as_str), Some("s"));
    }
}
