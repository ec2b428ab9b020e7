//! Benchmark-side spans: one record around each call the benchmark makes
//! into a layer's public API. Nothing inside the library is instrumented —
//! that is a later change — so a span's name says which layer was *called*,
//! and nesting says which benchmark step made the call.
//!
//! Spans live in memory and are written out once, after measuring. With the
//! tracer disabled `begin`/`end` cost one branch, which is how the
//! end-to-end runs measure "tracing off".

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed interval. `request_id` ties the spans of one request together
/// (0 = not part of a request).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
    pub thread: u32,
}

/// A per-thread span recorder. Load-generator threads get their own via
/// [`Tracer::for_thread`] and are merged back with [`Tracer::absorb`], so
/// the hot path never takes a lock.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            enabled: self.enabled,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request_id,
            thread: self.thread,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span; spans close in the reverse of the order they opened.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must nest");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, 0);
        let out = f();
        self.end(open);
        out
    }

    /// Merges a finished thread recorder; its root spans stay roots.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn rollup(&self) -> Rollup {
        Rollup::of(&self.spans)
    }

    /// The whole trace as one JSON document: a name table, the spans as
    /// `[name, start_ns, end_ns, parent, request_id, thread]` rows (parent
    /// −1 for a root), and the rollup.
    pub fn to_json(&self, workload: &str, rollup: &Rollup) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::with_capacity(64 + 48 * self.spans.len());
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"names\":[");
        for (i, name) in names.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\"", if i == 0 { "" } else { "," });
        }
        out.push_str(
            "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request_id\",\"thread\"],\"spans\":[",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name is in the table");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}[{name},{},{},{parent},{},{}]",
                if i == 0 { "" } else { "," },
                s.start_ns,
                s.end_ns,
                s.request_id,
                s.thread
            );
        }
        out.push_str("],\"rollup\":[");
        for (i, row) in rollup.rows.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"busy_s\":{:.6},\"share\":{:.4}}}",
                if i == 0 { "" } else { "," },
                row.name,
                row.count,
                row.busy_s,
                row.share
            );
        }
        let _ = write!(out, "],\"accounted_share\":{:.4}}}", rollup.accounted_share);
        out
    }
}

/// Per-name totals of *self* time: a span's duration minus its direct
/// children's, so nested spans are not counted twice.
pub struct Rollup {
    /// Ordered by busy time, largest first.
    pub rows: Vec<RollupRow>,
    /// Σ root-span durations (main thread plus each load-generator thread).
    pub wall_s: f64,
    /// Share of `wall_s` spent inside a named child of a root span; the rest
    /// is the roots' own self time, i.e. benchmark code between calls.
    pub accounted_share: f64,
}

pub struct RollupRow {
    pub name: &'static str,
    pub count: u64,
    pub busy_s: f64,
    pub share: f64,
}

impl Rollup {
    fn of(spans: &[Span]) -> Rollup {
        let mut self_ns: Vec<i64> = spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in spans {
            if s.parent != NO_PARENT {
                self_ns[s.parent as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut rows: Vec<RollupRow> = Vec::new();
        let (mut wall_ns, mut root_self_ns) = (0i64, 0i64);
        for (s, &own) in spans.iter().zip(&self_ns) {
            let own = own.max(0);
            if s.parent == NO_PARENT {
                wall_ns += (s.end_ns - s.start_ns) as i64;
                root_self_ns += own;
            }
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(row) => {
                    row.count += 1;
                    row.busy_s += own as f64 * 1e-9;
                }
                None => rows.push(RollupRow {
                    name: s.name,
                    count: 1,
                    busy_s: own as f64 * 1e-9,
                    share: 0.0,
                }),
            }
        }
        let wall_s = (wall_ns as f64 * 1e-9).max(f64::MIN_POSITIVE);
        for row in &mut rows {
            row.share = row.busy_s / wall_s;
        }
        rows.sort_by(|a, b| b.busy_s.total_cmp(&a.busy_s));
        Rollup {
            rows,
            wall_s,
            accounted_share: 1.0 - root_self_ns as f64 * 1e-9 / wall_s,
        }
    }

    /// Busy seconds of every span whose name starts with `prefix`.
    #[cfg(test)]
    pub fn busy_s(&self, prefix: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.name.starts_with(prefix))
            .map(|r| r.busy_s)
            .sum()
    }

    /// The table `--trace 1` prints: where the run's wall time went.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<28} {:>9} {:>11} {:>7}\n",
            "span (self time)", "count", "busy_s", "share"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>11.4} {:>6.1}%",
                row.name,
                row.count,
                row.busy_s,
                100.0 * row.share
            );
        }
        let _ = writeln!(
            out,
            "wall {:.3} s over all traced threads; {:.1}% inside named calls",
            self.wall_s,
            100.0 * self.accounted_share
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_set_the_wall() {
        let spans = vec![
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                request_id: 0,
                thread: 0,
            },
            Span {
                name: "engine.execute",
                start_ns: 10,
                end_ns: 90,
                parent: 0,
                request_id: 0,
                thread: 0,
            },
            Span {
                name: "oracle.check",
                start_ns: 20,
                end_ns: 30,
                parent: 1,
                request_id: 0,
                thread: 0,
            },
        ];
        let rollup = Rollup::of(&spans);
        assert!((rollup.wall_s - 100e-9).abs() < 1e-15);
        assert!((rollup.busy_s("engine.") - 70e-9).abs() < 1e-15);
        assert!((rollup.busy_s("oracle.") - 10e-9).abs() < 1e-15);
        assert!((rollup.accounted_share - 0.8).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x", 1);
        t.end(open);
        assert!(t.rollup().rows.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Tracer::new(true);
        main.span("run", || ());
        let mut child = main.for_thread(1);
        let outer = child.begin("loadgen.thread", 0);
        child.span("client.send", || ());
        child.end(outer);
        main.absorb(child);
        let json = main.to_json("w", &main.rollup());
        assert!(json.contains("\"names\":[\"client.send\",\"loadgen.thread\",\"run\"]"));
        // client.send's parent is loadgen.thread, now at index 1.
        assert_eq!(main.spans[2].parent, 1);
    }
}
