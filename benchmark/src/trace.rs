//! Spans of the traced run, recorded from this side of each crate's public
//! API: one parent span per pass, one child per batch of calls. Spans stay in
//! memory and are written out when the run ends.

use crate::json::Json;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls per child span.
pub const BATCH: usize = 1024;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a pass (no parent).
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

/// Totals of one pass. `busy_ns` is the time inside its child spans; the
/// pass's self time (`wall_ns - busy_ns`) is what tracing itself cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub wall_ns: u64,
}

impl PassStats {
    /// Mean nanoseconds per call, 0 for a pass that made none.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }
}

/// An open pass: the index of its parent span.
#[derive(Debug, Clone, Copy)]
pub struct PassId(usize);

struct OpenPass {
    started: Instant,
    stats: PassStats,
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: HashMap<usize, OpenPass>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: HashMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a pass of `layer`: its parent span. Several passes may be open
    /// at once (the layers of one write are replayed side by side).
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> PassId {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent: 0, layer, name, start_ns, end_ns: start_ns, calls: 0 });
        let pass = PassId(id as usize - 1);
        self.open.insert(pass.0, OpenPass { started: Instant::now(), stats: PassStats::default() });
        pass
    }

    /// Times `work`, which makes `calls` calls into the layer, as one child
    /// span of `pass`.
    pub fn batch<R>(&mut self, pass: PassId, calls: u64, work: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        let parent = &self.spans[pass.0];
        let (parent, layer, name) = (parent.id, parent.layer, parent.name);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, layer, name, start_ns, end_ns, calls });
        let stats = &mut self.open.get_mut(&pass.0).expect("pass is open").stats;
        stats.calls += calls;
        stats.busy_ns += end_ns - start_ns;
        result
    }

    /// True once `pass` has been open for `budget`.
    pub fn spent(&self, pass: PassId, budget: Duration) -> bool {
        self.open[&pass.0].started.elapsed() >= budget
    }

    /// Closes `pass` and returns its totals.
    pub fn close(&mut self, pass: PassId) -> PassStats {
        let mut stats = self.open.remove(&pass.0).expect("pass is open").stats;
        let end_ns = self.now_ns();
        let parent = &mut self.spans[pass.0];
        parent.end_ns = end_ns;
        parent.calls = stats.calls;
        stats.wall_ns = end_ns - parent.start_ns;
        stats
    }

    /// A pass of a single batch.
    pub fn single<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        calls: u64,
        work: impl FnOnce() -> R,
    ) -> (R, PassStats) {
        let pass = self.open(layer, name);
        let result = self.batch(pass, calls, work);
        (result, self.close(pass))
    }

    /// A pass that calls `call` once per item, [`BATCH`] items per child
    /// span.
    pub fn once<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        items: &[T],
        mut call: impl FnMut(&T),
    ) -> PassStats {
        let pass = self.open(layer, name);
        for batch in items.chunks(BATCH) {
            self.batch(pass, batch.len() as u64, || batch.iter().for_each(&mut call));
        }
        self.close(pass)
    }

    /// [`Tracer::once`], cycling over `items` until `budget` has passed.
    pub fn cycling<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        items: &[T],
        budget: Duration,
        mut call: impl FnMut(&T),
    ) -> PassStats {
        assert!(!items.is_empty(), "{layer}.{name}: empty stream");
        let pass = self.open(layer, name);
        for batch in items.chunks(BATCH).cycle() {
            self.batch(pass, batch.len() as u64, || batch.iter().for_each(&mut call));
            if self.spent(pass, budget) {
                break;
            }
        }
        self.close(pass)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans to `path`, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", if s.parent == 0 { Json::Null } else { Json::Num(s.parent as f64) }),
                ("workload", Json::str(self.workload)),
                ("layer", Json::str(s.layer)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("calls", Json::Num(s.calls as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_pass_and_self_time_is_the_rest() {
        let mut t = Tracer::new("w");
        let items = vec![0u64; 3 * BATCH];
        let stats = t.once("layer", "op", &items, |x| {
            std::hint::black_box(x);
        });
        assert_eq!(stats.calls, 3 * BATCH as u64);
        assert!(stats.busy_ns <= stats.wall_ns);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let parent = &spans[0];
        assert_eq!((parent.parent, parent.calls), (0, 3 * BATCH as u64));
        for child in &spans[1..] {
            assert_eq!(child.parent, parent.id);
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
    }

    #[test]
    fn passes_open_side_by_side_keep_their_own_children() {
        let mut t = Tracer::new("w");
        let (a, b) = (t.open("x", "a"), t.open("y", "b"));
        t.batch(a, 2, || ());
        t.batch(b, 3, || ());
        t.batch(a, 2, || ());
        assert_eq!((t.close(a).calls, t.close(b).calls), (4, 3));
        let of = |parent: u32| t.spans().iter().filter(|s| s.parent == parent).count();
        assert_eq!((of(1), of(2)), (2, 1));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new("w");
        t.single("layer", "op", 1, || ());
        let path =
            std::env::temp_dir().join(format!("mvkv-benchmark-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(1.0));
        for key in ["id", "workload", "layer", "name", "start_ns", "end_ns", "calls"] {
            assert!(lines[1].get(key).is_some(), "{key}");
        }
    }
}
