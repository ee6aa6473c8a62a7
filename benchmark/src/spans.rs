//! In-memory spans recorded around calls into each layer's public API.
//! The program itself is not instrumented: every span is timed from the
//! benchmark's side of the call, kept in memory, and written out (JSON
//! lines) only when the run ends.

use std::io::Write;
use std::time::Instant;

use graphblas_primitives::CounterSnapshot;

/// The four charged-access classes of the Table 1 cost model. Only these
/// contract fields are read, so splitting the program's telemetry counters
/// does not break the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charges {
    pub matrix: u64,
    pub vector: u64,
    pub mask: u64,
    pub sort: u64,
}

impl Charges {
    #[must_use]
    pub fn total(&self) -> u64 {
        self.matrix + self.vector + self.mask + self.sort
    }

    pub fn add(&mut self, o: &Charges) {
        self.matrix += o.matrix;
        self.vector += o.vector;
        self.mask += o.mask;
        self.sort += o.sort;
    }
}

impl From<CounterSnapshot> for Charges {
    fn from(s: CounterSnapshot) -> Self {
        Self {
            matrix: s.matrix,
            vector: s.vector,
            mask: s.mask,
            sort: s.sort,
        }
    }
}

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The span this one runs inside; children never outlast it.
    pub parent: Option<usize>,
    /// The span whose work this one re-executes in isolation (a replayed
    /// BFS level), for spans measured after the fact.
    pub replays: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Charged accesses the call made (zero where not metered).
    pub charges: Charges,
}

impl Span {
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one run; times are ns since the tracer was created.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Record a span whose bounds are already known; returns its id.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        replays: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.push(Span {
            name,
            parent,
            replays,
            start_ns,
            end_ns,
            charges: Charges::default(),
        });
        (out, id)
    }

    /// Spans with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in ms of the spans with this name.
    #[must_use]
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// If `w` fails.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        let opt = |x: Option<usize>| x.map_or_else(|| "null".to_string(), |i| i.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"replays\":{},\"start_ns\":{},\"end_ns\":{},\"matrix\":{},\"vector\":{},\"mask\":{},\"sort\":{}}}",
                s.name,
                opt(s.parent),
                opt(s.replays),
                s.start_ns,
                s.end_ns,
                s.charges.matrix,
                s.charges.vector,
                s.charges.mask,
                s.charges.sort
            )?;
        }
        w.flush()
    }
}
