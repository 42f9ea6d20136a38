//! In-memory span ledger for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public function: a name (the [`Layer`]), start and end, the
//! span that caused it and the request it belongs to. They stay in
//! memory until the run ends; [`Tracer::ledger`] then folds them into
//! per-layer call counts, inclusive time and self time (a span's
//! duration minus the part its child spans cover).
//!
//! With tracing off every call goes straight through and no clock is
//! read, so the same pipeline code measures the tracing overhead.

use std::time::Instant;

/// The layers the ledger charges time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One request through the shard worker's call sequence (root span;
    /// its self time is what no layer span covers).
    Request,
    /// `IngressWriter::append`.
    IngressAppend,
    /// `IngressWriter::sync`.
    IngressSync,
    /// `ShardRunner::admit` (instruction engine, memory model, monitor,
    /// delta backup and compartments).
    EngineAdmit,
    /// `DigestCache::digest`.
    Digest,
    /// `ShardRunner::freeze`.
    CkptFreeze,
    /// `ShardCheckpointWriter::checkpoint` (encode + write + fsync).
    CkptWrite,
    /// `SnapshotStore::load_shard` on restart.
    RecoverLoad,
    /// `IngressWriter::recover` on restart.
    RecoverLogRead,
    /// `ShardRunner::from_log` on restart.
    RecoverRebuild,
    /// `indra_fleet::run_fleet`.
    FleetRun,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 11;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Request the span belongs to (spans of one request share it).
    request: u32,
    /// Index of the span that caused this one.
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals folded from the spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub inclusive_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
    /// Each span's duration in recording order.
    pub durations_ns: Vec<u64>,
}

impl LayerTotals {
    /// Mean span duration in nanoseconds (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.inclusive_ns as f64 / self.calls as f64
        }
    }
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Handle of an open span returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id the next spans belong to.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Opens a span that may have children; close it with [`Tracer::end`].
    pub fn begin(&mut self, layer: Layer) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, request: self.request, parent, start_ns, end_ns: start_ns });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` returned by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span of `layer`.
    pub fn leaf<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let open = self.begin(layer);
        let out = f();
        self.end(open);
        out
    }

    /// Distinct requests that recorded at least one span.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u32> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Folds the recorded spans into per-layer totals, indexed by
    /// `Layer as usize`.
    pub fn ledger(&self) -> Vec<LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = vec![LayerTotals::default(); LAYERS];
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = &mut totals[s.layer as usize];
            t.calls += 1;
            t.inclusive_ns += dur;
            t.self_ns += dur.saturating_sub(children);
            t.durations_ns.push(dur);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin(Layer::Request);
        t.leaf(Layer::EngineAdmit, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(root);
        let ledger = t.ledger();
        let req = &ledger[Layer::Request as usize];
        let admit = &ledger[Layer::EngineAdmit as usize];
        assert_eq!((req.calls, admit.calls), (1, 1));
        assert_eq!(req.inclusive_ns, req.self_ns + admit.inclusive_ns);
        assert!(admit.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin(Layer::Request);
        assert_eq!(t.leaf(Layer::Digest, || 7), 7);
        t.end(root);
        assert!(t.ledger().iter().all(|l| l.calls == 0));
    }
}
