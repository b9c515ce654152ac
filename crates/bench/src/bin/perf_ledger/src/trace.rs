//! In-memory spans for the `--trace 1` run: `{id, parent, name, start_ns,
//! end_ns}`, one root `batch` per 256-frame call (per `next_burst` on the
//! open loop) with a child around each call into a layer. Spans are kept
//! in memory and written out with the counts when the run ends; a span's
//! self time is its duration minus the part its children cover.
//!
//! Every span is recorded from the benchmark's own files, around calls
//! into the library. Spans *inside* the library (wave fill and cut
//! reasons, per-stage cost, wire-to-verdict latency through
//! `run_ingress`) are the known gap.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span. `parent` is `None` for a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within one recorder.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer boundary the span sits on.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the children's.
    pub self_ns: u64,
}

/// The span store of one thread. An untraced run carries a recorder that
/// is [`Recorder::off`]: `open`/`close` then record nothing and read no
/// clock, so measured code has one shape whether or not it is traced.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Whether this run is traced at all.
    traced: bool,
    /// Whether spans opened now are kept (`traced`, and sampled in).
    on: bool,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`. Recorders that
    /// will be merged share one epoch.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), traced: true, on: true }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), traced: false, on: false }
    }

    /// Keeps (`take`) or skips the spans opened from now on. A source
    /// that is called millions of times samples its calls with this; a
    /// span must be closed under the setting it was opened under.
    pub fn sample(&mut self, take: bool) {
        self.on = self.traced && take;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent: parent.map(|p| p.0), name, start_ns, end_ns: 0 });
        SpanId(id)
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        if self.on {
            self.spans[id.0 as usize].end_ns = self.now_ns();
        }
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, renumbering them past this
    /// recorder's so ids stay unique.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Writes the spans, then the run's counts, as JSON lines.
    pub fn write(&self, path: &std::path::Path, counts: &[(&str, f64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in counts {
            writeln!(w, "{{\"count\": \"{name}\", \"value\": {value}}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(Instant::now());
        r.spans = vec![
            span(0, None, "batch", 0, 100),
            span(1, Some(0), "push", 10, 60),
            span(2, Some(0), "flush", 60, 90),
            span(3, Some(1), "inner", 20, 30),
            span(4, None, "batch", 100, 150),
        ];
        let t = r.totals();
        assert_eq!(t["batch"], SpanTotals { count: 2, total_ns: 150, self_ns: 20 + 50 });
        assert_eq!(t["push"], SpanTotals { count: 1, total_ns: 50, self_ns: 40 });
        assert_eq!(t["flush"], SpanTotals { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(t["inner"], SpanTotals { count: 1, total_ns: 10, self_ns: 10 });
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut r = Recorder::off();
        let root = r.open("batch", None);
        let child = r.open("child", Some(root));
        r.close(child);
        r.close(root);
        r.sample(true);
        let still_off = r.open("batch", None);
        r.close(still_off);
        assert!(r.spans().is_empty() && r.totals().is_empty());
    }

    #[test]
    fn sampling_skips_whole_spans() {
        let mut r = Recorder::new(Instant::now());
        for i in 0..6 {
            r.sample(i % 3 == 0);
            let root = r.open("batch", None);
            let child = r.open("wait", Some(root));
            r.close(child);
            r.close(root);
        }
        let t = r.totals();
        assert_eq!((t["batch"].count, t["wait"].count), (2, 2));
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn open_close_nest_and_absorb_renumbers() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let root = a.open("batch", None);
        let child = a.open("child", Some(root));
        a.close(child);
        a.close(root);
        let mut b = Recorder::new(epoch);
        let other = b.open("batch", None);
        let wait = b.open("wait", Some(other));
        b.close(wait);
        b.close(other);
        a.absorb(b);
        let ids: Vec<u32> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[3].parent, Some(2));
        let s = &a.spans()[0];
        assert!(s.end_ns >= a.spans()[1].end_ns && s.start_ns <= a.spans()[1].start_ns);
    }
}
