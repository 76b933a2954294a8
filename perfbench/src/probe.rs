//! The traced run's span recorder and the wrappers that feed it.
//!
//! Spans come only from this file's wrappers and from timing calls into
//! public functions: the crates under test carry no instrumentation.
//! Per-event spans (a decision, an encoded event) are aggregated in
//! memory as count, total and a log-bucketed histogram; coarse spans
//! (passes, instances, snapshots) are kept whole with their parent ids.
//! Everything is written out once, at the end of the run.
//!
//! Untraced runs never construct a [`Tracer`], so their hot loops hold
//! no probe code at all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use dbp_core::recourse::{Migration, RecourseEpoch, RecourseView};
use dbp_core::{BinId, BinStore, EngineEvent, EventSink, Item, ItemId, OnlineAlgorithm};
use dbp_core::{Placement, SimView};

use crate::stats::Hist;

/// One whole (coarse) span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Recorder {
    epoch: Option<Instant>,
    /// Per-event aggregates by layer name.
    aggs: BTreeMap<String, Hist>,
    /// Nanoseconds spent inside wrapped children since the run began;
    /// the engine's self time is an enclosing span minus its delta.
    child_ns: u64,
    /// Plain counts by name.
    counts: BTreeMap<String, f64>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A cheap, clonable handle on the run's recorder (single-threaded).
#[derive(Debug, Clone, Default)]
pub struct Tracer(Rc<RefCell<Recorder>>);

impl Tracer {
    /// A fresh recorder whose coarse-span clock starts now.
    pub fn new() -> Tracer {
        let t = Tracer::default();
        t.0.borrow_mut().epoch = Some(Instant::now());
        t
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        let epoch = self.0.borrow().epoch.expect("tracer constructed by new()");
        at.saturating_duration_since(epoch).as_nanos() as u64
    }

    /// Adds one sample of `ns` to layer `name` (outside any child span).
    pub fn sample(&self, name: &str, ns: u64) {
        let mut r = self.0.borrow_mut();
        match r.aggs.get_mut(name) {
            Some(h) => h.add(ns),
            None => {
                let mut h = Hist::default();
                h.add(ns);
                r.aggs.insert(name.to_string(), h);
            }
        }
    }

    /// Adds one sample to layer `name` and bills it as child time of
    /// whatever engine call encloses it.
    fn child_sample(&self, name: &str, ns: u64) {
        self.sample(name, ns);
        self.0.borrow_mut().child_ns += ns;
    }

    /// Child nanoseconds billed so far.
    pub fn child_ns(&self) -> u64 {
        self.0.borrow().child_ns
    }

    /// Adds `by` to the count `name`.
    pub fn count(&self, name: &str, by: f64) {
        *self
            .0
            .borrow_mut()
            .counts
            .entry(name.to_string())
            .or_insert(0.0) += by;
    }

    /// Raises the count `name` to at least `v`.
    pub fn peak(&self, name: &str, v: f64) {
        let mut r = self.0.borrow_mut();
        let slot = r.counts.entry(name.to_string()).or_insert(0.0);
        *slot = slot.max(v);
    }

    /// The aggregate of layer `name`, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<Hist> {
        self.0.borrow().aggs.get(name).cloned()
    }

    /// The count `name` (0 when never touched).
    pub fn get_count(&self, name: &str) -> f64 {
        self.0.borrow().counts.get(name).copied().unwrap_or(0.0)
    }

    /// Opens a coarse span nested in the innermost open one.
    pub fn enter(&self, name: &str) -> usize {
        let start_ns = self.since_epoch(Instant::now());
        let mut r = self.0.borrow_mut();
        let parent = r.open.last().copied();
        let id = r.spans.len();
        r.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        id
    }

    /// Closes coarse span `id`, which must be the innermost open one.
    pub fn exit(&self, id: usize) {
        let end_ns = self.since_epoch(Instant::now());
        let mut r = self.0.borrow_mut();
        assert_eq!(r.open.pop(), Some(id), "coarse spans close innermost-first");
        r.spans[id].end_ns = end_ns;
    }

    /// Self time of every coarse span name: its length minus the part
    /// covered by its direct children, summed over instances.
    fn self_times(&self) -> BTreeMap<String, u64> {
        let r = self.0.borrow();
        let mut child = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name.clone()).or_insert(0) += own;
        }
        out
    }

    /// Renders everything recorded as one JSON document.
    pub fn render(&self, header: &str) -> String {
        let r = self.0.borrow();
        let mut s = format!("{{{header},\"layers\":{{");
        for (i, (name, h)) in r.aggs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let last = h.buckets.iter().rposition(|&c| c != 0).unwrap_or(0);
            let buckets: Vec<String> = h.buckets[..=last].iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"log2_buckets\":[{}]}}",
                h.count,
                h.total_ns,
                buckets.join(",")
            );
        }
        s.push_str("},\"counts\":{");
        for (i, (name, v)) in r.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{v}");
        }
        s.push_str("},\"self_ns\":{");
        drop(r);
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{ns}");
        }
        s.push_str("},\"spans\":[");
        let r = self.0.borrow();
        for (i, sp) in r.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Times an algorithm's decisions, departures and migration proposals.
pub struct SpanAlgo<A> {
    inner: A,
    tracer: Tracer,
    decide: String,
}

impl<A: OnlineAlgorithm> SpanAlgo<A> {
    /// Wraps `inner`, billing its decisions to layer `decide`.
    pub fn new(inner: A, tracer: &Tracer, decide: &str) -> SpanAlgo<A> {
        SpanAlgo {
            inner,
            tracer: tracer.clone(),
            decide: decide.to_string(),
        }
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for SpanAlgo<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        let t = Instant::now();
        let p = self.inner.on_arrival(view, item);
        self.tracer
            .child_sample(&self.decide, t.elapsed().as_nanos() as u64);
        p
    }

    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        let t = Instant::now();
        self.inner.on_departure(item, bin, bin_closed);
        self.tracer
            .child_sample("algos.depart_ns", t.elapsed().as_nanos() as u64);
    }

    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.inner.on_compact(retained, old_len);
    }

    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        self.inner.on_bin_compact(old_to_new, new_len);
    }

    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        let t = Instant::now();
        let m = self.inner.propose_migration(view, epoch, moves_left);
        self.tracer
            .child_sample("recourse.propose_ns", t.elapsed().as_nanos() as u64);
        if m.is_some() {
            self.tracer.count("recourse.proposals", 1.0);
        }
        m
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Times every event an inner sink consumes.
pub struct SpanSink<S> {
    inner: S,
    tracer: Tracer,
    layer: String,
}

impl<S: EventSink> SpanSink<S> {
    /// Wraps `inner`, billing its `on_event` calls to layer `layer`.
    pub fn new(inner: S, tracer: &Tracer, layer: &str) -> SpanSink<S> {
        SpanSink {
            inner,
            tracer: tracer.clone(),
            layer: layer.to_string(),
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSink> EventSink for SpanSink<S> {
    fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
        let t = Instant::now();
        self.inner.on_event(event, bins);
        self.tracer
            .child_sample(&self.layer, t.elapsed().as_nanos() as u64);
    }

    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.inner.on_compact(retained, old_len);
    }

    fn on_bin_compact(&mut self, old_to_new: &[BinId], bins: &BinStore) {
        self.inner.on_bin_compact(old_to_new, bins);
    }
}

/// The cost of one empty span (two clock reads and an aggregate update),
/// calibrated over `n` repetitions, in nanoseconds.
pub fn calibrate_span_ns(n: u32) -> f64 {
    let probe = Tracer::new();
    let t = Instant::now();
    for _ in 0..n {
        let s = Instant::now();
        probe.child_sample("calibration", s.elapsed().as_nanos() as u64);
    }
    t.elapsed().as_nanos() as f64 / f64::from(n.max(1))
}
