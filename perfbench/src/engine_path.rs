//! The engine path: one instance set fed through `InteractiveSim` with
//! the harness First-Fit, once per sink — silent, audited, JSON-lines.

use std::io;
use std::time::Instant;

use dbp_bench::throughput::FirstFit;
use dbp_core::engine::{InteractiveSim, PackingResult};
use dbp_core::trace::{EventSink, JsonlSink, NoopSink};
use dbp_core::{Instance, InvariantAuditor};

use crate::probe::{SpanAlgo, SpanSink, Tracer};

/// Which sink a pass runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `NoopSink`: the engine core alone.
    Silent,
    /// `InvariantAuditor`, then `verify_result`.
    Audited,
    /// `JsonlSink` into `io::sink()`.
    Traced,
}

impl Pass {
    /// Every pass, in the order a round runs them.
    pub const ALL: [Pass; 3] = [Pass::Silent, Pass::Audited, Pass::Traced];
}

/// What one pass over an instance set produced.
#[derive(Debug)]
pub struct PassRun {
    /// Wall-clock seconds of the whole pass.
    pub secs: f64,
    /// One result per instance.
    pub results: Vec<PackingResult>,
    /// Arrivals submitted.
    pub arrivals: u64,
    /// Arrivals the engine refused.
    pub errors: u64,
    /// Auditor findings (audited pass only).
    pub violations: Vec<String>,
}

fn feed<A: dbp_core::OnlineAlgorithm, S: EventSink>(
    sim: &mut InteractiveSim<A, S>,
    inst: &Instance,
) -> u64 {
    let mut errors = 0;
    for it in inst.items() {
        if sim.arrive_at(it.arrival, it.duration(), it.size).is_err() {
            errors += 1;
        }
    }
    errors
}

/// One untraced pass over `set`.
pub fn run_pass(set: &[Instance], pass: Pass) -> PassRun {
    let started = Instant::now();
    let mut out = PassRun {
        secs: 0.0,
        results: Vec::with_capacity(set.len()),
        arrivals: 0,
        errors: 0,
        violations: Vec::new(),
    };
    for inst in set {
        out.arrivals += inst.len() as u64;
        let result = match pass {
            Pass::Silent => {
                let mut sim =
                    InteractiveSim::with_capacity_and_sink(FirstFit, inst.len(), NoopSink);
                out.errors += feed(&mut sim, inst);
                sim.finish().1
            }
            Pass::Audited => {
                let mut auditor = InvariantAuditor::new();
                let mut sim =
                    InteractiveSim::with_capacity_and_sink(FirstFit, inst.len(), &mut auditor);
                out.errors += feed(&mut sim, inst);
                let result = sim.finish().1;
                if let Err(v) = auditor.verify_result(&result) {
                    out.violations.push(v.to_string());
                }
                result
            }
            Pass::Traced => {
                let mut sink = JsonlSink::new(io::sink());
                let mut sim =
                    InteractiveSim::with_capacity_and_sink(FirstFit, inst.len(), &mut sink);
                out.errors += feed(&mut sim, inst);
                let result = sim.finish().1;
                if sink.written() != result.metrics.events {
                    out.violations.push("JSONL sink dropped events".to_string());
                }
                result
            }
        };
        out.results.push(result);
    }
    out.secs = started.elapsed().as_secs_f64();
    out
}

fn feed_timed<A: dbp_core::OnlineAlgorithm, S: EventSink>(
    sim: &mut InteractiveSim<A, S>,
    inst: &Instance,
    tracer: &Tracer,
) -> u64 {
    let mut errors = 0;
    for it in inst.items() {
        let child = tracer.child_ns();
        let t = Instant::now();
        let res = sim.arrive_at(it.arrival, it.duration(), it.size);
        let ns = t.elapsed().as_nanos() as u64;
        tracer.sample("engine.arrive_ns", ns);
        tracer.count(
            "engine.self_total_ns",
            ns.saturating_sub(tracer.child_ns() - child) as f64,
        );
        if res.is_err() {
            errors += 1;
        }
    }
    errors
}

/// One traced pass: the silent pass splits the engine from the
/// First-Fit decision; the others time their sink's `on_event`.
pub fn run_pass_traced(set: &[Instance], pass: Pass, tracer: &Tracer) -> PassRun {
    let name = match pass {
        Pass::Silent => "engine.silent_pass",
        Pass::Audited => "engine.audited_pass",
        Pass::Traced => "engine.traced_pass",
    };
    let span = tracer.enter(name);
    let started = Instant::now();
    let mut out = PassRun {
        secs: 0.0,
        results: Vec::with_capacity(set.len()),
        arrivals: 0,
        errors: 0,
        violations: Vec::new(),
    };
    for inst in set {
        out.arrivals += inst.len() as u64;
        let result = match pass {
            Pass::Silent => {
                let algo = SpanAlgo::new(FirstFit, tracer, "fit_tree.query_ns");
                let mut sim = InteractiveSim::with_capacity_and_sink(algo, inst.len(), NoopSink);
                out.errors += feed_timed(&mut sim, inst, tracer);
                let t = Instant::now();
                let result = sim.finish().1;
                tracer.sample("engine.finish_ns", t.elapsed().as_nanos() as u64);
                result
            }
            Pass::Audited => {
                let mut sink = SpanSink::new(InvariantAuditor::new(), tracer, "audit.event_ns");
                let mut sim =
                    InteractiveSim::with_capacity_and_sink(FirstFit, inst.len(), &mut sink);
                out.errors += feed(&mut sim, inst);
                let result = sim.finish().1;
                let mut auditor = sink.into_inner();
                let t = Instant::now();
                if let Err(v) = auditor.verify_result(&result) {
                    out.violations.push(v.to_string());
                }
                tracer.sample("audit.verify_ns", t.elapsed().as_nanos() as u64);
                result
            }
            Pass::Traced => {
                let mut sink = SpanSink::new(JsonlSink::new(io::sink()), tracer, "trace.encode_ns");
                let mut sim =
                    InteractiveSim::with_capacity_and_sink(FirstFit, inst.len(), &mut sink);
                out.errors += feed(&mut sim, inst);
                sim.finish().1
            }
        };
        out.results.push(result);
    }
    out.secs = started.elapsed().as_secs_f64();
    tracer.exit(span);
    if pass == Pass::Silent {
        // Counts are per pass over the whole set: identical every round.
        let sum = |f: fn(&dbp_core::RunMetrics) -> u64| {
            out.results.iter().map(|r| f(&r.metrics)).sum::<u64>() as f64
        };
        tracer.peak("engine.events", sum(|m| m.events));
        tracer.peak("engine.heap_pops", sum(|m| m.heap_pops));
        tracer.peak("fit_tree.queries", sum(|m| m.tree_queries));
        tracer.peak("fit_tree.linear_scans", sum(|m| m.linear_scans));
        tracer.peak("fit_tree.compactions", sum(|m| m.tree_compactions));
    }
    out
}
