//! The traced run's per-layer metrics, read off the span recorder and
//! the counters the crates already keep (`RunMetrics`,
//! `ResilienceReport`, `RecourseReport`, the bracket service's stats and
//! the `Session` accessors).

use dbp_core::PackingResult;

use crate::certify_path::CertifyRun;
use crate::probe::{calibrate_span_ns, Tracer};
use crate::stats::median;
use crate::{Metric, Runs};

/// Records the failure and recourse ledgers of the traced batch recording.
pub(crate) fn record_counts(tr: &Tracer, r: &PackingResult) {
    for (name, v) in [
        ("recourse.migrations", r.recourse.migrations),
        ("recourse.closures", r.recourse.migration_closures),
        ("recourse.epochs", r.recourse.epochs),
        ("failure.bin_failures", r.resilience.bin_failures),
        ("failure.displaced", r.resilience.displacements),
        ("failure.readmitted", r.resilience.readmissions),
        ("failure.dropped", r.resilience.dropped),
    ] {
        tr.peak(name, v as f64);
    }
}

struct Out<'a> {
    tr: &'a Tracer,
    m: Vec<Metric>,
}

impl Out<'_> {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.m.push(Metric::new(name, value, unit, samples));
    }

    /// Mean of span `layer`, divided by `div` (1 for ns, 1e3 for µs, 1e6
    /// for ms), reported as `name`.
    fn mean(&mut self, layer: &str, name: &str, div: f64, unit: &'static str) -> usize {
        let (v, n) = self
            .tr
            .hist(layer)
            .map_or((0.0, 0), |h| (h.mean_ns() / div, h.count as usize));
        self.push(name, v, unit, n);
        n
    }

    fn count(&mut self, name: &str, per: f64) {
        let v = self.tr.get_count(name) / per.max(1.0);
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        self.push(name, v, unit, 1);
    }
}

/// Every per-layer metric, in report order.
pub(crate) fn metrics(
    tr: &Tracer,
    gen_secs: &[f64],
    runs: &Runs,
    certified: &CertifyRun,
    overhead_s: f64,
) -> Vec<Metric> {
    let mut o = Out { tr, m: Vec::new() };
    o.push(
        "workloads.gen_ms",
        median(gen_secs) * 1e3,
        "ms",
        gen_secs.len(),
    );

    // dbp-core::engine and fit_tree, from the silent pass.
    let n = o.mean("engine.arrive_ns", "engine.arrive_ns", 1.0, "ns");
    let self_ns = tr.get_count("engine.self_total_ns") / n.max(1) as f64;
    o.push("engine.self_ns", self_ns, "ns", n);
    o.mean("engine.finish_ns", "engine.finish_ms", 1e6, "ms");
    o.count("engine.events", 1.0);
    o.count("engine.heap_pops", 1.0);
    o.mean("fit_tree.query_ns", "fit_tree.query_ns", 1.0, "ns");
    o.count("fit_tree.queries", 1.0);
    o.count("fit_tree.linear_scans", 1.0);
    o.count("fit_tree.compactions", 1.0);

    // dbp-algos online decisions, from the certification cells, and the
    // departure notifications of every wrapped algorithm.
    for name in dbp_algos::registry_names() {
        let layer = format!("algos.decide_ns.{}", name.replace(':', "."));
        o.mean(&layer, &layer, 1.0, "ns");
    }
    o.mean("algos.depart_ns", "algos.depart_ns", 1.0, "ns");

    // Recourse and failures, from the traced batch recording of the
    // serve stream (whose engine split is reported as record.*).
    o.mean("recourse.propose_ns", "recourse.propose_ns", 1.0, "ns");
    for c in [
        "recourse.proposals",
        "recourse.migrations",
        "recourse.closures",
        "recourse.epochs",
        "failure.bin_failures",
        "failure.displaced",
        "failure.readmitted",
        "failure.dropped",
    ] {
        o.count(c, 1.0);
    }
    let n = o.mean("record.arrive_ns", "record.arrive_ns", 1.0, "ns");
    let self_ns = tr.get_count("record.self_total_ns") / n.max(1) as f64;
    o.push("record.self_ns", self_ns, "ns", n);
    o.mean("record.decide_ns", "record.decide_ns", 1.0, "ns");
    o.mean("record.encode_ns", "record.encode_ns", 1.0, "ns");

    // dbp-core::trace and audit.
    o.mean("trace.encode_ns", "trace.encode_ns", 1.0, "ns");
    o.mean("audit.event_ns", "audit.event_ns", 1.0, "ns");
    o.mean("audit.verify_ns", "audit.verify_ms", 1e6, "ms");

    // dbp-serve protocol, session, snapshot.
    o.mean("protocol.parse_ns", "protocol.parse_ns", 1.0, "ns");
    o.mean("session.handle_ns", "session.handle_ns", 1.0, "ns");
    o.mean("session.take_ns", "session.take_ns", 1.0, "ns");
    let replays = tr.get_count("session.replays");
    o.count("session.output_bytes", replays);
    o.count("session.compactions", replays);
    o.count("session.table_peak", 1.0);
    o.count("session.bin_records_peak", 1.0);
    let n = o.mean("snapshot.write_ns", "snapshot.write_us", 1e3, "us");
    let bytes = tr.get_count("snapshot.bytes") / n.max(1) as f64;
    o.push("snapshot.bytes", bytes, "bytes", n);
    o.mean("snapshot.restore_ns", "snapshot.restore_ms", 1e6, "ms");

    // dbp_bench::bracket and dbp-algos::offline.
    o.mean("bracket.opt_r_ns", "bracket.opt_r_ms", 1e6, "ms");
    o.mean("bracket.opt_nr_ns", "bracket.opt_nr_ms", 1e6, "ms");
    o.count("bracket.cold", 1.0);
    o.count("bracket.warm", 1.0);
    let brackets = certified.brackets as usize;
    o.push(
        "bracket.exact_share",
        certified.exact as f64 / certified.brackets.max(1) as f64,
        "ratio",
        brackets,
    );
    o.mean("offline.ffd_ns", "offline.ffd_ms", 1e6, "ms");
    o.mean("offline.portfolio_ns", "offline.portfolio_ms", 1e6, "ms");
    o.mean("offline.exact_r_ns", "offline.exact_r_ms", 1e6, "ms");
    o.mean("offline.exact_nr_ns", "offline.exact_nr_ms", 1e6, "ms");
    o.count("offline.nodes", 1.0);

    // The open-loop load generator.
    let open = runs.timed_lines.max(1) as usize;
    o.push(
        "loadgen.late_share",
        runs.late_lines as f64 / open as f64,
        "ratio",
        open,
    );
    o.push(
        "loadgen.late_max_us",
        runs.late_max_ns as f64 / 1e3,
        "us",
        open,
    );

    // The tracer itself.
    o.push(
        "trace_overhead.span_ns",
        calibrate_span_ns(100_000),
        "ns",
        100_000,
    );
    o.push("trace_overhead.e2e_s", overhead_s, "s", 3);
    o.m
}
