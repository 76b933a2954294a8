//! End-to-end and per-layer benchmark of the clairvoyant-dbp workspace.
//!
//! Three measured paths — engine passes ([`engine_path`]), dbp-serve
//! replay ([`serve_path`]) and bracket certification ([`certify_path`]) —
//! run in every workload, so every end-to-end metric has a value on
//! every workload. A workload decides the inputs: its own path gets the
//! full-size input and most of the time, the other two run on small
//! companion inputs. See `perfbench/NOTES.md`.

mod certify_path;
mod engine_path;
mod layers;
mod probe;
mod serve_path;
mod stats;

use std::fmt::Write as _;
use std::time::Instant;

use dbp_core::Instance;
use dbp_workloads::{
    cloud_trace, random_general, vm_anti_correlated, CloudConfig, GeneralConfig, VmConfig,
};

use certify_path::Certifier;
use certify_path::CertifySet;
use engine_path::Pass;
use probe::Tracer;
use serve_path::{Recording, Replayer};
use stats::median;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The pinned million-item churn stream through the engine.
    Churn1m,
    /// A 2-D anti-correlated VM fleet replayed through dbp-serve.
    VmStream,
    /// Cold certification of the benign and OPT_NR instance sets.
    Certify,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Churn1m, Workload::VmStream, Workload::Certify];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn1m => "churn_1m",
            Workload::VmStream => "vm_stream",
            Workload::Certify => "certify",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Divides every generated size by this (1 = the benchmark's sizes); the
/// determinism test runs the same recipes smaller.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    fn n(self, full: usize) -> usize {
        (full / self.0).max(1)
    }
}

/// Everything a run feeds the program under test.
struct Inputs {
    /// Instances the engine passes run over.
    engine: Vec<Instance>,
    /// The serve stream's instance.
    serve_instance: Instance,
    /// The serve stream's recording.
    serve: Recording,
    /// The certification set.
    certify: CertifySet,
}

/// The engine path's churn stream: `random_general` with ten binary
/// duration classes (the pinned `BENCH_engine.json` recipe at 1M items).
fn churn(items: usize, seed: u64) -> Instance {
    random_general(&GeneralConfig::new(10, items), seed)
}

/// The `benign` experiment's OPT_R set: random and cloud instances at
/// seeds 1–5.
fn benign(scale: Scale) -> Vec<Instance> {
    let mut v = Vec::new();
    for seed in 1..=5 {
        v.push(churn(scale.n(2_000), seed));
        v.push(cloud_trace(&CloudConfig::new(scale.n(2_000), 5_000), seed));
    }
    v
}

fn opt_nr_set(count: usize) -> Vec<Instance> {
    (1..=count as u64)
        .map(|seed| random_general(&GeneralConfig::new(5, 32), seed))
        .collect()
}

/// Generates the instances of `workload` at `seed`: the engine set, the
/// serve stream and the certification set.
///
/// The certification sets are pinned, not drawn from `seed`: the
/// ladder's cost per instance is heavy-tailed (about one random
/// 2,000-item instance in seven takes 30× the median to certify), so a
/// seed-drawn set would make `certify_s` swing several-fold between
/// seeds and hide any change in the code. The seed drives the engine and
/// serve inputs.
fn generate(workload: Workload, seed: u64, scale: Scale) -> (Vec<Instance>, Instance, CertifySet) {
    let serve_small = || churn(scale.n(50_000), seed);
    let certify_small = || CertifySet {
        opt_r: vec![
            churn(scale.n(2_000), 1),
            cloud_trace(&CloudConfig::new(scale.n(2_000), 5_000), 1),
        ],
        opt_nr: opt_nr_set(scale.n(5)),
    };
    match workload {
        Workload::Churn1m => (
            vec![churn(scale.n(1_000_000), seed)],
            serve_small(),
            certify_small(),
        ),
        Workload::VmStream => {
            let vm = vm_anti_correlated(&VmConfig::new(scale.n(200_000), 20_000), seed);
            (vec![vm.clone()], vm, certify_small())
        }
        Workload::Certify => {
            let opt_r = benign(scale);
            (
                opt_r.clone(),
                serve_small(),
                CertifySet {
                    opt_r,
                    opt_nr: opt_nr_set(scale.n(20)),
                },
            )
        }
    }
}

/// Builds the inputs once: generation plus the serve recording. Returns
/// the inputs, the total seconds and the generation-only seconds.
fn setup(workload: Workload, seed: u64, scale: Scale) -> (Inputs, f64, f64) {
    let t = Instant::now();
    let (engine, serve_instance, certify) = generate(workload, seed, scale);
    let gen = t.elapsed().as_secs_f64();
    let serve = serve_path::record(&serve_instance, None);
    let inputs = Inputs {
        engine,
        serve_instance,
        serve,
        certify,
    };
    (inputs, t.elapsed().as_secs_f64(), gen)
}

/// One metric as reported.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// The traced run's full span dump (empty when untraced).
    pub trace_dump: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

impl Report {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table with sample counts.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<34} {:>18} {:<10} n={}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        s
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The measured tasks, in scheduling order.
const ENGINE: usize = 0;
const CLOSED: usize = 1;
const OPEN: usize = 2;
const CERTIFY: usize = 3;

/// Each task's share of the run's measuring time: the workload's own
/// path gets most of it, its companions the rest.
fn shares(workload: Workload) -> [f64; 4] {
    match workload {
        Workload::Churn1m => [0.7, 0.1, 0.1, 0.1],
        Workload::VmStream => [0.1, 0.35, 0.45, 0.1],
        Workload::Certify => [0.1, 0.1, 0.1, 0.7],
    }
}

/// Steps every task once, then keeps stepping the task furthest behind
/// its share among those whose mean step still fits in `secs`, so each
/// task's samples spread over the whole run.
fn schedule(secs: f64, shares: &[f64], mut exec: impl FnMut(usize)) {
    let t0 = Instant::now();
    let n = shares.len();
    let mut spent = vec![0.0f64; n];
    let mut runs = vec![0usize; n];
    let mut time = |i: usize, spent: &mut [f64], runs: &mut [usize]| {
        let t = Instant::now();
        exec(i);
        spent[i] += t.elapsed().as_secs_f64();
        runs[i] += 1;
    };
    for i in 0..n {
        time(i, &mut spent, &mut runs);
    }
    loop {
        let left = secs - t0.elapsed().as_secs_f64();
        let pick = (0..n)
            .filter(|&i| spent[i] / runs[i] as f64 <= left)
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])));
        match pick {
            Some(i) => time(i, &mut spent, &mut runs),
            None => return,
        }
    }
}

/// Everything the tasks measured.
#[derive(Default)]
struct Runs {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Seconds per engine pass, by sink.
    passes: [Vec<f64>; 3],
    /// Seconds per closed-loop replay.
    closed: Vec<f64>,
    /// Open-loop latency percentiles, one per window.
    window_p50_ns: Vec<f64>,
    window_p99_ns: Vec<f64>,
    /// Open-loop lines timed, and the generator's slips (see `Replay`).
    timed_lines: u64,
    late_lines: u64,
    late_max_ns: u64,
    /// Seconds per certification.
    certify: Vec<f64>,
    /// The first certification (every later one must repeat it).
    certified: Option<certify_path::CertifyRun>,
    mid_snapshot: Option<(usize, String)>,
}

impl Runs {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    fn pass(&mut self, k: usize, run: engine_path::PassRun, reference: &[dbp_core::PackingResult]) {
        self.attempted += run.arrivals;
        self.failed += run.errors;
        self.check(run.errors == 0, "engine refused an arrival");
        for v in &run.violations {
            self.check(false, format!("{:?} pass: {v}", Pass::ALL[k]));
        }
        let agree = run
            .results
            .iter()
            .zip(reference)
            .all(|(r, want)| r.cost == want.cost && r.assignment == want.assignment);
        self.check(agree, "sink passes disagree on cost or assignment");
        self.passes[k].push(run.secs);
    }

    fn replay(&mut self, r: serve_path::Replay, rec: &Recording, open: bool) {
        self.attempted += r.lines;
        self.failed += r.failed;
        self.check(r.echo_ok, "serve echo differs from the batch recording");
        self.check(
            r.cost == rec.batch.cost,
            "serve cost differs from the batch run",
        );
        if self.mid_snapshot.is_none() {
            self.mid_snapshot = r.mid_snapshot;
        }
        if open {
            self.window_p50_ns
                .extend(r.window_p50_ns.iter().map(|&ns| ns as f64));
            self.window_p99_ns
                .extend(r.window_p99_ns.iter().map(|&ns| ns as f64));
            self.timed_lines += r.timed_lines;
            self.late_lines += r.late_lines;
            self.late_max_ns = self.late_max_ns.max(r.late_max_ns);
        } else {
            self.closed.push(r.secs);
        }
    }

    fn certify(&mut self, r: certify_path::CertifyRun) {
        self.attempted += r.cells;
        self.failed += r.failed;
        for p in &r.problems {
            self.problems.push(format!("certify: {p}"));
        }
        self.certify.push(r.secs);
        match &self.certified {
            None => self.certified = Some(r),
            Some(first) => {
                let same = r.looseness_gmean == first.looseness_gmean
                    && r.ratio_hi_gmean == first.ratio_hi_gmean
                    && r.cost_bin_ticks == first.cost_bin_ticks;
                self.check(same, "certification is not deterministic");
            }
        }
    }
}

/// The four tasks' in-flight state: which engine pass is next, and the
/// replays and certification under way.
struct Tasks<'a> {
    inputs: &'a Inputs,
    lines: &'a [&'a str],
    reference: &'a [dbp_core::PackingResult],
    tr: Option<&'a Tracer>,
    next_pass: usize,
    closed: Option<Replayer<'a>>,
    open: Option<Replayer<'a>>,
    certifier: Option<Certifier<'a>>,
    runs: Runs,
}

impl<'a> Tasks<'a> {
    /// Advances `task` by one step: one engine pass, one replay segment or
    /// one certified instance.
    fn step(&mut self, task: usize) {
        let (inputs, lines, tr) = (self.inputs, self.lines, self.tr);
        match task {
            ENGINE => {
                let k = self.next_pass;
                self.next_pass = (k + 1) % Pass::ALL.len();
                let run = match tr {
                    None => engine_path::run_pass(&inputs.engine, Pass::ALL[k]),
                    Some(tr) => engine_path::run_pass_traced(&inputs.engine, Pass::ALL[k], tr),
                };
                self.runs.pass(k, run, self.reference);
            }
            CLOSED => {
                let r = self
                    .closed
                    .get_or_insert_with(|| Replayer::new(&inputs.serve, lines, None));
                if let Some(done) = r.step(tr) {
                    self.closed = None;
                    self.runs.replay(done, &inputs.serve, false);
                }
            }
            OPEN => {
                let rate = Some(serve_path::OPEN_LOOP_RATE);
                let r = self
                    .open
                    .get_or_insert_with(|| Replayer::new(&inputs.serve, lines, rate));
                if let Some(done) = r.step(tr) {
                    self.open = None;
                    self.runs.replay(done, &inputs.serve, true);
                }
            }
            CERTIFY => {
                let c = self
                    .certifier
                    .get_or_insert_with(|| Certifier::new(&inputs.certify));
                if let Some(done) = c.step(tr) {
                    self.certifier = None;
                    self.runs.certify(done);
                }
            }
            _ => unreachable!("four tasks"),
        }
    }

    /// Whether `task` has finished at least one whole unit (a round of
    /// passes, a replay, a certification).
    fn has_unit(&self, task: usize) -> bool {
        match task {
            ENGINE => !self.runs.passes[Pass::ALL.len() - 1].is_empty(),
            CLOSED => !self.runs.closed.is_empty(),
            OPEN => self.runs.timed_lines > 0,
            _ => self.runs.certified.is_some(),
        }
    }
}

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;

/// Runs `workload` at `seed` for about `seconds` of measurement (plus
/// set-up), untraced or traced, and checks every output.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Report {
    let mut setup_secs = Vec::new();
    let mut gen_secs = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let (i, total, gen) = setup(workload, seed, scale);
        setup_secs.push(total);
        gen_secs.push(gen);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let tracer = traced.then(Tracer::new);
    let tr = tracer.as_ref();
    let mut runs = Runs::default();

    // The silent pass's result is the reference every other pass must
    // reproduce; the assignment auditor recomputes its cost independently.
    let reference = engine_path::run_pass(&inputs.engine, Pass::Silent).results;
    for (inst, res) in inputs.engine.iter().zip(&reference) {
        match dbp_core::audit(inst, &res.assignment) {
            Ok(rep) => runs.check(rep.cost == res.cost, "assignment audit cost differs"),
            Err(e) => runs.check(false, format!("assignment audit failed: {e}")),
        }
    }
    let engine_cost: f64 = reference.iter().map(|r| r.cost.as_bin_ticks()).sum();
    // Pinned checksum: the million-item stream at seed 9 costs exactly
    // what `BENCH_engine.json` recorded for it.
    if workload == Workload::Churn1m && seed == 9 && scale.0 == 1 {
        runs.check(
            engine_cost == 34_120_506.0,
            format!("churn_1m seed 9 costs {engine_cost}, not 34120506"),
        );
    }
    let lines = inputs.serve.lines();

    // Traced runs first time one untraced execution of each task (the
    // tracing overhead's baseline), the traced batch recording (the serve
    // stream's engine split: the session builds its algorithm internally,
    // and its placements equal the batch run's, as the echo check proves)
    // and each ladder rung standalone.
    let mut baseline = Vec::new();
    if let Some(tr) = tr {
        let t = Instant::now();
        for pass in Pass::ALL {
            engine_path::run_pass(&inputs.engine, pass);
        }
        baseline.push(t.elapsed().as_secs_f64());
        baseline.push(serve_path::replay(&inputs.serve, &lines, None, None).secs);
        baseline.push(certify_path::certify(&inputs.certify, None).secs);
        let traced = serve_path::record(&inputs.serve_instance, Some(tr));
        runs.check(traced.text == inputs.serve.text, "traced recording differs");
        layers::record_counts(tr, &traced.batch);
        certify_path::time_rungs(&inputs.certify, tr);
    }

    let mut tasks = Tasks {
        inputs: &inputs,
        lines: &lines,
        reference: &reference,
        tr,
        next_pass: 0,
        closed: None,
        open: None,
        certifier: None,
        runs,
    };
    schedule(seconds, &shares(workload), |task| tasks.step(task));
    // Every task finishes at least one whole unit, however short the run.
    for task in [ENGINE, CLOSED, OPEN, CERTIFY] {
        while !tasks.has_unit(task) {
            tasks.step(task);
        }
    }
    let mut runs = tasks.runs;

    match runs.mid_snapshot.take() {
        Some((at, snap)) => match serve_path::restore_and_finish(&snap, &lines[at..], tr) {
            Ok(cost) => runs.check(
                cost == inputs.serve.batch.cost,
                format!(
                    "session restored from the snapshot after line {at} ends at {} bin_ticks, \
                     the uninterrupted session at {}",
                    cost.as_bin_ticks(),
                    inputs.serve.batch.cost.as_bin_ticks()
                ),
            ),
            Err(e) => runs.check(false, format!("midpoint snapshot does not restore: {e}")),
        },
        None => runs.check(false, "no midpoint snapshot taken"),
    }

    let certified = runs.certified.take().expect("certify ran at least once");
    let cost = match workload {
        Workload::Churn1m => engine_cost,
        Workload::VmStream => inputs.serve.batch.cost.as_bin_ticks(),
        Workload::Certify => certified.cost_bin_ticks,
    };
    let metrics = match tr {
        Some(tr) => {
            // Traced minus untraced time of one unit of each task whose
            // length the tracer can stretch (the open loop's is set by its
            // offered rate).
            let engine: f64 = runs.passes.iter().map(|p| median(p)).sum();
            let traced = [engine, median(&runs.closed), median(&runs.certify)];
            let overhead = traced.iter().zip(&baseline).map(|(t, b)| t - b).sum();
            layers::metrics(tr, &gen_secs, &runs, &certified, overhead)
        }
        None => {
            let mut m = Vec::new();
            let mut push = |name: &str, value: f64, unit: &'static str, samples: usize| {
                m.push(Metric::new(name, value, unit, samples))
            };
            push("setup_s", median(&setup_secs), "s", setup_secs.len());
            push("peak_rss_mb", peak_rss_mb(), "MB", 1);
            let items: u64 = inputs.engine.iter().map(|i| i.len() as u64).sum();
            for (k, name) in [
                "sim_items_per_s",
                "audited_items_per_s",
                "traced_items_per_s",
            ]
            .into_iter()
            .enumerate()
            {
                let rates: Vec<f64> = runs.passes[k].iter().map(|s| items as f64 / s).collect();
                push(name, median(&rates), "items/s", rates.len());
            }
            let rates: Vec<f64> = runs.closed.iter().map(|s| lines.len() as f64 / s).collect();
            push("serve_lines_per_s", median(&rates), "lines/s", rates.len());
            // The median window's percentile: one stall moves one window.
            let n = runs.window_p99_ns.len();
            push("serve_p50_us", median(&runs.window_p50_ns) / 1e3, "us", n);
            push("serve_p99_us", median(&runs.window_p99_ns) / 1e3, "us", n);
            push("certify_s", median(&runs.certify), "s", runs.certify.len());
            let b = certified.brackets as usize;
            push("opt_looseness_gmean", certified.looseness_gmean, "ratio", b);
            let c = certified.cells as usize;
            push("ratio_hi_gmean", certified.ratio_hi_gmean, "ratio", c);
            push("cost_bin_ticks", cost, "bin_ticks", 1);
            m
        }
    };
    Report {
        correct: runs.problems.is_empty(),
        attempted: runs.attempted,
        failed: runs.failed,
        metrics,
        problems: runs.problems,
        trace_dump: tracer.map_or_else(String::new, |t| {
            t.render(&format!(
                "\"workload\":\"{}\",\"seed\":{seed}",
                workload.name()
            ))
        }),
    }
}

/// Peak resident set of this process (VmHWM), in MB; 0 where `/proc`
/// is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
