//! The serve path: a stream recorded once through the batch engine, then
//! replayed line by line through dbp-serve's own request path
//! (`parse_request` → `Session::handle` → `take_output`, then `drain`).
//!
//! Every replay is checked as it runs: the session's output without its
//! `"r"` response lines must reproduce the recording byte for byte.

use std::time::{Duration, Instant};

use dbp_core::engine::{InteractiveSim, PackingResult};
use dbp_core::{Dur, FailurePlan, Instance, JsonlSink, RecourseBudget, RetryPolicy};
use dbp_serve::protocol::{Op, Request};
use dbp_serve::{parse_request, snapshot, ServeConfig, Session};

use crate::probe::{SpanAlgo, SpanSink, Tracer};
use crate::stats::quantile_sorted;

/// The algorithm every serve stream is recorded and replayed under.
pub const ALGO: &str = "rod:first-fit";

/// Offered rate of the open loop's paced lines, in request lines per
/// second: a constant about a sixth of the closed-loop capacity measured
/// on the 2-D VM stream when the benchmark was defined (120k–210k lines/s
/// on a 2-core x86-64 VM, depending on the machine's load phase). It is
/// never rescaled per run, so a faster session shows up as lower latency
/// at the same offered load. NOTES.md says why not half.
pub const OPEN_LOOP_RATE: f64 = 25_000.0;

/// An open-loop replay paces the last quarter of every segment at
/// [`OPEN_LOOP_RATE`]; the first three quarters are fed closed-loop,
/// untimed. The session's state does not depend on wall time, so each
/// paced stretch sees exactly the state a fully paced replay would, and
/// it starts on caches its own session just warmed.
pub const PACED_FROM: f64 = 0.75;

/// Lines per latency window: each window's percentiles are one sample
/// (its 99th percentile has 20 lines beyond it).
pub const WINDOW_LINES: usize = 2_000;

/// A replay feeds the stream in this many equal segments, writing a
/// snapshot at each boundary; the middle one seeds the restore check.
pub const SEGMENTS: usize = 8;

/// The daemon configuration every serve stream runs with: seeded bin
/// crashes, exponential re-admission backoff and an epoch recourse budget.
pub fn config() -> ServeConfig {
    ServeConfig {
        algo: ALGO.to_string(),
        plan: FailurePlan::seeded(0.1, 9, Dur(1000)),
        retry: RetryPolicy::parse("exp=2").expect("valid retry policy"),
        recourse: RecourseBudget::parse("epoch=4").expect("valid recourse budget"),
        ..ServeConfig::default()
    }
}

/// A recorded stream and the batch run that produced it.
pub struct Recording {
    /// The JSONL recording, one engine event per line.
    pub text: String,
    /// The batch run's result.
    pub batch: PackingResult,
}

impl Recording {
    /// The recording's request lines.
    pub fn lines(&self) -> Vec<&str> {
        self.text.lines().collect()
    }
}

/// Records `inst` through the batch engine under [`config`], optionally
/// traced (decisions, migration proposals, JSONL encoding, `arrive_at`).
pub fn record(inst: &Instance, tracer: Option<&Tracer>) -> Recording {
    let cfg = config();
    let algo = dbp_algos::by_name(&cfg.algo).expect("registry algorithm");
    let (text, batch) = match tracer {
        None => {
            let mut sink = JsonlSink::new(Vec::new());
            let mut sim = InteractiveSim::with_capacity_failures_and_sink(
                algo,
                inst.len(),
                cfg.plan.clone(),
                cfg.retry,
                &mut sink,
            )
            .with_recourse(cfg.recourse);
            for it in inst.items() {
                sim.arrive_at(it.arrival, it.duration(), it.size)
                    .expect("recorded stream is legal");
            }
            let batch = sim.finish().1;
            (sink.finish().expect("in-memory sink"), batch)
        }
        Some(tr) => {
            let span = tr.enter("serve.record");
            let mut sink = SpanSink::new(JsonlSink::new(Vec::new()), tr, "record.encode_ns");
            let algo = SpanAlgo::new(algo, tr, "record.decide_ns");
            let mut sim = InteractiveSim::with_capacity_failures_and_sink(
                algo,
                inst.len(),
                cfg.plan.clone(),
                cfg.retry,
                &mut sink,
            )
            .with_recourse(cfg.recourse);
            for it in inst.items() {
                let child = tr.child_ns();
                let t = Instant::now();
                sim.arrive_at(it.arrival, it.duration(), it.size)
                    .expect("recorded stream is legal");
                let ns = t.elapsed().as_nanos() as u64;
                tr.sample("record.arrive_ns", ns);
                tr.count(
                    "record.self_total_ns",
                    ns.saturating_sub(tr.child_ns() - child) as f64,
                );
            }
            let batch = sim.finish().1;
            tr.exit(span);
            (sink.into_inner().finish().expect("in-memory sink"), batch)
        }
    };
    Recording {
        text: String::from_utf8(text).expect("the codec emits UTF-8"),
        batch,
    }
}

/// Incrementally checks a session's output against the recording.
struct Echo<'a> {
    expected: &'a [u8],
    at: usize,
    ok: bool,
    failed: u64,
    bytes: u64,
}

impl<'a> Echo<'a> {
    fn new(recording: &'a str) -> Echo<'a> {
        Echo {
            expected: recording.as_bytes(),
            at: 0,
            ok: true,
            failed: 0,
            bytes: 0,
        }
    }

    fn take(&mut self, out: &str) {
        self.bytes += out.len() as u64;
        for line in out.split_inclusive('\n') {
            if line.starts_with("{\"r\":") {
                if line.starts_with("{\"r\":\"error\"") || line.starts_with("{\"r\":\"overloaded\"")
                {
                    self.failed += 1;
                }
                continue;
            }
            let end = self.at + line.len();
            if end > self.expected.len() || &self.expected[self.at..end] != line.as_bytes() {
                self.ok = false;
            }
            self.at = end;
        }
    }

    fn complete(&self) -> bool {
        self.ok && self.at == self.expected.len()
    }
}

/// What one finished replay produced.
pub struct Replay {
    /// Seconds spent feeding lines and draining, summed over segments.
    pub secs: f64,
    /// Request lines fed.
    pub lines: u64,
    /// Lines answered with an `error` or `overloaded` response (or that
    /// failed to parse).
    pub failed: u64,
    /// Whether the event echo reproduced the recording exactly.
    pub echo_ok: bool,
    /// Open loop: each window's median and 99th-percentile latency from
    /// due time, in nanoseconds.
    pub window_p50_ns: Vec<u64>,
    /// See `window_p50_ns`.
    pub window_p99_ns: Vec<u64>,
    /// Open loop: lines timed.
    pub timed_lines: u64,
    /// Open loop: lines whose start the generator delayed more than 1 µs
    /// past the moment they were both due and servable.
    pub late_lines: u64,
    /// Open loop: the largest such delay, in nanoseconds.
    pub late_max_ns: u64,
    /// The drained session's final cost.
    pub cost: dbp_core::Area,
    /// The snapshot written halfway through, and the line count it covers.
    pub mid_snapshot: Option<(usize, String)>,
}

impl Replay {
    fn blank(lines: usize) -> Replay {
        Replay {
            secs: 0.0,
            lines: lines as u64,
            failed: 0,
            echo_ok: false,
            window_p50_ns: Vec::new(),
            window_p99_ns: Vec::new(),
            timed_lines: 0,
            late_lines: 0,
            late_max_ns: 0,
            cost: dbp_core::Area::ZERO,
            mid_snapshot: None,
        }
    }
}

fn drain_request() -> Request {
    Request::Control {
        tenant: None,
        op: Op::Drain,
    }
}

/// A replay of the recording through one fresh session, fed one segment
/// (an eighth of the lines) per [`Replayer::step`], so a run can
/// interleave other work between segments. A snapshot is written at every
/// segment boundary.
///
/// With `rate` the replay is an open loop: from [`PACED_FROM`] of each
/// segment on, the `j`-th line is due `j / rate` seconds after the paced
/// stretch starts and its latency is measured from that due time, in
/// windows of [`WINDOW_LINES`]. Without, lines go in as fast as the
/// session takes them (closed loop).
pub struct Replayer<'a> {
    lines: &'a [&'a str],
    rate: Option<f64>,
    session: Session,
    echo: Echo<'a>,
    segment: usize,
    latencies_ns: Vec<u64>,
    /// Compactions seen (traced replays only).
    compactions: u64,
    out: Replay,
}

impl<'a> Replayer<'a> {
    /// A replay of `lines` (the recording's lines) into a fresh session.
    pub fn new(rec: &'a Recording, lines: &'a [&'a str], rate: Option<f64>) -> Replayer<'a> {
        Replayer {
            lines,
            rate,
            session: Session::new("bench", &config()).expect("registry algorithm"),
            echo: Echo::new(&rec.text),
            segment: 0,
            latencies_ns: Vec::new(),
            compactions: 0,
            out: Replay::blank(lines.len()),
        }
    }

    /// Feeds the next segment (draining after the last); with a tracer,
    /// each call into the session is timed. Returns the finished replay
    /// after the last segment.
    pub fn step(&mut self, tracer: Option<&Tracer>) -> Option<Replay> {
        let n = self.lines.len();
        let (from, to) = (
            n * self.segment / SEGMENTS,
            n * (self.segment + 1) / SEGMENTS,
        );
        self.segment += 1;
        let span = tracer.map(|t| {
            t.enter(if self.rate.is_some() {
                "serve.open_loop"
            } else {
                "serve.closed_loop"
            })
        });
        let started = Instant::now();
        let paced_from = match self.rate {
            Some(_) => from + ((to - from) as f64 * PACED_FROM) as usize,
            None => to,
        };
        for line in &self.lines[from..paced_from] {
            self.line(line, tracer);
        }
        if let Some(rate) = self.rate {
            let paced = Instant::now();
            let mut prev_end = paced;
            for (j, line) in self.lines[paced_from..to].iter().enumerate() {
                let due = paced + Duration::from_secs_f64(j as f64 / rate);
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let late = Instant::now()
                    .saturating_duration_since(due.max(prev_end))
                    .as_nanos() as u64;
                if late > 1_000 {
                    self.out.late_lines += 1;
                }
                self.out.late_max_ns = self.out.late_max_ns.max(late);
                self.line(line, tracer);
                let end = Instant::now();
                self.latencies_ns
                    .push(end.saturating_duration_since(due).as_nanos() as u64);
                prev_end = end;
            }
        }
        // Windows of WINDOW_LINES; a short tail joins the last window.
        let lat = std::mem::take(&mut self.latencies_ns);
        let windows = (lat.len() / WINDOW_LINES).max(usize::from(!lat.is_empty()));
        for w in 0..windows {
            let end = if w + 1 == windows {
                lat.len()
            } else {
                (w + 1) * WINDOW_LINES
            };
            let mut win = lat[w * WINDOW_LINES..end].to_vec();
            win.sort_unstable();
            self.out.window_p50_ns.push(quantile_sorted(&win, 0.50));
            self.out.window_p99_ns.push(quantile_sorted(&win, 0.99));
        }
        self.out.timed_lines += lat.len() as u64;
        let done = self.segment == SEGMENTS;
        if done {
            self.session.handle(&drain_request());
            self.echo.take(&self.session.take_output());
        } else {
            let t = Instant::now();
            let snap = snapshot::write_snapshot(&self.session);
            if let Some(tr) = tracer {
                tr.sample("snapshot.write_ns", t.elapsed().as_nanos() as u64);
                tr.count("snapshot.bytes", snap.len() as f64);
            }
            if self.segment == SEGMENTS / 2 {
                self.out.mid_snapshot = Some((to, snap));
            }
        }
        self.out.secs += started.elapsed().as_secs_f64();
        if let (Some(tr), Some(span)) = (tracer, span) {
            tr.exit(span);
        }
        if !done {
            return None;
        }
        if let Some(tr) = tracer {
            tr.count("session.output_bytes", self.echo.bytes as f64);
            tr.count("session.compactions", self.compactions as f64);
            tr.count("session.replays", 1.0);
        }
        let mut out = std::mem::replace(&mut self.out, Replay::blank(self.lines.len()));
        out.failed += self.echo.failed;
        out.echo_ok = self.echo.complete();
        out.cost = self.session.effective_cost();
        Some(out)
    }

    fn line(&mut self, line: &str, tracer: Option<&Tracer>) {
        let Some(tr) = tracer else {
            match parse_request(line) {
                Ok(req) => {
                    self.session.handle(&req);
                    let out = self.session.take_output();
                    self.echo.take(&out);
                }
                Err(_) => self.out.failed += 1,
            }
            return;
        };
        let t = Instant::now();
        let parsed = parse_request(line);
        tr.sample("protocol.parse_ns", t.elapsed().as_nanos() as u64);
        let Ok(req) = parsed else {
            self.out.failed += 1;
            return;
        };
        let before = self.session.table_len();
        let t = Instant::now();
        self.session.handle(&req);
        tr.sample("session.handle_ns", t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let out = self.session.take_output();
        tr.sample("session.take_ns", t.elapsed().as_nanos() as u64);
        self.echo.take(&out);
        let after = self.session.table_len();
        if after < before {
            self.compactions += 1;
        }
        tr.peak("session.table_peak", after as f64);
        tr.peak(
            "session.bin_records_peak",
            self.session.bin_records() as f64,
        );
    }
}

/// Replays the whole recording in one go.
pub fn replay(
    rec: &Recording,
    lines: &[&str],
    rate: Option<f64>,
    tracer: Option<&Tracer>,
) -> Replay {
    let mut r = Replayer::new(rec, lines, rate);
    loop {
        if let Some(out) = r.step(tracer) {
            return out;
        }
    }
}

/// Restores the midpoint snapshot, replays the tail and drains; returns
/// the restored session's final cost.
///
/// # Errors
/// The restore error, if the snapshot does not restore.
pub fn restore_and_finish(
    snap: &str,
    tail: &[&str],
    tracer: Option<&Tracer>,
) -> Result<dbp_core::Area, String> {
    let cfg = config();
    let t = Instant::now();
    let mut session = snapshot::restore(snap, &cfg)?;
    if let Some(tr) = tracer {
        tr.sample("snapshot.restore_ns", t.elapsed().as_nanos() as u64);
    }
    session.take_output();
    for line in tail {
        let req = parse_request(line).map_err(|e| e.to_string())?;
        session.handle(&req);
        session.take_output();
    }
    session.handle(&drain_request());
    session.take_output();
    Ok(session.effective_cost())
}
