//! The certify path: a cold, memory-only bracket service certifies every
//! instance, and every registry algorithm runs on every instance under
//! the invariant auditor, so each cell gets a certified ratio bracket.

use std::time::Instant;

use dbp_algos::offline::{self, RefineBudget};
use dbp_bench::bracket::{
    BracketService, Effort, Goal, CACHED_NODE_BUDGET, EXACT_NR_LIMIT, EXACT_NR_NODE_CAP,
    FFD_TIGHTEN_LIMIT, PORTFOLIO_LIMIT,
};
use dbp_core::bounds::{BracketRung, CertifiedBracket};
use dbp_core::engine::run_with_sink;
use dbp_core::{Instance, InvariantAuditor};

use crate::probe::{SpanAlgo, Tracer};
use crate::stats::geo_mean;

/// The instances one certification covers.
pub struct CertifySet {
    /// Certified against `OPT_R`.
    pub opt_r: Vec<Instance>,
    /// Certified against `OPT_NR`.
    pub opt_nr: Vec<Instance>,
}

/// What one certification produced.
pub struct CertifyRun {
    /// Wall-clock seconds from instances to the complete matrix.
    pub secs: f64,
    /// Cells run (algorithms × instances).
    pub cells: u64,
    /// Cells whose audit or bracket check failed.
    pub failed: u64,
    /// Geometric mean of upper/lower over every bracket.
    pub looseness_gmean: f64,
    /// Geometric mean of the certified ratio upper bounds over cells.
    pub ratio_hi_gmean: f64,
    /// Sum of every cell's online cost, in bin·ticks.
    pub cost_bin_ticks: f64,
    /// Brackets certified exactly (lower = upper).
    pub exact: u64,
    /// Brackets attempted.
    pub brackets: u64,
    /// Violations found, for the report.
    pub problems: Vec<String>,
}

/// One certification of a set on a fresh, cold service, advanced one
/// instance (its bracket plus every registry algorithm's cell) per
/// [`Certifier::step`], so a run can interleave other work between
/// instances.
pub struct Certifier<'a> {
    jobs: Vec<(&'a Instance, Goal)>,
    svc: BracketService,
    next: usize,
    run: CertifyRun,
    loose: Vec<f64>,
    hi: Vec<f64>,
    certified: Vec<CertifiedBracket>,
}

impl<'a> Certifier<'a> {
    /// A cold certification of `set`.
    pub fn new(set: &'a CertifySet) -> Certifier<'a> {
        let jobs = set
            .opt_r
            .iter()
            .map(|i| (i, Goal::OptR))
            .chain(set.opt_nr.iter().map(|i| (i, Goal::OptNr)))
            .collect();
        Certifier {
            jobs,
            svc: BracketService::new(Effort::Cached),
            next: 0,
            run: Certifier::new_run(),
            loose: Vec::new(),
            hi: Vec::new(),
            certified: Vec::new(),
        }
    }

    /// Certifies the next instance and runs its cells; with a tracer,
    /// times the `certified` call and every algorithm decision. Returns
    /// the finished certification after the last instance.
    pub fn step(&mut self, tracer: Option<&Tracer>) -> Option<CertifyRun> {
        let (inst, goal) = self.jobs[self.next];
        self.next += 1;
        let span = tracer.map(|t| t.enter("certify.instance"));
        let started = Instant::now();
        let cb = self.svc.certified(inst, goal);
        if let Some(tr) = tracer {
            let layer = match goal {
                Goal::OptR => "bracket.opt_r_ns",
                Goal::OptNr => "bracket.opt_nr_ns",
            };
            tr.sample(layer, started.elapsed().as_nanos() as u64);
        }
        let b = cb.bracket;
        let run = &mut self.run;
        run.brackets += 1;
        if cb.rung == BracketRung::Exact || b.lower == b.upper {
            run.exact += 1;
        }
        let bracket_ok = b.lower <= b.upper;
        if !bracket_ok {
            run.problems
                .push(format!("bracket lower {:?} > upper {:?}", b.lower, b.upper));
        }
        self.loose
            .push(b.upper.as_bin_ticks() / b.lower.as_bin_ticks());
        for name in dbp_algos::registry_names() {
            run.cells += 1;
            let ok = cell(inst, name, &cb, tracer, run, &mut self.hi) && bracket_ok;
            if !ok {
                run.failed += 1;
            }
        }
        self.certified.push(cb);
        run.secs += started.elapsed().as_secs_f64();
        if let (Some(tr), Some(span)) = (tracer, span) {
            tr.exit(span);
        }
        if self.next < self.jobs.len() {
            return None;
        }
        // A warm lookup must serve exactly the bracket the cold one computed.
        for (&(inst, goal), cb) in self.jobs.iter().zip(&self.certified) {
            if self.svc.certified(inst, goal).bracket != cb.bracket {
                self.run
                    .problems
                    .push("warm bracket differs from cold".to_string());
                self.run.failed += 1;
            }
        }
        if let Some(tr) = tracer {
            let stats = self.svc.stats();
            tr.peak("bracket.cold", stats.computed as f64);
            tr.peak("bracket.warm", stats.warm() as f64);
        }
        self.run.looseness_gmean = geo_mean(&self.loose);
        self.run.ratio_hi_gmean = geo_mean(&self.hi);
        Some(std::mem::replace(&mut self.run, Certifier::new_run()))
    }

    fn new_run() -> CertifyRun {
        CertifyRun {
            secs: 0.0,
            cells: 0,
            failed: 0,
            looseness_gmean: 0.0,
            ratio_hi_gmean: 0.0,
            cost_bin_ticks: 0.0,
            exact: 0,
            brackets: 0,
            problems: Vec::new(),
        }
    }
}

/// Certifies the whole set in one go.
pub fn certify(set: &CertifySet, tracer: Option<&Tracer>) -> CertifyRun {
    let mut c = Certifier::new(set);
    loop {
        if let Some(run) = c.step(tracer) {
            return run;
        }
    }
}

/// Runs one cell under the auditor; returns whether it is clean and no
/// cheaper than the certified lower bound.
fn cell(
    inst: &Instance,
    name: &str,
    cb: &CertifiedBracket,
    tracer: Option<&Tracer>,
    run: &mut CertifyRun,
    hi: &mut Vec<f64>,
) -> bool {
    let algo = dbp_algos::by_name(name).expect("registry names construct");
    let mut auditor = InvariantAuditor::new();
    let res = match tracer {
        None => run_with_sink(inst, algo, &mut auditor),
        Some(tr) => {
            let layer = format!("algos.decide_ns.{}", name.replace(':', "."));
            run_with_sink(inst, SpanAlgo::new(algo, tr, &layer), &mut auditor)
        }
    };
    let res = match res {
        Ok(r) => r,
        Err(e) => {
            run.problems.push(format!("{name}: engine error {e}"));
            return false;
        }
    };
    let t = Instant::now();
    let verified = auditor.verify_result(&res);
    if let Some(tr) = tracer {
        tr.sample("audit.verify_ns", t.elapsed().as_nanos() as u64);
    }
    if let Err(v) = verified {
        run.problems.push(format!("{name}: audit {v}"));
        return false;
    }
    run.cost_bin_ticks += res.cost.as_bin_ticks();
    hi.push(cb.ratio_bracket(res.cost).1);
    if res.cost < cb.bracket.lower {
        run.problems
            .push(format!("{name}: cost below the certified lower bound"));
        return false;
    }
    true
}

/// Runs each ladder rung's public entry point standalone on `set`, under
/// the budgets the ladder gives it, timing each and summing the nodes
/// spent.
pub fn time_rungs(set: &CertifySet, tracer: &Tracer) {
    let span = tracer.enter("certify.rungs");
    let mut nodes = 0u64;
    for inst in &set.opt_r {
        let mut budget = RefineBudget::nodes(CACHED_NODE_BUDGET);
        let t = Instant::now();
        if inst.len() <= FFD_TIGHTEN_LIMIT {
            let _ = offline::refine_opt_r(inst, false, &mut RefineBudget::unlimited());
        } else {
            let _ = offline::refine_opt_r(inst, false, &mut budget);
        }
        tracer.sample("offline.ffd_ns", t.elapsed().as_nanos() as u64);
        if inst.len() <= PORTFOLIO_LIMIT {
            let t = Instant::now();
            let _ = offline::best_nonrepacking_budgeted(inst, &mut budget);
            tracer.sample("offline.portfolio_ns", t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        let _ = offline::refine_opt_r(inst, true, &mut budget);
        tracer.sample("offline.exact_r_ns", t.elapsed().as_nanos() as u64);
        nodes += budget.spent();
    }
    for inst in &set.opt_nr {
        let t = Instant::now();
        let _ = offline::best_nonrepacking(inst);
        tracer.sample("offline.portfolio_ns", t.elapsed().as_nanos() as u64);
        if inst.len() <= EXACT_NR_LIMIT {
            let mut sub = RefineBudget::nodes(CACHED_NODE_BUDGET).child(EXACT_NR_NODE_CAP);
            let t = Instant::now();
            let _ = offline::exact_opt_nr_budgeted(inst, EXACT_NR_LIMIT, &mut sub);
            tracer.sample("offline.exact_nr_ns", t.elapsed().as_nanos() as u64);
            nodes += sub.spent();
        }
    }
    tracer.peak("offline.nodes", nodes as f64);
    tracer.exit(span);
}
