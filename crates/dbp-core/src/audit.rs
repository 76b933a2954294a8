//! Streaming invariant auditor for engine runs.
//!
//! [`InvariantAuditor`] is an [`EventSink`] that mirrors the simulation
//! from the event stream alone and cross-checks, event by event:
//!
//! * **Load conservation** — every bin's mirrored load matches the
//!   `load_after` the engine reports, never exceeds capacity, and returns
//!   to exactly zero when the bin closes;
//! * **Lifecycle discipline** — bins open before they are used, close only
//!   when empty, and are never touched again after closing;
//! * **Timeline monotonicity** — event timestamps never regress, and
//!   departures precede arrivals within a tick by emission order;
//! * **First-Fit agreement** — at every arrival, the capacity tournament
//!   tree and the naive linear scan name the same bin (the live
//!   [`BinStore`] is probed *at the decision point*, so a divergence is
//!   caught on the exact event where it first matters);
//! * **Cost triple-entry** — after the run, the incremental engine cost,
//!   the sum of per-bin `closed − opened` intervals, and the integral of
//!   the mirrored open-bin count over time must all agree
//!   ([`InvariantAuditor::verify_result`]);
//! * **Failure bookkeeping** — a failed bin must be drained (every
//!   resident displaced) before its `BinFailed`, every re-admission must
//!   name an item that was actually displaced and not yet re-admitted,
//!   and the [`crate::failure::ResilienceReport`] totals must match the
//!   event stream exactly (displacements = re-admissions + drops);
//! * **Demand ≤ bill** — the integral of the mirrored total load never
//!   exceeds the integral of the open-bin count (`d(σ) ≤ cost`); an
//!   over-unity utilisation is reported as a violation instead of being
//!   clamped away;
//! * **Recourse bookkeeping** — a migration must move a genuinely resident
//!   item between two distinct open bins, conserve total load across the
//!   move, respect the target's capacity and reported `load_after`, and —
//!   when the expected [`RecourseBudget`] is declared via
//!   [`InvariantAuditor::expect_budget`] — never exceed the allowance a
//!   faithful budget replay grants its epoch. Post-run, the stream's
//!   migration/closure counts must match the
//!   [`crate::recourse::RecourseReport`].
//!
//! The auditor latches the **first** violation with its event index and
//! full context, then stops mirroring — later checks would only cascade
//! from the first divergence. [`run_audited`] is the test-friendly
//! wrapper: a batch run with the auditor attached that panics on any
//! violation.

use core::fmt;

use crate::algorithm::OnlineAlgorithm;
use crate::bin_state::BinStore;
use crate::cost::Area;
use crate::engine::{run_with_sink, PackingResult};
use crate::error::EngineError;
use crate::instance::Instance;
use crate::item::ItemId;
use crate::recourse::{RecourseBudget, RecourseCtl};
use crate::size::{SizeVec, MAX_DIMS, SIZE_SCALE};
use crate::time::Time;
use crate::trace::{EngineEvent, EventSink};

/// The first invariant violation an auditor observed, with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// 0-based index of the divergent event in the run's event stream
    /// (`u64::MAX` for violations found post-run by `verify_result`).
    pub index: u64,
    /// The divergent event, when the violation is tied to one.
    pub event: Option<EngineEvent>,
    /// What went wrong, with the values that disagreed.
    pub message: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.event {
            Some(ev) => write!(
                f,
                "audit violation at event #{} ({:?}): {}",
                self.index, ev, self.message
            ),
            None => write!(f, "audit violation (post-run): {}", self.message),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Mirror of one bin, rebuilt purely from the event stream.
#[derive(Debug, Clone)]
struct MirrorBin {
    opened_at: Time,
    load: [u64; MAX_DIMS],
    residents: u32,
    open: bool,
}

/// An [`EventSink`] that re-derives the simulation state from events and
/// flags the first inconsistency (see the module docs for the invariant
/// list). Cheap enough to stay attached in every test run.
#[derive(Debug, Default, Clone)]
pub struct InvariantAuditor {
    bins: Vec<MirrorBin>,
    open_count: usize,
    /// Time up to which `integral_cost` has been accumulated.
    cur: Time,
    /// `∫ (mirrored open-bin count) dt`, exact.
    integral_cost: Area,
    /// `Σ (closed_at − opened_at)` over closed bins, exact.
    interval_cost: Area,
    /// Arrival awaiting its `Placed` event: `(item, at, size)`.
    pending_arrival: Option<(ItemId, Time, SizeVec)>,
    /// Sum of all mirrored bin loads (raw units), per dimension.
    total_load: [u64; MAX_DIMS],
    /// `∫ (mirrored total load) dt` — the served-demand area, which may
    /// never exceed `integral_cost` (utilisation ≤ 1).
    load_area: Area,
    /// Items displaced by a crash and not yet re-admitted. Whatever is
    /// left after the run must equal the report's `dropped` count.
    displaced_outstanding: std::collections::HashSet<u32>,
    failures_seen: u64,
    displacements_seen: u64,
    readmissions_seen: u64,
    migrations_seen: u64,
    migration_closures_seen: u64,
    /// Independent budget replay, armed by [`InvariantAuditor::expect_budget`]:
    /// every `Placed`/`Departure` event opens an epoch exactly as the engine
    /// does, and each `ItemMigrated` must fit the replayed allowance.
    budget_replay: Option<RecourseCtl>,
    events_seen: u64,
    violation: Option<AuditViolation>,
}

impl InvariantAuditor {
    /// A fresh auditor.
    pub fn new() -> InvariantAuditor {
        InvariantAuditor::default()
    }

    /// The first violation observed during streaming, if any.
    pub fn violation(&self) -> Option<&AuditViolation> {
        self.violation.as_ref()
    }

    /// Number of events received (including any after a latched
    /// violation).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Declares the [`RecourseBudget`] the audited run was configured with
    /// and arms the budget replay: the auditor then re-derives the per-epoch
    /// move allowance from the event stream alone (every `Placed` and
    /// `Departure` opens an epoch, exactly mirroring the engine) and flags
    /// any `ItemMigrated` the declared budget could not have afforded.
    /// Call before the run starts.
    pub fn expect_budget(&mut self, budget: RecourseBudget) {
        self.budget_replay = Some(RecourseCtl::new(budget));
    }

    /// Voluntary migrations observed in the stream so far.
    pub fn migrations_seen(&self) -> u64 {
        self.migrations_seen
    }

    /// Exact `∫ (open bins) dt` accumulated from the event stream so far.
    pub fn integral_cost(&self) -> Area {
        self.integral_cost
    }

    /// Exact `Σ (closed − opened)` over bins the stream has closed.
    pub fn interval_cost(&self) -> Area {
        self.interval_cost
    }

    fn fail(&mut self, event: &EngineEvent, message: String) {
        if self.violation.is_none() {
            self.violation = Some(AuditViolation {
                index: self.events_seen - 1,
                event: Some(*event),
                message,
            });
        }
    }

    fn fail_post(&mut self, message: String) {
        if self.violation.is_none() {
            self.violation = Some(AuditViolation {
                index: u64::MAX,
                event: None,
                message,
            });
        }
    }

    /// Advances the cost and served-demand integrals to `t` using the
    /// current open count and total load.
    fn integrate_to(&mut self, t: Time) {
        if t > self.cur {
            let dt = t.since(self.cur);
            self.integral_cost += Area::from_bins_ticks(self.open_count as u64, dt);
            // The bottleneck dimension binds: every open bin serves at most
            // one unit of each dimension, so `max_d ΣL_d ≤ open bins` is the
            // tightest served-demand bound (and equals the scalar load at
            // D = 1).
            let bottleneck = self.total_load.iter().copied().max().unwrap_or(0);
            self.load_area += Area::from_load_ticks(bottleneck, dt);
            self.cur = t;
        }
    }

    /// Post-run check: every bin closed, and the three cost ledgers —
    /// engine-incremental ([`PackingResult::cost`]), per-bin intervals,
    /// and the open-count integral (both mirrored here, plus the result's
    /// own timeline integral) — agree exactly.
    ///
    /// Returns the streaming violation if one was latched mid-run.
    pub fn verify_result(&mut self, result: &PackingResult) -> Result<(), AuditViolation> {
        if self.violation.is_none() {
            if self.open_count != 0 {
                self.fail_post(format!(
                    "{} bin(s) still open after the run",
                    self.open_count
                ));
            } else if result.bins_opened != self.bins.len() {
                self.fail_post(format!(
                    "result says {} bins opened, event stream saw {}",
                    result.bins_opened,
                    self.bins.len()
                ));
            } else if self.interval_cost != result.cost {
                self.fail_post(format!(
                    "cost mismatch: per-bin intervals give {}, engine accumulated {}",
                    self.interval_cost, result.cost
                ));
            } else if self.integral_cost != result.cost {
                self.fail_post(format!(
                    "cost mismatch: open-count integral gives {}, engine accumulated {}",
                    self.integral_cost, result.cost
                ));
            } else if result.cost_from_timeline() != result.cost {
                self.fail_post(format!(
                    "cost mismatch: result timeline integrates to {}, engine accumulated {}",
                    result.cost_from_timeline(),
                    result.cost
                ));
            } else if self.load_area > self.integral_cost {
                self.fail_post(format!(
                    "over-unity utilisation: served demand {} exceeds bill {}",
                    self.load_area, self.integral_cost
                ));
            } else if self.failures_seen != result.resilience.bin_failures {
                self.fail_post(format!(
                    "resilience mismatch: stream saw {} bin failure(s), report says {}",
                    self.failures_seen, result.resilience.bin_failures
                ));
            } else if self.displacements_seen != result.resilience.displacements {
                self.fail_post(format!(
                    "resilience mismatch: stream saw {} displacement(s), report says {}",
                    self.displacements_seen, result.resilience.displacements
                ));
            } else if self.readmissions_seen != result.resilience.readmissions {
                self.fail_post(format!(
                    "resilience mismatch: stream saw {} re-admission(s), report says {}",
                    self.readmissions_seen, result.resilience.readmissions
                ));
            } else if result.resilience.displacements
                != result.resilience.readmissions + result.resilience.dropped
            {
                self.fail_post(format!(
                    "resilience ledger broken: {} displaced ≠ {} re-admitted + {} dropped",
                    result.resilience.displacements,
                    result.resilience.readmissions,
                    result.resilience.dropped
                ));
            } else if self.displaced_outstanding.len() as u64 != result.resilience.dropped {
                self.fail_post(format!(
                    "{} displaced item(s) never re-admitted, report counts {} dropped",
                    self.displaced_outstanding.len(),
                    result.resilience.dropped
                ));
            } else if self.migrations_seen != result.recourse.migrations {
                self.fail_post(format!(
                    "recourse mismatch: stream saw {} migration(s), report says {}",
                    self.migrations_seen, result.recourse.migrations
                ));
            } else if self.migration_closures_seen != result.recourse.migration_closures {
                self.fail_post(format!(
                    "recourse mismatch: stream saw {} migration closure(s), report says {}",
                    self.migration_closures_seen, result.recourse.migration_closures
                ));
            } else if let Some(replayed) = self
                .budget_replay
                .as_ref()
                .filter(|ctl| !ctl.budget.is_none())
                .map(|ctl| ctl.report.epochs)
            {
                if replayed != result.recourse.epochs {
                    self.fail_post(format!(
                        "recourse mismatch: budget replay opened {} epoch(s), report says {}",
                        replayed, result.recourse.epochs
                    ));
                }
            }
        }
        match &self.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }
}

impl EventSink for InvariantAuditor {
    fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
        self.events_seen += 1;
        if self.violation.is_some() {
            return;
        }
        // Monotonicity first: no event may be stamped before the integral
        // frontier (the latest time already seen).
        let t = event.time();
        if t < self.cur {
            self.fail(
                event,
                format!("time regressed: {t} < frontier {}", self.cur),
            );
            return;
        }
        self.integrate_to(t);
        match *event {
            EngineEvent::Arrival { item, at, size, .. } => {
                if let Some((prev, _, _)) = self.pending_arrival {
                    self.fail(
                        event,
                        format!("arrival of {item} while {prev} still awaits placement"),
                    );
                    return;
                }
                // The store is pre-placement here: the exact state both
                // First-Fit implementations answer from.
                let tree = bins.first_fit(size);
                let linear = bins.first_fit_linear(size);
                if tree != linear {
                    self.fail(
                        event,
                        format!(
                            "First-Fit divergence for {item} (size {:?}): tree says {:?}, linear scan says {:?}",
                            size.raws(),
                            tree,
                            linear
                        ),
                    );
                    return;
                }
                self.pending_arrival = Some((item, at, size));
            }
            EngineEvent::BinOpened { bin, at } => {
                if bin.index() != self.bins.len() {
                    self.fail(
                        event,
                        format!("{bin} opened out of order (expected b{})", self.bins.len()),
                    );
                    return;
                }
                self.bins.push(MirrorBin {
                    opened_at: at,
                    load: [0; MAX_DIMS],
                    residents: 0,
                    open: true,
                });
                self.open_count += 1;
                if bins.open_count() != self.open_count {
                    self.fail(
                        event,
                        format!(
                            "open-count mismatch: store has {}, mirror has {}",
                            bins.open_count(),
                            self.open_count
                        ),
                    );
                }
            }
            EngineEvent::Placed {
                item,
                at,
                bin,
                opened,
                load_after,
                ..
            } => {
                let (p_item, p_at, p_size) = match self.pending_arrival.take() {
                    Some(p) => p,
                    None => {
                        self.fail(event, format!("{item} placed without a pending arrival"));
                        return;
                    }
                };
                if p_item != item || p_at != at {
                    self.fail(
                        event,
                        format!("placement of {item}@{at} does not match pending arrival {p_item}@{p_at}"),
                    );
                    return;
                }
                let Some(m) = self.bins.get_mut(bin.index()) else {
                    self.fail(event, format!("{item} placed into never-opened {bin}"));
                    return;
                };
                if !m.open {
                    self.fail(event, format!("{item} placed into closed {bin}"));
                    return;
                }
                if opened != (m.residents == 0) {
                    let residents = m.residents;
                    self.fail(
                        event,
                        format!(
                            "opened={opened} disagrees with mirror ({residents} resident(s) in {bin})"
                        ),
                    );
                    return;
                }
                let raws = p_size.raws();
                for (l, r) in m.load.iter_mut().zip(raws) {
                    *l += r;
                }
                m.residents += 1;
                if m.load.iter().any(|&l| l > SIZE_SCALE) {
                    let load = m.load;
                    self.fail(
                        event,
                        format!("{bin} over capacity: mirrored load {load:?} > {SIZE_SCALE}"),
                    );
                    return;
                }
                if m.load != load_after.raws() {
                    let load = m.load;
                    self.fail(
                        event,
                        format!(
                            "load conservation broken in {bin}: mirror says {load:?}, engine reports {:?}",
                            load_after.raws()
                        ),
                    );
                    return;
                }
                for (l, r) in self.total_load.iter_mut().zip(raws) {
                    *l += r;
                }
                // The engine opens an arrival recourse epoch right after a
                // placement settles (fresh arrival or re-admission alike).
                if let Some(ctl) = &mut self.budget_replay {
                    if !ctl.budget.is_none() {
                        ctl.begin_epoch();
                    }
                }
            }
            EngineEvent::Departure {
                item, bin, size, ..
            } => {
                let Some(m) = self.bins.get_mut(bin.index()) else {
                    self.fail(event, format!("{item} departs never-opened {bin}"));
                    return;
                };
                if !m.open {
                    self.fail(event, format!("{item} departs closed {bin}"));
                    return;
                }
                let raws = size.raws();
                if m.residents == 0 || m.load.iter().zip(raws).any(|(&l, r)| l < r) {
                    let (load, residents) = (m.load, m.residents);
                    self.fail(
                        event,
                        format!(
                            "{item} (size {:?}) departs {bin} holding load {load:?} with {residents} resident(s)",
                            raws
                        ),
                    );
                    return;
                }
                for (l, r) in m.load.iter_mut().zip(raws) {
                    *l -= r;
                }
                m.residents -= 1;
                for (l, r) in self.total_load.iter_mut().zip(raws) {
                    *l -= r;
                }
                // A (non-stale) departure opens a departure recourse epoch;
                // any closure event for the emptied bin follows *before*
                // migrations, but closures never touch the allowance.
                if let Some(ctl) = &mut self.budget_replay {
                    if !ctl.budget.is_none() {
                        ctl.begin_epoch();
                    }
                }
            }
            EngineEvent::ItemDisplaced {
                item, bin, size, ..
            } => {
                // A displacement drains the bin exactly like a departure —
                // same conservation checks — but additionally opens a
                // re-admission obligation that `ItemReadmitted` (or the
                // report's `dropped` count) must later discharge.
                let Some(m) = self.bins.get_mut(bin.index()) else {
                    self.fail(event, format!("{item} displaced from never-opened {bin}"));
                    return;
                };
                if !m.open {
                    self.fail(event, format!("{item} displaced from closed {bin}"));
                    return;
                }
                let raws = size.raws();
                if m.residents == 0 || m.load.iter().zip(raws).any(|(&l, r)| l < r) {
                    let (load, residents) = (m.load, m.residents);
                    self.fail(
                        event,
                        format!(
                            "{item} (size {:?}) displaced from {bin} holding load {load:?} with {residents} resident(s)",
                            raws
                        ),
                    );
                    return;
                }
                for (l, r) in m.load.iter_mut().zip(raws) {
                    *l -= r;
                }
                m.residents -= 1;
                for (l, r) in self.total_load.iter_mut().zip(raws) {
                    *l -= r;
                }
                self.displacements_seen += 1;
                if !self.displaced_outstanding.insert(item.0) {
                    self.fail(event, format!("{item} displaced twice"));
                }
            }
            EngineEvent::ItemReadmitted {
                item,
                original,
                at,
                size,
                ..
            } => {
                if let Some((prev, _, _)) = self.pending_arrival {
                    self.fail(
                        event,
                        format!("re-admission of {item} while {prev} still awaits placement"),
                    );
                    return;
                }
                if !self.displaced_outstanding.remove(&original.0) {
                    self.fail(
                        event,
                        format!("{item} re-admits {original}, which was never displaced (or already re-admitted)"),
                    );
                    return;
                }
                // Same pre-placement First-Fit probe as a fresh arrival.
                let tree = bins.first_fit(size);
                let linear = bins.first_fit_linear(size);
                if tree != linear {
                    self.fail(
                        event,
                        format!(
                            "First-Fit divergence for re-admitted {item} (size {:?}): tree says {:?}, linear scan says {:?}",
                            size.raws(),
                            tree,
                            linear
                        ),
                    );
                    return;
                }
                self.readmissions_seen += 1;
                self.pending_arrival = Some((item, at, size));
            }
            EngineEvent::ItemMigrated {
                item,
                from,
                to,
                size,
                load_after,
                ..
            } => {
                if let Some((prev, _, _)) = self.pending_arrival {
                    self.fail(
                        event,
                        format!("migration of {item} while {prev} still awaits placement"),
                    );
                    return;
                }
                if from == to {
                    self.fail(event, format!("{item} \"migrated\" within {from}"));
                    return;
                }
                // Validate both endpoints before mutating either mirror, so
                // a latched violation leaves the divergent state intact.
                let (src_open, src_load, src_residents) = match self.bins.get(from.index()) {
                    Some(m) => (m.open, m.load, m.residents),
                    None => {
                        self.fail(event, format!("{item} migrated out of never-opened {from}"));
                        return;
                    }
                };
                if !src_open {
                    self.fail(event, format!("{item} migrated out of closed {from}"));
                    return;
                }
                let raws = size.raws();
                if src_residents == 0 || src_load.iter().zip(raws).any(|(&l, r)| l < r) {
                    self.fail(
                        event,
                        format!(
                            "{item} (size {:?}) migrated out of {from} holding load {src_load:?} with {src_residents} resident(s)",
                            raws
                        ),
                    );
                    return;
                }
                let dst_open = match self.bins.get(to.index()) {
                    Some(m) => m.open,
                    None => {
                        self.fail(event, format!("{item} migrated into never-opened {to}"));
                        return;
                    }
                };
                if !dst_open {
                    self.fail(event, format!("{item} migrated into closed {to}"));
                    return;
                }
                let src = &mut self.bins[from.index()];
                for (l, r) in src.load.iter_mut().zip(raws) {
                    *l -= r;
                }
                src.residents -= 1;
                let emptied = src.residents == 0;
                let dst = &mut self.bins[to.index()];
                for (l, r) in dst.load.iter_mut().zip(raws) {
                    *l += r;
                }
                dst.residents += 1;
                let dst_load = dst.load;
                if dst_load.iter().any(|&l| l > SIZE_SCALE) {
                    self.fail(
                        event,
                        format!(
                            "{to} over capacity after migration: mirrored load {dst_load:?} > {SIZE_SCALE}"
                        ),
                    );
                    return;
                }
                if dst_load != load_after.raws() {
                    self.fail(
                        event,
                        format!(
                            "load conservation broken by migration into {to}: mirror says {dst_load:?}, engine reports {:?}",
                            load_after.raws()
                        ),
                    );
                    return;
                }
                // `total_load` is deliberately untouched: a migration moves
                // load between bins, it never creates or destroys any.
                self.migrations_seen += 1;
                if emptied {
                    self.migration_closures_seen += 1;
                }
                let over_budget = match &mut self.budget_replay {
                    Some(ctl) => {
                        if ctl.allowance() == 0 {
                            true
                        } else {
                            ctl.spend();
                            false
                        }
                    }
                    None => false,
                };
                if over_budget {
                    let budget = self.budget_replay.as_ref().expect("just matched").budget;
                    self.fail(
                        event,
                        format!("migration of {item} exceeds the declared budget ({budget})"),
                    );
                }
            }
            EngineEvent::BinFailed { bin, at, opened_at } => {
                // A failed bin is a closed bin whose residents were forced
                // out: by the time `BinFailed` fires the mirror must be
                // fully drained, exactly as for a voluntary close.
                let Some(m) = self.bins.get_mut(bin.index()) else {
                    self.fail(event, format!("never-opened {bin} failed"));
                    return;
                };
                if !m.open {
                    self.fail(event, format!("{bin} failed after closing"));
                    return;
                }
                if m.residents != 0 || m.load != [0; MAX_DIMS] {
                    let (load, residents) = (m.load, m.residents);
                    self.fail(
                        event,
                        format!(
                            "{bin} failed while still holding load {load:?} ({residents} resident(s) not displaced)"
                        ),
                    );
                    return;
                }
                if m.opened_at != opened_at {
                    let mirror_opened = m.opened_at;
                    self.fail(
                        event,
                        format!(
                            "{bin} opened_at mismatch: mirror {mirror_opened}, event {opened_at}"
                        ),
                    );
                    return;
                }
                m.open = false;
                self.open_count -= 1;
                self.interval_cost += Area::from_bin_ticks(at.since(opened_at));
                self.failures_seen += 1;
            }
            EngineEvent::BinClosed { bin, at, opened_at } => {
                let Some(m) = self.bins.get_mut(bin.index()) else {
                    self.fail(event, format!("never-opened {bin} closed"));
                    return;
                };
                if !m.open {
                    self.fail(event, format!("{bin} closed twice"));
                    return;
                }
                if m.residents != 0 || m.load != [0; MAX_DIMS] {
                    let (load, residents) = (m.load, m.residents);
                    self.fail(
                        event,
                        format!(
                            "{bin} closed while holding load {load:?} ({residents} resident(s))"
                        ),
                    );
                    return;
                }
                if m.opened_at != opened_at {
                    let mirror_opened = m.opened_at;
                    self.fail(
                        event,
                        format!(
                            "{bin} opened_at mismatch: mirror {mirror_opened}, event {opened_at}"
                        ),
                    );
                    return;
                }
                m.open = false;
                self.open_count -= 1;
                self.interval_cost += Area::from_bin_ticks(at.since(opened_at));
            }
            EngineEvent::ClockAdvanced { from, to } => {
                if from > to {
                    self.fail(event, format!("clock moved backwards: {from} -> {to}"));
                }
            }
        }
    }
}

/// Batch-runs `instance` through `algo` with an [`InvariantAuditor`]
/// attached and the full post-run cost cross-check applied.
///
/// # Panics
/// Panics with the first [`AuditViolation`] if any engine invariant is
/// broken — the intended always-on harness for tests.
pub fn run_audited<A: OnlineAlgorithm>(
    instance: &Instance,
    algo: A,
) -> Result<PackingResult, EngineError> {
    let mut auditor = InvariantAuditor::new();
    let result = run_with_sink(instance, algo, &mut auditor)?;
    if let Err(v) = auditor.verify_result(&result) {
        panic!("{v}");
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Placement, SimView};
    use crate::item::Item;
    use crate::size::Size;
    use crate::time::Dur;

    struct Ff;
    impl OnlineAlgorithm for Ff {
        fn name(&self) -> &str {
            "ff"
        }
        fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
            match view.first_fit(item.size) {
                Some(b) => Placement::Existing(b),
                None => Placement::OpenNew,
            }
        }
        fn reset(&mut self) {}
    }

    fn sz(n: u64, d: u64) -> Size {
        Size::from_ratio(n, d)
    }

    #[test]
    fn clean_run_passes_the_full_audit() {
        let inst = Instance::from_triples([
            (Time(0), Dur(10), sz(1, 2)),
            (Time(2), Dur(5), sz(1, 2)),
            (Time(4), Dur(9), sz(2, 3)),
            (Time(20), Dur(1), sz(1, 8)),
        ])
        .unwrap();
        let res = run_audited(&inst, Ff).unwrap();
        assert_eq!(res.cost, res.cost_from_timeline());
    }

    #[test]
    fn auditor_costs_match_engine_on_interactive_runs() {
        use crate::engine::InteractiveSim;
        let mut auditor = InvariantAuditor::new();
        let mut sim = InteractiveSim::with_sink(Ff, &mut auditor);
        sim.advance_to(Time(0));
        let (a, _) = sim.arrive_undated(sz(1, 2)).unwrap();
        sim.arrive_at(Time(3), Dur(4), sz(1, 3)).unwrap();
        sim.set_departure(a, Time(10));
        let (_, res) = sim.finish();
        auditor.verify_result(&res).unwrap();
        assert_eq!(auditor.integral_cost(), res.cost);
        assert_eq!(auditor.interval_cost(), res.cost);
    }

    /// Forwards a live run's events to an auditor, letting the test doctor
    /// (or drop) events in flight — the engine's own stream is truthful,
    /// so this is how the "auditor catches the bug" path gets exercised.
    struct TamperSink<'a, F: FnMut(EngineEvent) -> Option<EngineEvent>> {
        inner: &'a mut InvariantAuditor,
        tweak: F,
    }

    impl<F: FnMut(EngineEvent) -> Option<EngineEvent>> EventSink for TamperSink<'_, F> {
        fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
            if let Some(ev) = (self.tweak)(*event) {
                self.inner.on_event(&ev, bins);
            }
        }
    }

    #[test]
    fn auditor_names_the_first_corrupted_event() {
        use crate::engine::run_with_sink;
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(1, 2)), (Time(1), Dur(3), sz(1, 4))])
                .unwrap();
        let mut auditor = InvariantAuditor::new();
        let mut seen = 0u64;
        let mut corrupted_at = None;
        let sink = TamperSink {
            inner: &mut auditor,
            tweak: |mut ev| {
                let idx = seen;
                seen += 1;
                if let EngineEvent::Placed {
                    item, load_after, ..
                } = &mut ev
                {
                    // Corrupt r1's reported post-placement load by one raw
                    // unit.
                    if item.index() == 1 {
                        let mut raws = load_after.raws();
                        raws[0] += 1;
                        *load_after = crate::size::LoadVec::from_raws(raws);
                        corrupted_at = Some(idx);
                    }
                }
                Some(ev)
            },
        };
        run_with_sink(&inst, Ff, sink).unwrap();
        let v = auditor.violation().expect("corruption detected");
        assert_eq!(Some(v.index), corrupted_at, "first divergent event named");
        assert!(v.message.contains("load conservation"), "{}", v.message);
        assert!(v.event.is_some());
    }

    #[test]
    fn auditor_flags_a_suppressed_bin_close() {
        use crate::engine::run_with_sink;
        let inst = Instance::from_triples([(Time(0), Dur(5), sz(1, 2))]).unwrap();
        let mut auditor = InvariantAuditor::new();
        let sink = TamperSink {
            inner: &mut auditor,
            tweak: |ev| match ev {
                EngineEvent::BinClosed { .. } => None,
                other => Some(other),
            },
        };
        let res = run_with_sink(&inst, Ff, sink).unwrap();
        let err = auditor.verify_result(&res).unwrap_err();
        assert_eq!(err.index, u64::MAX, "post-run violation");
        assert!(err.message.contains("still open"), "{}", err.message);
    }

    #[test]
    fn budget_replay_accepts_a_faithful_recourse_run() {
        use crate::engine::run_with_recourse;
        use crate::recourse::{Migration, RecourseEpoch, RecourseView};

        /// First-Fit that, at every departure epoch, tries to empty the
        /// lightest open bin into any other bin with room.
        struct Consolidator;
        impl OnlineAlgorithm for Consolidator {
            fn name(&self) -> &str {
                "consolidator-audit"
            }
            fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
                match view.first_fit(item.size) {
                    Some(b) => Placement::Existing(b),
                    None => Placement::OpenNew,
                }
            }
            fn propose_migration(
                &mut self,
                view: &RecourseView<'_>,
                epoch: RecourseEpoch,
                _moves_left: u32,
            ) -> Option<Migration> {
                if !matches!(epoch, RecourseEpoch::Departure) {
                    return None;
                }
                let sim = view.sim();
                let source = sim
                    .open_bins()
                    .min_by_key(|r| (r.load, r.id.0))
                    .map(|r| r.id)?;
                let item = view.residents(source).iter().copied().min()?;
                let size = view.item_size(item)?;
                let to = sim
                    .open_bins()
                    .find(|r| r.id != source && r.fits(size))
                    .map(|r| r.id)?;
                Some(Migration { item, to })
            }
            fn reset(&mut self) {}
        }

        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 4)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap();
        let budget = RecourseBudget::per_epoch(1);
        let mut auditor = InvariantAuditor::new();
        auditor.expect_budget(budget);
        let res = run_with_recourse(&inst, Consolidator, budget, &mut auditor).unwrap();
        auditor.verify_result(&res).unwrap();
        assert_eq!(auditor.migrations_seen(), 1);
        assert_eq!(res.recourse.migrations, 1);
        assert_eq!(res.recourse.migration_closures, 1);
        assert_eq!(res.cost.as_bin_ticks(), 4.0 + 20.0);
    }

    /// Satellite fixture: an event stream forging a migration the declared
    /// budget could never afford must latch a violation at that event, even
    /// when the forged move itself is perfectly load-conserving.
    #[test]
    fn auditor_flags_a_forged_migration() {
        use crate::bin_state::BinId;
        use crate::engine::run_with_sink;

        /// Forwards the truthful stream and injects one forged event right
        /// after the first `Departure`.
        struct InjectSink<'a> {
            inner: &'a mut InvariantAuditor,
            forged: Option<EngineEvent>,
        }
        impl EventSink for InjectSink<'_> {
            fn on_event(&mut self, event: &EngineEvent, bins: &BinStore) {
                self.inner.on_event(event, bins);
                if matches!(event, EngineEvent::Departure { .. }) {
                    if let Some(f) = self.forged.take() {
                        self.inner.on_event(&f, bins);
                    }
                }
            }
        }

        // r0 [0,4) and r1 [0,10) share bin 0; r2 [0,20) pins bin 1. After
        // r0 departs, "moving" r1 into bin 1 conserves load exactly — only
        // the budget replay can tell it was never allowed.
        let inst = Instance::from_triples([
            (Time(0), Dur(4), sz(1, 2)),
            (Time(0), Dur(10), sz(1, 4)),
            (Time(0), Dur(20), sz(3, 4)),
        ])
        .unwrap();
        let mut auditor = InvariantAuditor::new();
        auditor.expect_budget(RecourseBudget::None);
        let forged = EngineEvent::ItemMigrated {
            item: ItemId(1),
            at: Time(4),
            from: BinId(0),
            to: BinId(1),
            size: sz(1, 4).into(),
            load_after: crate::size::LoadVec::from_raws([sz(3, 4).raw() + sz(1, 4).raw(), 0, 0]),
        };
        let sink = InjectSink {
            inner: &mut auditor,
            forged: Some(forged),
        };
        run_with_sink(&inst, Ff, sink).unwrap();
        let v = auditor.violation().expect("forged migration detected");
        assert!(
            v.message.contains("exceeds the declared budget"),
            "{}",
            v.message
        );
        assert!(matches!(
            v.event,
            Some(EngineEvent::ItemMigrated {
                item: ItemId(1),
                ..
            })
        ));
    }

    #[test]
    fn placement_paths_are_classified() {
        let inst =
            Instance::from_triples([(Time(0), Dur(5), sz(1, 2)), (Time(1), Dur(3), sz(1, 4))])
                .unwrap();
        let res = crate::engine::run(&inst, Ff).unwrap();
        // Ff answers through the tree only: every placement is fast-path.
        assert_eq!(res.metrics.fast_path_placements, 2);
        assert_eq!(res.metrics.scan_placements, 0);
        assert_eq!(res.metrics.arrivals, 2);
        assert!(res.metrics.tree_queries >= 2);
        assert_eq!(res.metrics.linear_scans, 0);
    }
}
