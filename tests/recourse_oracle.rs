//! Frozen-oracle battery for the recourse wrappers (DESIGN.md §15).
//!
//! `rod:` and `amortized:` answer their two questions — the lightest open
//! bin, and the first bin an item may safely move into — from the bin
//! store's recourse planes. The references below are the scan-based
//! wrappers those planes replaced, kept verbatim apart from rebuilding the
//! id-sorted resident list the old view returned. Every run must match
//! them exactly: the same JSONL event bytes, the same cost and the same
//! recourse ledger, across dimensions 1–3, four budgets, seeded chaos and
//! three workload generators, plus a session that dates undated arrivals,
//! compacts aggressively and restarts from a snapshot mid-stream.

use clairvoyant_dbp::algos;
use clairvoyant_dbp::core::engine::{run_with_failures_recourse, InteractiveSim};
use clairvoyant_dbp::core::{
    BinId, Dur, EngineEvent, FailurePlan, Instance, InstanceBuilder, Item, ItemId, JsonlSink,
    Migration, OnlineAlgorithm, Placement, RecourseBudget, RecourseEpoch, RecourseView,
    RetryPolicy, SimView, Size, SizeVec, Time, MAX_DIMS, SIZE_SCALE,
};
use clairvoyant_dbp::serve::protocol::{Op, Request};
use clairvoyant_dbp::serve::{snapshot, ServeConfig, Session};
use clairvoyant_dbp::workloads::{
    cloud_trace, random_general, vm_anti_correlated, CloudConfig, GeneralConfig, VmConfig,
};
use proptest::prelude::*;

/// The id-sorted `(id, size, departure)` resident list the scan-based
/// wrappers were written against.
fn sorted_residents(view: &RecourseView<'_>, bin: BinId) -> Vec<(ItemId, SizeVec, Time)> {
    let mut out: Vec<(ItemId, SizeVec, Time)> = view
        .residents(bin)
        .iter()
        .map(|&id| {
            (
                id,
                view.item_size(id).unwrap(),
                view.item_departure(id).unwrap(),
            )
        })
        .collect();
    out.sort_unstable_by_key(|&(id, _, _)| id);
    out
}

struct PlannedMove {
    item: ItemId,
    to: BinId,
}

/// Reference evacuation planner: scans every open bin and rebuilds each
/// one's latest departure from its residents.
fn plan_evacuation(view: &RecourseView<'_>, source: BinId) -> Option<Vec<PlannedMove>> {
    let residents = sorted_residents(view, source);
    if residents.is_empty() {
        return None;
    }
    let mut targets: Vec<(BinId, [u64; MAX_DIMS], Time)> = view
        .sim()
        .open_bins()
        .filter(|r| r.id != source)
        .map(|r| {
            let latest = sorted_residents(view, r.id)
                .iter()
                .map(|&(_, _, dep)| dep)
                .max()
                .unwrap_or(Time(0));
            (r.id, r.load.raws(), latest)
        })
        .collect();
    let mut plan = Vec::with_capacity(residents.len());
    let mut by_size = residents;
    by_size.sort_by_key(|&(id, size, _)| {
        (
            core::cmp::Reverse(size.max_raw()),
            core::cmp::Reverse(size),
            id,
        )
    });
    for (item, size, dep) in by_size {
        let want = size.raws();
        let slot = targets.iter_mut().find(|(_, used, latest)| {
            *latest >= dep && used.iter().zip(want).all(|(&u, c)| u + c <= SIZE_SCALE)
        })?;
        for (u, c) in slot.1.iter_mut().zip(want) {
            *u += c;
        }
        plan.push(PlannedMove { item, to: slot.0 });
    }
    Some(plan)
}

/// The scan-based `rod:` wrapper.
struct ReferenceRod<A>(A);

impl<A: OnlineAlgorithm> OnlineAlgorithm for ReferenceRod<A> {
    fn name(&self) -> &str {
        "reference-rod"
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        self.0.on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        self.0.on_departure(item, bin, bin_closed)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.0.on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        self.0.on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        if !matches!(epoch, RecourseEpoch::Departure) {
            return None;
        }
        let source = view
            .sim()
            .open_bins()
            .min_by_key(|r| (r.load, r.id.0))
            .map(|r| r.id)?;
        let plan = plan_evacuation(view, source)?;
        if plan.len() > moves_left as usize {
            return None;
        }
        plan.first().map(|m| Migration {
            item: m.item,
            to: m.to,
        })
    }
    fn reset(&mut self) {
        self.0.reset()
    }
}

/// The scan-based `amortized:` wrapper.
struct ReferenceAmortized<A> {
    base: A,
    fresh_epoch: bool,
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for ReferenceAmortized<A> {
    fn name(&self) -> &str {
        "reference-amortized"
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        self.fresh_epoch = true;
        self.base.on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        self.fresh_epoch = true;
        self.base.on_departure(item, bin, bin_closed)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        self.base.on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        self.base.on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        _epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        if moves_left == 0 || !self.fresh_epoch {
            return None;
        }
        self.fresh_epoch = false;
        let sim = view.sim();
        let source = sim
            .open_bins()
            .min_by_key(|r| (r.load, r.id.0))
            .map(|r| r.id)?;
        let mut residents = sorted_residents(view, source);
        residents.sort_by_key(|&(id, size, _)| (core::cmp::Reverse(size), id));
        for (item, size, dep) in residents {
            let target = sim.open_bins().find(|r| {
                r.id != source
                    && r.fits(size)
                    && sorted_residents(view, r.id)
                        .iter()
                        .map(|&(_, _, d)| d)
                        .max()
                        .is_some_and(|latest| latest >= dep)
            });
            if let Some(t) = target {
                return Some(Migration { item, to: t.id });
            }
        }
        None
    }
    fn reset(&mut self) {
        self.fresh_epoch = false;
        self.base.reset()
    }
}

/// The frozen reference for a registry wrapper name.
fn reference(wrapper: &str, base: &str) -> Box<dyn OnlineAlgorithm> {
    let base = algos::by_name(base).expect("registry base");
    match wrapper {
        "rod" => Box::new(ReferenceRod(base)),
        "amortized" => Box::new(ReferenceAmortized {
            base,
            fresh_epoch: false,
        }),
        other => panic!("no reference for {other}"),
    }
}

/// Gives every item of a scalar instance `dims` components: dimension 0
/// keeps its size, dimension `d` borrows the size of another item, so the
/// dimensions are loaded independently.
fn widen(inst: &Instance, dims: usize) -> Instance {
    if dims == 1 {
        return inst.clone();
    }
    let items = inst.items();
    let n = items.len();
    let mut b = InstanceBuilder::with_capacity(n);
    for (i, it) in items.iter().enumerate() {
        let sizes: Vec<Size> = (0..dims)
            .map(|d| items[(i * 7 + d * 13) % n].size.get(0))
            .collect();
        b.push(
            it.arrival,
            it.duration(),
            SizeVec::from_sizes(&sizes).unwrap(),
        );
    }
    b.build().unwrap()
}

/// What one run produced: the JSONL event bytes, cost and ledger.
type RunOutput = (String, u128, clairvoyant_dbp::core::RecourseReport);

fn run<A: OnlineAlgorithm>(
    inst: &Instance,
    algo: A,
    budget: RecourseBudget,
    chaos: Option<(FailurePlan, RetryPolicy)>,
) -> RunOutput {
    let (plan, retry) = chaos.unwrap_or((FailurePlan::None, RetryPolicy::Immediate));
    let mut sink = JsonlSink::new(Vec::new());
    let res =
        run_with_failures_recourse(inst, algo, plan, retry, budget, &mut sink).expect("legal run");
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    (text, res.cost.raw(), res.recourse)
}

const BUDGETS: [&str; 4] = ["epoch=1", "epoch=4", "amortized=250/2000", "unlimited"];
const WRAPPERS: [&str; 2] = ["rod", "amortized"];

fn chaos(on: bool, seed: u64) -> Option<(FailurePlan, RetryPolicy)> {
    on.then(|| {
        (
            FailurePlan::seeded(0.1, seed, Dur(64)),
            RetryPolicy::parse("exp=2").unwrap(),
        )
    })
}

/// The grid: D ∈ {1, 2, 3} × four budgets × chaos off/on × three
/// generators × both wrappers over first-fit. Every cell must match the
/// frozen reference byte for byte, and each wrapper must actually migrate.
#[test]
fn wrappers_match_the_scan_references_across_the_grid() {
    let mut moved = [0u64; 2];
    for dims in 1..=3usize {
        let instances = [
            (
                "random_general",
                widen(&random_general(&GeneralConfig::new(6, 300), 3), dims),
            ),
            (
                "vm_anti_correlated",
                vm_anti_correlated(&VmConfig::new(300, 300).dims(dims), 5),
            ),
            (
                "cloud_trace",
                widen(&cloud_trace(&CloudConfig::new(300, 2_000), 7), dims),
            ),
        ];
        for (gen, inst) in &instances {
            for spec in BUDGETS {
                let budget = RecourseBudget::parse(spec).unwrap();
                for chaos_on in [false, true] {
                    for (w, wrapper) in WRAPPERS.iter().enumerate() {
                        let name = format!("{wrapper}:first-fit");
                        let planes = run(
                            inst,
                            algos::by_name(&name).unwrap(),
                            budget,
                            chaos(chaos_on, 11),
                        );
                        let scans = run(
                            inst,
                            reference(wrapper, "first-fit"),
                            budget,
                            chaos(chaos_on, 11),
                        );
                        let cell = format!("{name} {gen} D={dims} {spec} chaos={chaos_on}");
                        assert!(planes.0 == scans.0, "{cell}: event stream diverged");
                        assert_eq!(planes.1, scans.1, "{cell}: cost diverged");
                        assert_eq!(planes.2, scans.2, "{cell}: ledger diverged");
                        moved[w] += planes.2.migrations;
                    }
                }
            }
        }
    }
    assert!(moved.iter().all(|&m| m > 0), "migrations: {moved:?}");
}

fn arb_instance() -> impl Strategy<Value = Vec<(u64, u64, u64, u64, u64)>> {
    prop::collection::vec(
        (0u64..96, 1u64..=48, 1u64..=100, 1u64..=100, 1u64..=100),
        1..=80,
    )
}

fn build(triples: &[(u64, u64, u64, u64, u64)], dims: usize) -> Instance {
    let mut b = InstanceBuilder::with_capacity(triples.len());
    for &(t, d, a, x, y) in triples {
        let sizes: Vec<Size> = [a, x, y][..dims]
            .iter()
            .map(|&n| Size::from_ratio(n, 100))
            .collect();
        b.push(Time(t), Dur(d), SizeVec::from_sizes(&sizes).unwrap());
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary small instances, every dimension count and budget, both
    /// wrappers over two bases: the planes never change a decision.
    #[test]
    fn wrappers_match_the_references_on_arbitrary_instances(
        triples in arb_instance(),
        dims in 1usize..=3,
        budget in 0usize..4,
        chaos_on in 0u8..2,
    ) {
        let inst = build(&triples, dims);
        let budget = RecourseBudget::parse(BUDGETS[budget]).unwrap();
        for base in ["first-fit", "best-fit"] {
            for wrapper in WRAPPERS {
                let name = format!("{wrapper}:{base}");
                let planes = run(&inst, algos::by_name(&name).unwrap(), budget, chaos(chaos_on == 1, 3));
                let scans = run(&inst, reference(wrapper, base), budget, chaos(chaos_on == 1, 3));
                prop_assert!(planes.0 == scans.0, "{} event stream diverged", name);
                prop_assert_eq!(planes.1, scans.1);
                prop_assert_eq!(planes.2, scans.2);
            }
        }
    }
}

/// One input line of the session case.
enum Step {
    Arrive(Item, bool),
    Date(u32, Time),
}

/// A churn stream where every fourth arrival comes undated and is dated
/// (to its recorded departure, or the current clock if that has passed)
/// once three more arrivals have gone by.
fn session_steps(inst: &Instance) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut waiting: Vec<(u32, usize, Time)> = Vec::new();
    for (i, it) in inst.items().iter().enumerate() {
        let mut k = 0;
        while k < waiting.len() {
            let (id, since, dep) = waiting[k];
            if i >= since + 3 {
                steps.push(Step::Date(id, dep.max(it.arrival)));
                waiting.remove(k);
            } else {
                k += 1;
            }
        }
        let undated = i % 4 == 1;
        if undated {
            waiting.push((i as u32, i, it.departure));
        }
        steps.push(Step::Arrive(*it, undated));
    }
    let end = inst.items().last().unwrap().arrival;
    for (id, _, dep) in waiting {
        steps.push(Step::Date(id, dep.max(end)));
    }
    steps
}

fn request(step: &Step) -> Request {
    let event = match *step {
        Step::Arrive(it, undated) => EngineEvent::Arrival {
            item: ItemId(0),
            at: it.arrival,
            size: it.size,
            departure: (!undated).then_some(it.departure),
        },
        Step::Date(id, at) => EngineEvent::Departure {
            item: ItemId(id),
            at,
            bin: BinId(0),
            size: SizeVec::ZERO,
        },
    };
    Request::Event {
        tenant: None,
        event,
    }
}

/// The session case: undated arrivals dated later, auto-compaction with a
/// small slack and a snapshot/restore halfway, with the plane-backed
/// wrapper inside the daemon, against the frozen reference driven through
/// a plain engine. No item is ever renumbered in the reference, so its
/// row ids are the session's external ids and the streams must agree
/// byte for byte.
#[test]
fn session_with_dating_compaction_and_restart_matches_the_reference() {
    let inst = widen(&random_general(&GeneralConfig::new(6, 600), 17), 2);
    let steps = session_steps(&inst);
    let budget = RecourseBudget::parse("epoch=4").unwrap();
    for wrapper in WRAPPERS {
        let cfg = ServeConfig {
            algo: format!("{wrapper}:first-fit"),
            compact_slack: 4,
            recourse: budget,
            ..ServeConfig::default()
        };
        let mut session = Session::new("t", &cfg).unwrap();
        let mut echo = String::new();
        for (k, step) in steps.iter().enumerate() {
            session.handle(&request(step));
            echo.push_str(&session.take_output());
            if k == steps.len() / 2 {
                let snap = snapshot::write_snapshot(&session);
                assert!(
                    snap.contains("\"snap_item\":"),
                    "snapshot carries live items"
                );
                session = snapshot::restore(&snap, &cfg).expect("snapshot restores");
                session.take_output();
            }
        }
        session.handle(&Request::Control {
            tenant: None,
            op: Op::Drain,
        });
        echo.push_str(&session.take_output());
        let events: String = echo
            .lines()
            .filter(|l| !l.starts_with("{\"r\":"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!echo.contains("{\"r\":\"error\""), "{wrapper}: {echo}");

        let mut sink = JsonlSink::new(Vec::new());
        let mut sim = InteractiveSim::with_sink(reference(wrapper, "first-fit"), &mut sink)
            .with_recourse(budget);
        for step in &steps {
            match *step {
                Step::Arrive(it, false) => {
                    sim.arrive_at(it.arrival, it.duration(), it.size).unwrap();
                }
                Step::Arrive(it, true) => {
                    sim.try_advance_to(it.arrival).unwrap();
                    sim.arrive_undated(it.size).unwrap();
                }
                Step::Date(id, at) => sim.try_set_departure(ItemId(id), at).unwrap(),
            }
        }
        sim.drain_remaining().unwrap();
        let (cost, ledger) = (sim.cost_so_far(), *sim.recourse());
        drop(sim);
        let reference = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(ledger.migrations > 0, "{wrapper}: the case should migrate");
        assert!(events == reference, "{wrapper}: event stream diverged");
        assert_eq!(session.effective_cost(), cost, "{wrapper}: cost diverged");
        assert_eq!(
            session.effective_recourse(),
            ledger,
            "{wrapper}: ledger diverged"
        );
    }
}
