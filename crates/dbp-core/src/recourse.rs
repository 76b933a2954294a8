//! Recourse budgets: bounded voluntary item migration (ROADMAP item 3).
//!
//! The classic MinUsageTime model is irrevocable: once placed, an item
//! stays in its bin until it departs (or a crash displaces it — see
//! [`crate::failure`]). The *limited-repacking* literature (Gupta,
//! Krishnaswamy, Kumar & Sandeep; Feldkord et al.) sits between that and
//! offline full repacking: at each arrival/departure epoch the algorithm
//! may additionally *move* a bounded number of resident items between open
//! bins. This module supplies the vocabulary the engine speaks:
//!
//! * [`RecourseBudget`] — how many moves an epoch may spend: a hard
//!   per-epoch cap, an amortized earn-per-event credit with a burst cap,
//!   unlimited, or (the default) none at all. With [`RecourseBudget::None`]
//!   the engine never consults the algorithm and its output is
//!   bit-identical to a recourse-free build — the same safety-net shape as
//!   the empty [`crate::failure::FailurePlan`].
//! * [`Migration`] — one requested move (resident item → open bin).
//! * [`RecourseEpoch`] — whether an arrival or a departure opened the
//!   epoch. Crashes are involuntary and never open one.
//! * [`RecourseView`] — the read-only view handed to
//!   [`crate::algorithm::OnlineAlgorithm::propose_migration`]: the plain
//!   [`SimView`] plus per-item sizes and (clairvoyant) departures, so
//!   repacking algorithms need not mirror the item table themselves, and
//!   the two questions repacking asks — the lightest open bin, and the
//!   first bin an item may move into without outliving it — answered from
//!   the bin store's recourse planes in O(1) and O(log B) typical.
//! * [`RecourseReport`] — the per-run ledger landing on
//!   [`crate::engine::PackingResult::recourse`].
//!
//! Every executed migration is emitted as an
//! [`crate::trace::EngineEvent::ItemMigrated`] and cross-checked by the
//! [`crate::audit::InvariantAuditor`] (load conservation across the move,
//! budget replay, closure billing).

use crate::algorithm::SimView;
use crate::bin_state::BinId;
use crate::item::ItemId;
use crate::size::SizeVec;
use crate::time::Time;

/// Credit units per whole move in the amortized budget: credits are
/// tracked in milli-moves so sub-unity earn rates (e.g. one move per four
/// events = 250) stay integral and replayable.
pub const MOVE_MILLI: u64 = 1000;

/// Burst cap used when `amortized=<earn>` is parsed without an explicit
/// cap: eight epochs of earning, floored at one whole move.
const DEFAULT_BURST_EPOCHS: u32 = 8;

/// How many voluntary item moves a run may spend (see the module docs).
///
/// Degenerate forms collapse to [`RecourseBudget::None`] in the
/// constructors (`epoch=0`, a zero earn rate, a burst below one move), so
/// "no budget" is structurally `None` and the engine's bit-identity
/// short-circuit applies by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecourseBudget {
    /// No recourse: the migration hook is never consulted (the default).
    #[default]
    None,
    /// Up to this many moves at every arrival/departure epoch.
    PerEpoch(u32),
    /// Amortized pacing: every epoch earns `earn_milli` milli-moves
    /// (capped at `burst_milli`), and each executed move costs
    /// [`MOVE_MILLI`]. `earn_milli = 250` is "one move per four events" —
    /// the Gupta-et-al-style amortized-Θ(1) regime.
    Amortized {
        /// Milli-moves earned at each epoch.
        earn_milli: u32,
        /// Credit cap in milli-moves (the burst allowance).
        burst_milli: u32,
    },
    /// No cap: every proposal the algorithm makes is executed.
    Unlimited,
}

impl RecourseBudget {
    /// A per-epoch cap; `0` collapses to [`RecourseBudget::None`].
    pub fn per_epoch(moves: u32) -> RecourseBudget {
        if moves == 0 {
            RecourseBudget::None
        } else {
            RecourseBudget::PerEpoch(moves)
        }
    }

    /// An amortized budget; a zero earn rate or a burst below one whole
    /// move collapses to [`RecourseBudget::None`].
    pub fn amortized(earn_milli: u32, burst_milli: u32) -> RecourseBudget {
        if earn_milli == 0 || (burst_milli as u64) < MOVE_MILLI {
            RecourseBudget::None
        } else {
            RecourseBudget::Amortized {
                earn_milli,
                burst_milli,
            }
        }
    }

    /// Whether this is the inert [`RecourseBudget::None`] budget.
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, RecourseBudget::None)
    }

    /// Parses the CLI spelling: `none` (or `off`), `epoch=<moves>`,
    /// `amortized=<earn_milli>[/<burst_milli>]`, `unlimited`. Inverse of
    /// [`RecourseBudget`]'s `Display` (degenerate forms collapse to
    /// `none`, exactly as the constructors do).
    ///
    /// Every failure is a typed [`RecourseParseError`]; in particular a
    /// numeric field that would overflow the `u32` milli-move ledger —
    /// including the derived default burst of a bare `amortized=<earn>`
    /// spec — is [`RecourseParseError::Overflow`], never a silent
    /// saturation.
    pub fn parse(s: &str) -> Result<RecourseBudget, RecourseParseError> {
        fn field(name: &'static str, v: &str) -> Result<u32, RecourseParseError> {
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RecourseParseError::BadNumber {
                    field: name,
                    value: v.to_string(),
                });
            }
            v.parse::<u128>()
                .ok()
                .and_then(|wide| u32::try_from(wide).ok())
                .ok_or(RecourseParseError::Overflow {
                    field: name,
                    value: v.to_string(),
                })
        }
        match s {
            "none" | "off" => Ok(RecourseBudget::None),
            "unlimited" => Ok(RecourseBudget::Unlimited),
            _ => {
                if let Some(v) = s.strip_prefix("epoch=") {
                    return field("epoch", v).map(RecourseBudget::per_epoch);
                }
                let Some(v) = s.strip_prefix("amortized=") else {
                    return Err(RecourseParseError::UnknownForm(s.to_string()));
                };
                let (earn, burst): (u32, u32) = match v.split_once('/') {
                    Some((e, b)) => (field("earn", e)?, field("burst", b)?),
                    None => {
                        let e = field("earn", v)?;
                        let implied = u64::from(e)
                            .checked_mul(u64::from(DEFAULT_BURST_EPOCHS))
                            .expect("u64 product of two u32 factors")
                            .max(MOVE_MILLI);
                        let burst =
                            u32::try_from(implied).map_err(|_| RecourseParseError::Overflow {
                                field: "burst",
                                value: implied.to_string(),
                            })?;
                        (e, burst)
                    }
                };
                Ok(RecourseBudget::amortized(earn, burst))
            }
        }
    }
}

/// Why a [`RecourseBudget`] spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecourseParseError {
    /// The spec matched none of the known spellings.
    UnknownForm(String),
    /// A numeric field was empty or not a base-10 integer.
    BadNumber {
        /// Which field was malformed (`epoch`, `earn`, or `burst`).
        field: &'static str,
        /// The offending text.
        value: String,
    },
    /// A numeric field — or the default burst derived from a bare
    /// `amortized=<earn>` spec — exceeds the `u32` milli-move ledger.
    Overflow {
        /// Which field overflowed (`epoch`, `earn`, or `burst`).
        field: &'static str,
        /// The offending value.
        value: String,
    },
}

impl core::fmt::Display for RecourseParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecourseParseError::UnknownForm(s) => write!(
                f,
                "unrecognised budget spec {s:?} (expected none, off, epoch=<moves>, \
                 amortized=<earn>[/<burst>], or unlimited)"
            ),
            RecourseParseError::BadNumber { field, value } => {
                write!(f, "budget field `{field}` is not a number: {value:?}")
            }
            RecourseParseError::Overflow { field, value } => write!(
                f,
                "budget field `{field}` overflows the milli-move ledger (max {}): {value}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for RecourseParseError {}

impl core::fmt::Display for RecourseBudget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecourseBudget::None => write!(f, "none"),
            RecourseBudget::PerEpoch(moves) => write!(f, "epoch={moves}"),
            RecourseBudget::Amortized {
                earn_milli,
                burst_milli,
            } => write!(f, "amortized={earn_milli}/{burst_milli}"),
            RecourseBudget::Unlimited => write!(f, "unlimited"),
        }
    }
}

/// One requested move: take the (currently resident) `item` out of its
/// bin and re-book it into the open bin `to`. The engine validates the
/// request (residency, target open, capacity, `to` differs from the
/// source) and rejects illegal ones with a typed
/// [`crate::error::EngineError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The resident item to move (it keeps its id across the move).
    pub item: ItemId,
    /// The open bin to move it into.
    pub to: BinId,
}

/// Which kind of event opened a migration epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecourseEpoch {
    /// An item was just placed (fresh arrival or re-admission).
    Arrival,
    /// An item just departed (and its bin possibly closed).
    Departure,
}

/// Per-run recourse ledger (all-zero unless a budget was active).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecourseReport {
    /// Voluntary migrations executed.
    pub migrations: u64,
    /// Bins that closed because a migration emptied them.
    pub migration_closures: u64,
    /// Migration epochs opened (arrival/departure events offered to the
    /// algorithm while a non-`None` budget was active).
    pub epochs: u64,
}

impl RecourseReport {
    /// Whether any recourse machinery engaged during the run.
    pub fn any(&self) -> bool {
        self.migrations != 0 || self.epochs != 0
    }
}

/// The read-only view handed to
/// [`crate::algorithm::OnlineAlgorithm::propose_migration`]: everything a
/// [`SimView`] offers, plus the engine's per-item size and departure
/// columns so repacking decisions (which bin can be emptied, where its
/// residents fit, who outlives whom) need no algorithm-side mirror.
#[derive(Debug, Clone, Copy)]
pub struct RecourseView<'a> {
    sim: SimView<'a>,
    sizes: &'a [SizeVec],
    departures: &'a [Time],
}

impl<'a> RecourseView<'a> {
    pub(crate) fn new(
        sim: SimView<'a>,
        sizes: &'a [SizeVec],
        departures: &'a [Time],
    ) -> RecourseView<'a> {
        RecourseView {
            sim,
            sizes,
            departures,
        }
    }

    /// The plain simulation view (open bins, First-Fit queries, the clock).
    #[inline]
    pub fn sim(&self) -> &SimView<'a> {
        &self.sim
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The size of any item the engine has ever admitted.
    #[inline]
    pub fn item_size(&self, item: ItemId) -> Option<SizeVec> {
        self.sizes.get(item.index()).copied()
    }

    /// The engine's recorded departure for an item: the clairvoyant
    /// departure for live items, `Time(u64::MAX)` for undated ones, and
    /// the truncated displacement time for rows a crash evicted.
    #[inline]
    pub fn item_departure(&self, item: ItemId) -> Option<Time> {
        self.departures.get(item.index()).copied()
    }

    /// The resident items of `bin` (empty for a closed or unknown bin), in
    /// no meaningful order: removals swap-shuffle the list, so callers
    /// that need a deterministic order sort by a key ending in the id.
    pub fn residents(&self, bin: BinId) -> &'a [ItemId] {
        match self.sim.bin(bin) {
            Some(rec) if rec.is_open() => &rec.items,
            _ => &[],
        }
    }

    /// The open bin minimizing `(load, id)`, loads compared by
    /// [`crate::size::LoadVec`]'s lexicographic order — the bin a
    /// consolidator drains first. O(1).
    #[inline]
    pub fn lightest_open(&self) -> Option<BinId> {
        self.sim.store().lightest_open()
    }

    /// The first open bin at or after `from` in opening order, other than
    /// `source`, that has room for `size` in every dimension and closes no
    /// earlier than `departure` — the clairvoyant safety rule: moving an
    /// item there never extends the target's lifetime. Scanning on from
    /// just past a returned bin enumerates every safe target in order.
    #[inline]
    pub fn first_safe_target(
        &self,
        size: SizeVec,
        departure: Time,
        source: BinId,
        from: BinId,
    ) -> Option<BinId> {
        self.sim
            .store()
            .first_safe_target(size, departure, source, from)
    }
}

/// The recourse layer of one simulation: the budget, the amortized credit
/// balance, the open epoch's remaining allowance, and the ledger. With
/// [`RecourseBudget::None`] the layer is inert and the engine's output is
/// bit-identical to a recourse-free build. The
/// [`crate::audit::InvariantAuditor`] embeds a second copy to replay the
/// budget from the event stream alone.
#[derive(Debug, Clone)]
pub(crate) struct RecourseCtl {
    pub(crate) budget: RecourseBudget,
    credit_milli: u64,
    epoch_left: u32,
    pub(crate) report: RecourseReport,
}

impl RecourseCtl {
    pub(crate) fn new(budget: RecourseBudget) -> RecourseCtl {
        RecourseCtl {
            budget,
            credit_milli: 0,
            epoch_left: 0,
            report: RecourseReport::default(),
        }
    }

    /// Swaps the budget mid-run (the serve daemon's snapshot restore keeps
    /// migrations gated during its muted replay, then re-arms). Amortized
    /// credit restarts from zero — conservative: a restored session can
    /// never exceed what an uninterrupted one could have spent.
    pub(crate) fn set_budget(&mut self, budget: RecourseBudget) {
        self.budget = budget;
        self.credit_milli = 0;
        self.epoch_left = 0;
    }

    /// Opens a new epoch: accrues amortized credit, resets the allowance,
    /// and returns how many whole moves may be spent right now.
    pub(crate) fn begin_epoch(&mut self) -> u32 {
        self.report.epochs += 1;
        self.epoch_left = match self.budget {
            RecourseBudget::None => 0,
            RecourseBudget::PerEpoch(moves) => moves,
            RecourseBudget::Amortized {
                earn_milli,
                burst_milli,
            } => {
                self.credit_milli = (self.credit_milli + earn_milli as u64).min(burst_milli as u64);
                u32::try_from(self.credit_milli / MOVE_MILLI).unwrap_or(u32::MAX)
            }
            RecourseBudget::Unlimited => u32::MAX,
        };
        self.epoch_left
    }

    /// Whole moves still spendable in the open epoch.
    #[inline]
    pub(crate) fn allowance(&self) -> u32 {
        self.epoch_left
    }

    /// Bills one executed move against the open epoch.
    pub(crate) fn spend(&mut self) {
        debug_assert!(self.epoch_left > 0, "spend() without allowance");
        self.epoch_left -= 1;
        if matches!(self.budget, RecourseBudget::Amortized { .. }) {
            self.credit_milli -= MOVE_MILLI;
        }
        self.report.migrations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for spec in [
            "none",
            "epoch=1",
            "epoch=16",
            "amortized=250/2000",
            "unlimited",
        ] {
            let b = RecourseBudget::parse(spec).unwrap();
            assert_eq!(b.to_string(), spec);
            assert_eq!(RecourseBudget::parse(&b.to_string()), Ok(b));
        }
        assert_eq!(RecourseBudget::parse("off"), Ok(RecourseBudget::None));
        // Bare amortized spellings get the default burst and still
        // round-trip through Display.
        let b = RecourseBudget::parse("amortized=500").unwrap();
        assert_eq!(
            b,
            RecourseBudget::Amortized {
                earn_milli: 500,
                burst_milli: 4000
            }
        );
        assert_eq!(RecourseBudget::parse(&b.to_string()), Ok(b));
    }

    #[test]
    fn degenerate_budgets_collapse_to_none() {
        assert_eq!(RecourseBudget::parse("epoch=0"), Ok(RecourseBudget::None));
        assert_eq!(
            RecourseBudget::parse("amortized=0"),
            Ok(RecourseBudget::None)
        );
        assert_eq!(
            RecourseBudget::parse("amortized=500/999"),
            Ok(RecourseBudget::None)
        );
        assert!(matches!(
            RecourseBudget::parse("epoch="),
            Err(RecourseParseError::BadNumber { field: "epoch", .. })
        ));
        assert!(matches!(
            RecourseBudget::parse("amortized=x/2"),
            Err(RecourseParseError::BadNumber { field: "earn", .. })
        ));
        assert!(matches!(
            RecourseBudget::parse("sometimes"),
            Err(RecourseParseError::UnknownForm(_))
        ));
    }

    #[test]
    fn overflowing_specs_are_typed_errors_not_saturations() {
        // Direct field overflow: one past u32::MAX, and absurdly beyond.
        assert!(matches!(
            RecourseBudget::parse("epoch=4294967296"),
            Err(RecourseParseError::Overflow { field: "epoch", .. })
        ));
        assert!(matches!(
            RecourseBudget::parse("amortized=99999999999999999999999999999999999999999"),
            Err(RecourseParseError::Overflow { field: "earn", .. })
        ));
        assert!(matches!(
            RecourseBudget::parse("amortized=250/4294967296"),
            Err(RecourseParseError::Overflow { field: "burst", .. })
        ));
        // The derived default burst (earn × 8) overflowing the ledger is
        // the historical silent-saturation bug: it must now be typed.
        assert!(matches!(
            RecourseBudget::parse("amortized=4000000000"),
            Err(RecourseParseError::Overflow { field: "burst", .. })
        ));
        // The largest bare earn whose derived burst still fits is accepted.
        let max_ok = u32::MAX / 8;
        let b = RecourseBudget::parse(&format!("amortized={max_ok}")).unwrap();
        assert_eq!(
            b,
            RecourseBudget::Amortized {
                earn_milli: max_ok,
                burst_milli: max_ok * 8,
            }
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Satellite contract: `parse ∘ Display` is the identity on every
        /// budget any spec can produce (degenerate forms collapse before
        /// Display ever sees them, so the composite is a true round-trip).
        #[test]
        fn display_round_trips_every_accepted_budget(
            epoch in 0u32..=u32::MAX,
            earn in 0u32..=u32::MAX,
            burst in 0u32..=u32::MAX,
        ) {
            for b in [
                RecourseBudget::None,
                RecourseBudget::Unlimited,
                RecourseBudget::per_epoch(epoch),
                RecourseBudget::amortized(earn, burst),
            ] {
                proptest::prop_assert_eq!(RecourseBudget::parse(&b.to_string()), Ok(b));
            }
        }

        /// Arbitrary input never panics; accepted specs re-parse to the
        /// same budget through Display.
        #[test]
        fn parse_total_on_arbitrary_input(
            bytes in proptest::collection::vec(0x20u8..0x7f, 0..40),
        ) {
            let s = String::from_utf8(bytes).expect("printable ascii");
            if let Ok(b) = RecourseBudget::parse(&s) {
                proptest::prop_assert_eq!(RecourseBudget::parse(&b.to_string()), Ok(b));
            }
        }
    }

    #[test]
    fn per_epoch_allowance_resets_each_epoch() {
        let mut ctl = RecourseCtl::new(RecourseBudget::per_epoch(2));
        assert_eq!(ctl.begin_epoch(), 2);
        ctl.spend();
        ctl.spend();
        assert_eq!(ctl.begin_epoch(), 2, "allowance is per-epoch");
        assert_eq!(ctl.report.migrations, 2);
        assert_eq!(ctl.report.epochs, 2);
    }

    #[test]
    fn amortized_credit_accrues_and_caps() {
        // Earn 1/4 move per epoch, burst two whole moves.
        let mut ctl = RecourseCtl::new(RecourseBudget::amortized(250, 2000));
        assert_eq!(ctl.begin_epoch(), 0);
        assert_eq!(ctl.begin_epoch(), 0);
        assert_eq!(ctl.begin_epoch(), 0);
        assert_eq!(ctl.begin_epoch(), 1, "four epochs buy one move");
        ctl.spend();
        assert_eq!(ctl.begin_epoch(), 0, "credit was spent");
        for _ in 0..100 {
            ctl.begin_epoch();
        }
        assert_eq!(ctl.begin_epoch(), 2, "burst caps the hoard at two moves");
    }
}
