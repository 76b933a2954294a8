//! The online-algorithm interface.
//!
//! An [`OnlineAlgorithm`] sees items one at a time, in arrival order, and
//! must immediately and irrevocably name a bin for each. Clairvoyance is
//! modelled by handing the algorithm the full [`Item`] (whose `departure` is
//! known on arrival); non-clairvoyant baselines simply never read that
//! field.
//!
//! Algorithms *propose* placements; the engine validates them (bin open,
//! capacity respected) and rejects illegal moves with a typed
//! [`crate::error::EngineError`]. This keeps the trust boundary crisp: an
//! algorithm cannot corrupt the accounting that the experiments depend on.

use crate::bin_state::{BinId, BinRecord, BinStore};
use crate::item::{Item, ItemId};
use crate::recourse::{Migration, RecourseEpoch, RecourseView};
use crate::size::SizeVec;
use crate::time::Time;

/// An algorithm's decision for an arriving item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Put the item into an already-open bin.
    Existing(BinId),
    /// Open a fresh bin for the item.
    OpenNew,
}

/// A read-only view of the simulation the algorithm may consult when
/// placing an item.
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    now: Time,
    bins: &'a BinStore,
}

impl<'a> SimView<'a> {
    pub(crate) fn new(now: Time, bins: &'a BinStore) -> SimView<'a> {
        SimView { now, bins }
    }

    /// The underlying store (for the recourse view's plane queries).
    #[inline]
    pub(crate) fn store(&self) -> &'a BinStore {
        self.bins
    }

    /// The current simulation time (the arriving item's arrival time).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Currently open bins in opening order (the First-Fit scan order).
    /// Counted as one linear scan for run metrics: any algorithm that walks
    /// this iterator is paying O(open bins) for the decision.
    pub fn open_bins(&self) -> impl Iterator<Item = &'a BinRecord> + '_ {
        let bins = self.bins;
        bins.note_linear_scan();
        bins.open_ids()
            .map(move |b| bins.record(b).expect("open id always has a record"))
    }

    /// Number of currently open bins.
    #[inline]
    pub fn open_count(&self) -> usize {
        self.bins.open_count()
    }

    /// The record of a specific bin, if it was ever opened.
    #[inline]
    pub fn bin(&self, id: BinId) -> Option<&'a BinRecord> {
        self.bins.record(id)
    }

    /// Whether `id` is open and has room for `s` (in every dimension).
    #[inline]
    pub fn fits(&self, id: BinId, s: impl Into<SizeVec>) -> bool {
        self.bins
            .record(id)
            .is_some_and(|r| r.is_open() && r.fits(s))
    }

    /// First-Fit over *all* open bins: the earliest-opened bin with room.
    /// Answered by the capacity tournament tree in O(log B); selects the
    /// identical bin as the linear scan ([`SimView::first_fit_linear`]).
    #[inline]
    pub fn first_fit(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        self.bins.first_fit(s)
    }

    /// The seed's naive O(B) First-Fit scan, retained as a differential
    /// oracle for [`SimView::first_fit`] (and for before/after benchmarks).
    #[inline]
    pub fn first_fit_linear(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        self.bins.first_fit_linear(s)
    }

    /// First-Fit restricted to an explicit candidate list: the first bin
    /// *in slice order* that is open and fits `s`.
    ///
    /// This is the drop-in upgrade for algorithms that keep small candidate
    /// sets as `Vec<BinId>`; each membership test is O(1), so the query is
    /// O(candidates) instead of O(candidates · open-bins). Classes with
    /// *large* candidate sets should mirror them in a
    /// [`crate::fit_tree::SubsetFitTree`] instead, which answers the same
    /// query in O(log candidates).
    pub fn first_fit_among(&self, candidates: &[BinId], s: impl Into<SizeVec>) -> Option<BinId> {
        let s = s.into();
        candidates.iter().copied().find(|&b| self.fits(b, s))
    }

    /// The most recently opened bin still open (Next-Fit's candidate), in
    /// O(1).
    #[inline]
    pub fn newest_open(&self) -> Option<BinId> {
        self.bins.newest_open()
    }

    /// The id the engine will assign to the next freshly opened bin.
    ///
    /// Lets stateful algorithms (HA's CD bins, CDFF's rows) learn the id of
    /// a bin they are about to open by returning [`Placement::OpenNew`]:
    /// bin ids are allocated sequentially over the current record table
    /// (dense again after a bin-store compaction).
    #[inline]
    pub fn next_bin_id(&self) -> BinId {
        self.bins.next_id()
    }
}

/// An online MinUsageTime DBP algorithm.
///
/// Implementations may keep arbitrary internal state; the engine keeps them
/// honest by validating every [`Placement`]. `on_departure` lets algorithms
/// that tag bins (HA's CD bins, CDFF's rows) clean up their indexes.
pub trait OnlineAlgorithm {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Decide where the arriving `item` goes. Called once per item, in
    /// arrival order, after all departures at the same moment have been
    /// processed (`t⁻` before `t⁺`).
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement;

    /// Notification that `item` departed from `bin`; `bin_closed` is true
    /// when the bin emptied (and is then gone forever).
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        let _ = (item, bin, bin_closed);
    }

    /// Notification that the engine compacted its item table (see
    /// [`crate::engine::InteractiveSim::compact`]). `retained[new]` is the
    /// *old* id of the row now living at index `new`; `old_len` was the
    /// table length before compaction, so ids `old_len..` are unassigned in
    /// both numberings. Algorithms keeping [`ItemId`]-keyed state must
    /// rewrite it here; id-oblivious algorithms (the default) ignore it.
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        let _ = (retained, old_len);
    }

    /// Notification that the engine compacted its *bin store* (see
    /// [`crate::engine::InteractiveSim::compact_bins`]): closed bins'
    /// records were reclaimed and the surviving open bins renumbered
    /// densely, preserving opening order. `old_to_new[old.index()]` is the
    /// bin's new id, or `BinId(u32::MAX)` for a dropped closed bin;
    /// `new_len` is the new record-table length. All subsequent callbacks
    /// use the new numbering, so algorithms keeping [`BinId`]-keyed state
    /// must rewrite it here. Every stateful algorithm in this workspace
    /// prunes closed bins in `on_departure`, so only open (surviving) bins
    /// need translation.
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        let _ = (old_to_new, new_len);
    }

    /// Offer to move a resident item at a recourse epoch (see
    /// [`crate::recourse`]). Called only when the run carries a non-`None`
    /// [`crate::recourse::RecourseBudget`], and repeatedly within one epoch
    /// while allowance remains: return `Some` to execute one migration (the
    /// engine validates and applies it, then asks again with a decremented
    /// `moves_left`), or `None` to end the epoch early. The default never
    /// migrates, so every existing algorithm stays recourse-free.
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        let _ = (view, epoch, moves_left);
        None
    }

    /// Reset all internal state so the value can run another instance.
    fn reset(&mut self);
}

impl<T: OnlineAlgorithm + ?Sized> OnlineAlgorithm for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        (**self).on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        (**self).on_departure(item, bin, bin_closed)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        (**self).on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        (**self).on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        (**self).propose_migration(view, epoch, moves_left)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

impl<T: OnlineAlgorithm + ?Sized> OnlineAlgorithm for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_arrival(&mut self, view: &SimView<'_>, item: &Item) -> Placement {
        (**self).on_arrival(view, item)
    }
    fn on_departure(&mut self, item: &Item, bin: BinId, bin_closed: bool) {
        (**self).on_departure(item, bin, bin_closed)
    }
    fn on_compact(&mut self, retained: &[ItemId], old_len: usize) {
        (**self).on_compact(retained, old_len)
    }
    fn on_bin_compact(&mut self, old_to_new: &[BinId], new_len: usize) {
        (**self).on_bin_compact(old_to_new, new_len)
    }
    fn propose_migration(
        &mut self,
        view: &RecourseView<'_>,
        epoch: RecourseEpoch,
        moves_left: u32,
    ) -> Option<Migration> {
        (**self).propose_migration(view, epoch, moves_left)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;
    use crate::size::Size;

    #[test]
    fn sim_view_first_fit_and_fits() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        store.add(b0, ItemId(0), Size::from_ratio(3, 4));
        let view = SimView::new(Time(1), &store);
        assert_eq!(view.open_count(), 1);
        assert!(view.fits(b0, Size::from_ratio(1, 4)));
        assert!(!view.fits(b0, Size::from_ratio(1, 2)));
        assert_eq!(view.first_fit(Size::from_ratio(1, 4)), Some(b0));
        assert_eq!(view.first_fit(Size::from_ratio(1, 2)), None);
        assert_eq!(view.bin(BinId(7)), None);
        assert_eq!(view.now(), Time(1));
    }

    #[test]
    fn open_bins_iterates_in_opening_order() {
        let mut store = BinStore::new();
        let _b0 = store.open(Time(0));
        let _b1 = store.open(Time(2));
        let view = SimView::new(Time(3), &store);
        let opened: Vec<Time> = view.open_bins().map(|r| r.opened_at).collect();
        assert_eq!(opened, [Time(0), Time(2)]);
    }
}
