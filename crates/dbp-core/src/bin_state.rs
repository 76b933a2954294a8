//! Bin bookkeeping shared by the engine and (read-only) by algorithms.
//!
//! This is the simulator's hot path: every arrival queries First-Fit over
//! the open bins and every departure updates one bin. The store therefore
//! keeps three indexes alongside the flat record table:
//!
//! * a capacity tournament tree ([`crate::fit_tree::FitTree`], slot =
//!   [`BinId`]) answering First-Fit in O(log B) instead of O(B);
//! * a per-bin position index into the opening-order open list, so closing
//!   a bin is O(1) (tombstone + amortized compaction) instead of an O(B)
//!   order-preserving `Vec::remove`;
//! * a per-item slot index into its bin's resident list, so a departure's
//!   item removal is O(1) instead of an O(items) scan.
//!
//! All three are pure indexes: the observable behaviour (which bin
//! First-Fit picks, the iteration order of open bins) is bit-for-bit the
//! linear-scan semantics, and [`BinStore::first_fit_linear`] retains the
//! naive scan as a differential-testing oracle.
//!
//! Runs with a recourse budget additionally arm the tree's two recourse
//! planes (see [`crate::fit_tree`]): each open bin's *closing time* — the
//! latest departure among its current residents, known on arrival in the
//! clairvoyant model — and the lightest-bin tournament over loads. The
//! store keeps both current through add, remove, close and
//! `compact_bins`; the engine feeds it departures, which the
//! store itself does not see.

use core::cell::Cell;
use core::fmt;

use crate::fit_tree::FitTree;
use crate::item::ItemId;
use crate::size::{LoadVec, SizeVec, SIZE_SCALE};
use crate::time::Time;

/// Identifier of a bin, assigned in opening order (bin 0 opened first).
/// Closed bins are never reused (the problem's w.l.o.g. assumption), so a
/// `BinId` names one bin for the whole run — until a
/// [`BinStore::compact_bins`] reclaims closed records and renumbers the
/// survivors densely (still in opening order); holders are notified
/// through the engine's `on_bin_compact` hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BinId(pub u32);

impl BinId {
    /// Index into per-bin arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BinId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Tombstone marking a closed bin's slot in the open list until the next
/// compaction. `u32::MAX` can never collide with a real id: `BinStore::open`
/// rejects that many bins first.
const TOMBSTONE: BinId = BinId(u32::MAX);

/// Sentinel for "no position" in the `u32` position indexes.
const NO_POS: u32 = u32::MAX;

/// The engine-side record of one bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinRecord {
    /// This bin's id.
    pub id: BinId,
    /// When the bin was opened (its first item's arrival).
    pub opened_at: Time,
    /// When the bin closed (its last item's departure), if it has.
    pub closed_at: Option<Time>,
    /// Current total load of resident items, one component per dimension
    /// (scalar runs only ever touch dimension 0).
    pub load: LoadVec,
    /// Number of currently resident items.
    pub resident: u32,
    /// Ids of currently resident items (kept for diagnostics & figures).
    /// Order is not meaningful (removals swap).
    pub items: Vec<ItemId>,
}

impl BinRecord {
    /// Whether the bin is still open.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.closed_at.is_none()
    }

    /// Whether `s` fits in the remaining capacity of every dimension.
    #[inline]
    pub fn fits(&self, s: impl Into<SizeVec>) -> bool {
        self.load.fits(s.into())
    }
}

/// The set of all bins ever opened during a run, indexed by [`BinId`].
///
/// Open bins are additionally tracked in opening order, which is exactly
/// the order First-Fit scans, plus a capacity tournament tree that answers
/// First-Fit queries in O(log B) (see the module docs for the invariants).
#[derive(Debug, Default, Clone)]
pub struct BinStore {
    bins: Vec<BinRecord>,
    /// Open bins in opening order (ascending `BinId`), with [`TOMBSTONE`]
    /// holes for recently closed bins. Trailing tombstones are trimmed
    /// eagerly (so `open.last()` is always live) and interior ones are
    /// compacted away once they outnumber live entries.
    open: Vec<BinId>,
    /// `open_pos[bin] == i` ⇔ `open[i] == bin`; [`NO_POS`] once closed.
    open_pos: Vec<u32>,
    /// Number of tombstones currently in `open`.
    dead: usize,
    /// Capacity tournament tree; slot = `BinId` index, closed bins keyed 0.
    tree: FitTree,
    /// `item_pos[item] == i` ⇔ the item sits at `items[i]` of its bin.
    item_pos: Vec<u32>,
    /// Tournament-tree First-Fit queries answered (observability counter;
    /// `Cell` because queries go through `&self` views).
    tree_queries: Cell<u64>,
    /// Linear enumerations of the open list (naive First-Fit scans and
    /// algorithm-visible `open_bins` walks).
    linear_scans: Cell<u64>,
    /// Open-list tombstone compactions performed.
    compactions: u64,
    /// Recycled resident-list buffers from closed bins. A close donates its
    /// (empty, capacity-bearing) `items` vector here and the next open
    /// takes one back, so steady-state bin churn stops allocating once
    /// capacities have warmed up.
    spare_lists: Vec<Vec<ItemId>>,
    /// Closed-bin records dropped by [`BinStore::compact_bins`]; keeps
    /// [`BinStore::total_opened`] counting the whole run after records are
    /// reclaimed.
    retired: usize,
}

/// Checked `usize → u32` for the store's position indexes, matching the
/// engine's `row_id` idiom: an index past `u32::MAX` must fail loudly
/// here rather than silently truncate.
#[inline]
fn pos_id(i: usize) -> u32 {
    u32::try_from(i).expect("bin store index exceeds u32::MAX")
}

/// The latest `departures[item]` among `rec`'s residents, in raw ticks
/// (0 for an empty bin) — its closing time.
fn latest_departure(rec: &BinRecord, departures: &[Time]) -> u64 {
    rec.items
        .iter()
        .map(|id| departures[id.index()].0)
        .max()
        .unwrap_or(0)
}

impl BinStore {
    /// An empty store.
    pub fn new() -> BinStore {
        BinStore::default()
    }

    /// An empty store pre-sized for `bins` bins and `items` items: every
    /// index (records, open list, position maps, tournament tree) reserves
    /// up front, so a run that stays within the estimate never reallocates
    /// or rebuilds the tree.
    pub fn with_capacity(bins: usize, items: usize) -> BinStore {
        BinStore {
            bins: Vec::with_capacity(bins),
            open: Vec::with_capacity(bins),
            open_pos: Vec::with_capacity(bins),
            dead: 0,
            tree: FitTree::with_capacity(bins),
            item_pos: Vec::with_capacity(items),
            tree_queries: Cell::new(0),
            linear_scans: Cell::new(0),
            compactions: 0,
            spare_lists: Vec::new(),
            retired: 0,
        }
    }

    /// Opens a new bin at time `t` and returns its id.
    pub fn open(&mut self, t: Time) -> BinId {
        let raw = u32::try_from(self.bins.len()).expect("too many bins");
        assert!(raw != TOMBSTONE.0, "too many bins");
        let id = BinId(raw);
        self.bins.push(BinRecord {
            id,
            opened_at: t,
            closed_at: None,
            load: LoadVec::ZERO,
            resident: 0,
            items: self.spare_lists.pop().unwrap_or_default(),
        });
        self.open_pos.push(pos_id(self.open.len()));
        self.open.push(id);
        let slot = self.tree.push(SIZE_SCALE);
        debug_assert_eq!(slot, id.index());
        id
    }

    /// Arms the recourse planes: the lightest-bin tournament and every open
    /// bin's closing time, the latest `departures[item]` over its
    /// residents. A no-op when already armed.
    pub(crate) fn arm_recourse(&mut self, departures: &[Time]) {
        let bins = &self.bins;
        self.tree
            .arm_recourse(|slot| latest_departure(&bins[slot], departures));
    }

    /// Drops the recourse planes.
    pub(crate) fn disarm_recourse(&mut self) {
        self.tree.disarm_recourse();
    }

    /// Whether the recourse planes are armed (the engine arms them exactly
    /// while a recourse budget other than `none` is set).
    #[inline]
    pub fn recourse_armed(&self) -> bool {
        self.tree.recourse_armed()
    }

    /// Records that an item departing at `departure` joined `bin`: the
    /// bin's closing time becomes at least `departure`. A no-op unless
    /// the recourse planes are armed.
    #[inline]
    pub(crate) fn raise_closing(&mut self, bin: BinId, departure: Time) {
        if self.tree.recourse_armed() {
            let slot = bin.index();
            let current = self.tree.closing(slot).unwrap_or(0);
            if departure.0 > current {
                self.tree.set_closing(slot, departure.0);
            }
        }
    }

    /// Recomputes an open bin's closing time from its residents'
    /// `departures` — after the latest-leaving resident moved out, or an
    /// undated resident got its date. A no-op unless armed, and for closed
    /// bins.
    pub(crate) fn refresh_closing(&mut self, bin: BinId, departures: &[Time]) {
        if !self.tree.recourse_armed() {
            return;
        }
        let Some(rec) = self.bins.get(bin.index()).filter(|r| r.is_open()) else {
            return;
        };
        self.tree
            .set_closing(bin.index(), latest_departure(rec, departures));
    }

    /// An open bin's closing time — the latest departure among its current
    /// residents — or `None` for a closed bin or while the recourse planes
    /// are not armed.
    #[inline]
    pub fn closing_time(&self, bin: BinId) -> Option<Time> {
        if bin.index() >= self.bins.len() {
            return None;
        }
        self.tree.closing(bin.index()).map(Time)
    }

    /// The open bin minimizing `(load, id)` under [`LoadVec`]'s
    /// lexicographic order, read from the armed tournament in O(1).
    pub(crate) fn lightest_open(&self) -> Option<BinId> {
        self.tree_queries.set(self.tree_queries.get() + 1);
        let slot = self.tree.lightest()?;
        debug_assert!(self.bins[slot].is_open());
        Some(self.bins[slot].id)
    }

    /// The first open bin at or after `from` in opening order, other than
    /// `skip`, with room for `size` in every dimension and a closing time
    /// no earlier than `departure` — the clairvoyant-safe First-Fit target.
    /// Requires armed planes.
    pub(crate) fn first_safe_target(
        &self,
        size: SizeVec,
        departure: Time,
        skip: BinId,
        from: BinId,
    ) -> Option<BinId> {
        self.tree_queries.set(self.tree_queries.get() + 1);
        let slot =
            self.tree
                .first_fit_closing_from(from.index(), size, departure.0, skip.index())?;
        debug_assert!(self.bins[slot].is_open() && self.bins[slot].fits(size));
        Some(self.bins[slot].id)
    }

    /// Adds an item to a bin (capacity is the caller's responsibility; the
    /// engine validates before calling).
    pub fn add(&mut self, bin: BinId, item: ItemId, size: impl Into<SizeVec>) {
        let size = size.into();
        self.tree.ensure_dims(size.dims_used());
        let rec = &mut self.bins[bin.index()];
        debug_assert!(rec.is_open());
        debug_assert!(rec.fits(size));
        rec.load += size;
        rec.resident += 1;
        let idx = item.index();
        if idx >= self.item_pos.len() {
            self.item_pos.resize(idx + 1, NO_POS);
        }
        self.item_pos[idx] = pos_id(rec.items.len());
        rec.items.push(item);
        self.tree
            .set_remaining_vec(bin.index(), &rec.load.remaining());
    }

    /// Removes an item from a bin; closes the bin (recording `t`) when it
    /// empties. Returns `true` if the bin closed. An armed closing time is
    /// left as it was: a departure at `t` removes a resident that leaves no
    /// later than any other, so the maximum can only change by the bin
    /// closing. Callers moving a resident out early refresh it themselves
    /// (`refresh_closing`).
    pub fn remove(&mut self, bin: BinId, item: ItemId, size: impl Into<SizeVec>, t: Time) -> bool {
        let size = size.into();
        let rec = &mut self.bins[bin.index()];
        debug_assert!(rec.is_open());
        rec.load -= size;
        rec.resident -= 1;
        // O(1) removal through the position index, with the seed's tolerant
        // linear scan as a fallback for items the index never saw.
        let indexed = self
            .item_pos
            .get(item.index())
            .map(|&p| p as usize)
            .filter(|&p| p < rec.items.len() && rec.items[p] == item);
        let pos = indexed.or_else(|| rec.items.iter().position(|&i| i == item));
        if let Some(pos) = pos {
            rec.items.swap_remove(pos);
            self.item_pos[item.index()] = NO_POS;
            if let Some(&moved) = rec.items.get(pos) {
                self.item_pos[moved.index()] = pos_id(pos);
            }
        }
        if rec.resident == 0 {
            rec.closed_at = Some(t);
            // Donate the (now empty) resident buffer to the recycling pool.
            let spare = core::mem::take(&mut rec.items);
            self.spare_lists.push(spare);
            self.tree.close(bin.index());
            // O(1) open-list removal: tombstone the slot; opening order of
            // the survivors is untouched.
            let pos = self.open_pos[bin.index()] as usize;
            debug_assert_eq!(self.open[pos], bin);
            self.open[pos] = TOMBSTONE;
            self.open_pos[bin.index()] = NO_POS;
            self.dead += 1;
            while self.open.last() == Some(&TOMBSTONE) {
                self.open.pop();
                self.dead -= 1;
            }
            if self.dead * 2 > self.open.len() {
                self.compact_open();
            }
            true
        } else {
            self.tree
                .set_remaining_vec(bin.index(), &rec.load.remaining());
            false
        }
    }

    /// Rebuilds the open list without tombstones. Runs when tombstones
    /// outnumber live bins, so its O(B) cost amortizes to O(1) per close.
    fn compact_open(&mut self) {
        self.compactions += 1;
        self.open.retain(|&b| b != TOMBSTONE);
        self.dead = 0;
        for (i, &b) in self.open.iter().enumerate() {
            self.open_pos[b.index()] = pos_id(i);
        }
    }

    /// The record for a bin (open or closed).
    #[inline]
    pub fn record(&self, bin: BinId) -> Option<&BinRecord> {
        self.bins.get(bin.index())
    }

    /// Ids of currently open bins, in opening order.
    #[inline]
    pub fn open_ids(&self) -> impl Iterator<Item = BinId> + '_ {
        self.open.iter().copied().filter(|&b| b != TOMBSTONE)
    }

    /// Number of currently open bins.
    #[inline]
    pub fn open_count(&self) -> usize {
        self.open.len() - self.dead
    }

    /// The most recently opened bin that is still open (Next-Fit's
    /// candidate), in O(1).
    #[inline]
    pub fn newest_open(&self) -> Option<BinId> {
        // Trailing tombstones are trimmed on close, so `last` is live.
        self.open.last().copied()
    }

    /// Total number of bins ever opened, including closed records
    /// reclaimed by [`BinStore::compact_bins`].
    #[inline]
    pub fn total_opened(&self) -> usize {
        self.retired + self.bins.len()
    }

    /// The id the next [`BinStore::open`] call will assign. Ids are dense
    /// over the *current* record table, so after a [`BinStore::compact_bins`]
    /// this is smaller than [`BinStore::total_opened`].
    #[inline]
    pub fn next_id(&self) -> BinId {
        BinId(u32::try_from(self.bins.len()).expect("too many bins"))
    }

    /// Reclaims every closed bin's record and renumbers the surviving open
    /// bins densely, preserving opening order (`old_to_new[old.index()]`
    /// is the survivor's new id; [`TOMBSTONE`] marks a dropped record).
    /// Bounds the record table by the number of *open* bins instead of the
    /// number ever opened. The open list, position index and tournament
    /// tree are rebuilt for the new id space; [`BinStore::total_opened`]
    /// keeps counting retired records. Callers must remap every `BinId`
    /// they hold — the engine pushes the mapping to the algorithm and sink
    /// through their `on_bin_compact` hooks.
    pub(crate) fn compact_bins(&mut self) -> Vec<BinId> {
        let old_len = self.bins.len();
        let mut old_to_new = vec![TOMBSTONE; old_len];
        let mut new_len = 0usize;
        for rec in &self.bins {
            if rec.is_open() {
                old_to_new[rec.id.index()] = BinId(pos_id(new_len));
                new_len += 1;
            }
        }
        if new_len == old_len {
            return old_to_new; // nothing closed: identity map, no rebuild
        }
        self.retired += old_len - new_len;
        self.bins.retain(|r| r.is_open());
        let dims = self.tree.dims();
        let closing: Vec<u64> = self
            .bins
            .iter()
            .filter_map(|r| self.tree.closing(r.id.index()))
            .collect();
        let mut tree = FitTree::with_capacity(new_len);
        tree.ensure_dims(dims);
        self.open.clear();
        self.open_pos.clear();
        self.dead = 0;
        for (new, rec) in self.bins.iter_mut().enumerate() {
            rec.id = old_to_new[rec.id.index()];
            debug_assert_eq!(rec.id.index(), new);
            self.open_pos.push(pos_id(new));
            self.open.push(rec.id);
            let slot = tree.push(SIZE_SCALE);
            debug_assert_eq!(slot, new);
            tree.set_remaining_vec(slot, &rec.load.remaining());
        }
        if self.tree.recourse_armed() {
            tree.arm_recourse(|slot| closing[slot]);
        }
        self.tree = tree;
        old_to_new
    }

    /// All bin records, by id.
    #[inline]
    pub fn all(&self) -> &[BinRecord] {
        &self.bins
    }

    /// First open bin (in opening order) that fits `s` — the First-Fit
    /// choice over all open bins, answered by the tournament tree in
    /// O(log B). Selects the identical bin as [`BinStore::first_fit_linear`]
    /// (the key encoding makes the predicates equal; see
    /// [`crate::fit_tree`]).
    pub fn first_fit(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        let s = s.into();
        self.tree_queries.set(self.tree_queries.get() + 1);
        let slot = self.tree.first_fit_vec(s)?;
        let id = self.bins[slot].id;
        debug_assert!(self.bins[slot].is_open() && self.bins[slot].fits(s));
        Some(id)
    }

    /// The seed's naive O(B) First-Fit scan, retained verbatim as the
    /// differential-testing oracle for [`BinStore::first_fit`].
    pub fn first_fit_linear(&self, s: impl Into<SizeVec>) -> Option<BinId> {
        let s = s.into();
        self.note_linear_scan();
        self.open_ids().find(|&b| self.bins[b.index()].fits(s))
    }

    /// Records one linear enumeration of the open list (used by
    /// [`BinStore::first_fit_linear`] and by algorithm-visible `open_bins`
    /// walks in [`crate::algorithm::SimView`]).
    #[inline]
    pub(crate) fn note_linear_scan(&self) {
        self.linear_scans.set(self.linear_scans.get() + 1);
    }

    /// Observability counters: `(tree_queries, linear_scans)` answered so
    /// far. Interior mutability means these tick even through `&self`
    /// views, so auditing sinks that probe First-Fit inflate the raw
    /// totals — consumers wanting per-placement attribution should snapshot
    /// deltas around the call of interest (the engine does).
    #[inline]
    pub fn query_counters(&self) -> (u64, u64) {
        (self.tree_queries.get(), self.linear_scans.get())
    }

    /// Number of open-list tombstone compactions performed so far.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Renumbers resident item ids after an engine item-table compaction:
    /// `old_to_new[old] == new` (or `u32::MAX` for dropped rows — never a
    /// resident). Rewrites every open bin's resident list and rebuilds the
    /// item position index for the dense new id space of `new_len` rows.
    pub(crate) fn remap_items(&mut self, old_to_new: &[u32], new_len: usize) {
        self.item_pos.clear();
        self.item_pos.resize(new_len, NO_POS);
        for rec in &mut self.bins {
            if !rec.is_open() {
                continue;
            }
            for (pos, item) in rec.items.iter_mut().enumerate() {
                let new = old_to_new[item.index()];
                debug_assert!(new != u32::MAX, "resident items survive compaction");
                *item = ItemId(new);
                self.item_pos[new as usize] = pos_id(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::Size;

    fn half() -> Size {
        Size::from_ratio(1, 2)
    }

    #[test]
    fn open_add_remove_close_lifecycle() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        assert_eq!(store.open_count(), 2);
        store.add(b0, ItemId(0), half());
        store.add(b0, ItemId(1), half());
        assert!(!store.record(b0).unwrap().fits(Size::from_raw(1)));

        assert!(!store.remove(b0, ItemId(0), half(), Time(5)));
        assert!(store.remove(b0, ItemId(1), half(), Time(6)));
        assert_eq!(store.record(b0).unwrap().closed_at, Some(Time(6)));
        assert_eq!(store.open_ids().collect::<Vec<_>>(), [b1]);
        assert_eq!(store.total_opened(), 2);
    }

    #[test]
    fn first_fit_scans_in_opening_order() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        store.add(b0, ItemId(0), Size::FULL);
        assert_eq!(store.first_fit(half()), Some(b1));
        store.add(b1, ItemId(1), Size::FULL);
        assert_eq!(store.first_fit(half()), None);
        // Free space in b0 again: b0 regains First-Fit priority.
        store.remove(b0, ItemId(0), Size::FULL, Time(1));
        // ...but b0 CLOSED on emptying, so it must not be chosen.
        assert_eq!(store.first_fit(half()), None);
        let b2 = store.open(Time(2));
        assert_eq!(store.first_fit(half()), Some(b2));
    }

    #[test]
    fn closing_middle_bin_preserves_order() {
        let mut store = BinStore::new();
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        let b2 = store.open(Time(0));
        store.add(b0, ItemId(0), half());
        store.add(b1, ItemId(1), half());
        store.add(b2, ItemId(2), half());
        store.remove(b1, ItemId(1), half(), Time(1));
        assert_eq!(store.open_ids().collect::<Vec<_>>(), [b0, b2]);
    }

    #[test]
    fn tree_and_linear_first_fit_agree_through_churn() {
        let mut store = BinStore::new();
        let sizes = [
            Size::from_ratio(1, 3),
            Size::from_ratio(2, 3),
            Size::from_ratio(1, 7),
            Size::from_raw(0),
            Size::FULL,
        ];
        let mut resident: Vec<(BinId, ItemId, Size)> = Vec::new();
        let mut state = 0xdead_beefu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2_000 {
            let s = sizes[(rand() % sizes.len() as u64) as usize];
            for &probe in &sizes {
                assert_eq!(
                    store.first_fit(probe),
                    store.first_fit_linear(probe),
                    "divergence at step {step}"
                );
            }
            let item = ItemId(step as u32);
            let bin = match store.first_fit(s) {
                Some(b) => b,
                None => store.open(Time(step)),
            };
            store.add(bin, item, s);
            resident.push((bin, item, s));
            // Randomly depart ~half the arrivals to churn closes.
            while rand() % 2 == 0 && !resident.is_empty() {
                let k = (rand() % resident.len() as u64) as usize;
                let (b, i, sz) = resident.swap_remove(k);
                store.remove(b, i, sz, Time(step));
            }
        }
        assert!(store.open_count() <= store.total_opened());
    }

    #[test]
    fn vector_tree_and_linear_first_fit_agree_through_churn() {
        // Same differential harness as the scalar test, but with 2-D sizes
        // (the second dimension anti-correlated) so the tree's extra planes
        // and the linear scan's per-dimension fit test must agree.
        let mut store = BinStore::new();
        let sizes: Vec<SizeVec> = [
            (SIZE_SCALE / 3, SIZE_SCALE / 2),
            (2 * SIZE_SCALE / 3, SIZE_SCALE / 7),
            (SIZE_SCALE / 7, 2 * SIZE_SCALE / 3),
            (0, SIZE_SCALE / 2),
            (SIZE_SCALE, SIZE_SCALE / 5),
        ]
        .iter()
        .map(|&(a, b)| SizeVec::try_from_raws(&[a, b]).unwrap())
        .collect();
        let mut resident: Vec<(BinId, ItemId, SizeVec)> = Vec::new();
        let mut state = 0xbeef_deadu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2_000 {
            let s = sizes[(rand() % sizes.len() as u64) as usize];
            for &probe in &sizes {
                assert_eq!(
                    store.first_fit(probe),
                    store.first_fit_linear(probe),
                    "divergence at step {step}"
                );
            }
            let item = ItemId(step as u32);
            let bin = match store.first_fit(s) {
                Some(b) => b,
                None => store.open(Time(step)),
            };
            store.add(bin, item, s);
            resident.push((bin, item, s));
            while rand() % 2 == 0 && !resident.is_empty() {
                let k = (rand() % resident.len() as u64) as usize;
                let (b, i, sz) = resident.swap_remove(k);
                store.remove(b, i, sz, Time(step));
            }
        }
        assert!(store.open_count() <= store.total_opened());
    }

    #[test]
    fn newest_open_tracks_closes() {
        let mut store = BinStore::new();
        assert_eq!(store.newest_open(), None);
        let b0 = store.open(Time(0));
        let b1 = store.open(Time(0));
        let b2 = store.open(Time(0));
        store.add(b0, ItemId(0), half());
        store.add(b1, ItemId(1), half());
        store.add(b2, ItemId(2), half());
        assert_eq!(store.newest_open(), Some(b2));
        store.remove(b2, ItemId(2), half(), Time(1));
        assert_eq!(store.newest_open(), Some(b1));
        store.remove(b0, ItemId(0), half(), Time(1));
        assert_eq!(store.newest_open(), Some(b1));
        store.remove(b1, ItemId(1), half(), Time(2));
        assert_eq!(store.newest_open(), None);
        assert_eq!(store.open_count(), 0);
    }

    #[test]
    fn compact_bins_renumbers_and_keeps_first_fit_semantics() {
        let mut store = BinStore::new();
        let mut ids = Vec::new();
        for i in 0..8u32 {
            let b = store.open(Time(0));
            store.add(b, ItemId(i), if i % 2 == 0 { Size::FULL } else { half() });
            ids.push(b);
        }
        // Close the even (full) bins; the odd half-full bins survive.
        for (k, &b) in ids.iter().enumerate() {
            if k % 2 == 0 {
                store.remove(b, ItemId(k as u32), Size::FULL, Time(1));
            }
        }
        let before_ff = store.first_fit(half());
        let map = store.compact_bins();
        assert_eq!(store.total_opened(), 8, "retired records still counted");
        assert_eq!(store.all().len(), 4, "closed records reclaimed");
        assert_eq!(store.next_id(), BinId(4));
        for (old, &new) in map.iter().enumerate() {
            if old % 2 == 0 {
                assert_eq!(new, TOMBSTONE);
            } else {
                assert_eq!(new, BinId(old as u32 / 2), "dense, order-preserving");
            }
        }
        // First-Fit picks the same bin, under its new name.
        assert_eq!(
            store.first_fit(half()),
            Some(map[before_ff.unwrap().index()])
        );
        assert_eq!(store.first_fit(half()), store.first_fit_linear(half()));
        assert_eq!(store.open_ids().collect::<Vec<_>>().len(), 4);
        // Items still removable through the rebuilt indexes; a fresh open
        // continues the dense numbering.
        assert!(store.remove(BinId(0), ItemId(1), half(), Time(2)));
        assert_eq!(store.open(Time(3)), BinId(4));
        assert_eq!(store.total_opened(), 9);
        // A second compaction shifts the survivors again...
        let map2 = store.compact_bins();
        assert_eq!(map2[0], TOMBSTONE);
        assert_eq!(store.total_opened(), 9);
        // ...and with nothing closed, compaction is the identity.
        let id_map = store.compact_bins();
        assert!(id_map.iter().enumerate().all(|(i, b)| b.index() == i));
    }

    #[test]
    fn heavy_interior_closes_stay_consistent() {
        // Open many bins, close every other one from the middle out: the
        // tombstone compaction must preserve opening order and counts.
        let mut store = BinStore::new();
        let mut ids = Vec::new();
        for i in 0..1_000u32 {
            let b = store.open(Time(0));
            store.add(b, ItemId(i), Size::FULL);
            ids.push(b);
        }
        for (k, &b) in ids.iter().enumerate() {
            if k % 2 == 0 {
                store.remove(b, ItemId(k as u32), Size::FULL, Time(1));
            }
        }
        assert_eq!(store.open_count(), 500);
        let survivors: Vec<BinId> = store.open_ids().collect();
        assert_eq!(survivors.len(), 500);
        assert!(survivors.windows(2).all(|w| w[0] < w[1]), "order preserved");
        assert_eq!(store.first_fit(half()), None, "all survivors full");
        store.remove(ids[1], ItemId(1), Size::FULL, Time(2));
        assert_eq!(store.open_count(), 499);
    }
}
