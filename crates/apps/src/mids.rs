//! Reusable `Mid` tuple types: the shuffled/accumulated units of the
//! benchmark applications, with Java-calibrated footprints.

use simcore::jbloat;

use crate::agg::MergeableTuple;
use itask_core::Tuple;

/// A counter entry (`word → count`): WC, IMC, MSA, CRP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountMid {
    /// Aggregation key.
    pub key: u64,
    /// Occurrences.
    pub count: u64,
    /// Simulated bytes of the entry (HashMap node + boxed key/value).
    pub entry_bytes: u32,
}

impl CountMid {
    /// A conventional `String → Long` hash-map entry (~136B).
    pub const STRING_LONG_ENTRY: u32 =
        (jbloat::hashmap_entry(jbloat::string(11), jbloat::boxed(8))) as u32;

    /// Creates a single-occurrence entry.
    pub fn one(key: u64, entry_bytes: u32) -> Self {
        CountMid {
            key,
            count: 1,
            entry_bytes,
        }
    }
}

impl Tuple for CountMid {
    fn heap_bytes(&self) -> u64 {
        self.entry_bytes as u64
    }

    fn ser_bytes(&self) -> u64 {
        16
    }
}

impl MergeableTuple for CountMid {
    fn key(&self) -> u64 {
        self.key
    }

    fn merge(&mut self, other: &Self) {
        self.count += other.count;
    }
}

/// A list-accumulating entry (`key → [values]`): II postings, IIB,
/// GR's collected groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ListMid {
    /// Aggregation key.
    pub key: u64,
    /// Collected values (postings, revenues, ...); read them through
    /// [`ListMid::items`].
    items: Items,
    /// Entry base bytes (map node + key + list header).
    pub entry_bytes: u32,
    /// Bytes per collected item.
    pub item_bytes: u32,
}

/// A [`ListMid`]'s values. The map side emits one value per tuple, so
/// a lone value stays inline and such a tuple owns no heap buffer; the
/// first merge moves the values into a `Vec` (two or more of them),
/// which from then on only grows.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Items {
    One(u64),
    Many(Vec<u64>),
}

impl ListMid {
    /// Creates a single-item entry.
    pub fn one(key: u64, item: u64, entry_bytes: u32, item_bytes: u32) -> Self {
        ListMid {
            key,
            items: Items::One(item),
            entry_bytes,
            item_bytes,
        }
    }

    /// The collected values, in merge order.
    pub fn items(&self) -> &[u64] {
        match &self.items {
            Items::One(item) => std::slice::from_ref(item),
            Items::Many(items) => items,
        }
    }
}

impl Tuple for ListMid {
    fn heap_bytes(&self) -> u64 {
        self.entry_bytes as u64 + self.items().len() as u64 * self.item_bytes as u64
    }

    fn ser_bytes(&self) -> u64 {
        12 + 8 * self.items().len() as u64
    }
}

impl MergeableTuple for ListMid {
    fn key(&self) -> u64 {
        self.key
    }

    fn merge(&mut self, other: &Self) {
        match &mut self.items {
            Items::Many(items) => items.extend_from_slice(other.items()),
            Items::One(first) => {
                // At least four slots, `Vec`'s own first growth: a list
                // is allocated no more often than one that began as a
                // one-slot `Vec`.
                let more = other.items();
                let mut items = Vec::with_capacity((1 + more.len()).max(4));
                items.push(*first);
                items.extend_from_slice(more);
                self.items = Items::Many(items);
            }
        }
    }
}

/// A co-occurrence stripe (`word → {neighbor → count}`): WCM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripeMid {
    /// The center word.
    pub key: u64,
    /// Neighbor counts.
    pub neighbors: std::collections::BTreeMap<u32, u32>,
    /// Entry base bytes (outer map node + inner map header).
    pub entry_bytes: u32,
    /// Bytes per neighbor cell.
    pub cell_bytes: u32,
}

impl StripeMid {
    /// A stripe with one neighbor observation.
    pub fn pair(key: u64, neighbor: u32, entry_bytes: u32, cell_bytes: u32) -> Self {
        let mut neighbors = std::collections::BTreeMap::new();
        neighbors.insert(neighbor, 1);
        StripeMid {
            key,
            neighbors,
            entry_bytes,
            cell_bytes,
        }
    }
}

impl Tuple for StripeMid {
    fn heap_bytes(&self) -> u64 {
        self.entry_bytes as u64 + self.neighbors.len() as u64 * self.cell_bytes as u64
    }

    fn ser_bytes(&self) -> u64 {
        12 + 8 * self.neighbors.len() as u64
    }
}

impl MergeableTuple for StripeMid {
    fn key(&self) -> u64 {
        self.key
    }

    fn merge(&mut self, other: &Self) {
        for (&n, &c) in &other.neighbors {
            *self.neighbors.entry(n).or_insert(0) += c;
        }
    }
}

/// A sort-record (unique key): HS. The key embeds the record identity,
/// so two `SortMid`s never collide and `merge` is unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortMid {
    /// The (unique) sort key.
    pub key: u64,
    /// Characters of the carried line.
    pub chars: u32,
    /// Collection overhead per record (priority-queue node).
    pub node_bytes: u32,
}

impl Tuple for SortMid {
    fn heap_bytes(&self) -> u64 {
        jbloat::string(self.chars as u64) + self.node_bytes as u64
    }

    fn ser_bytes(&self) -> u64 {
        self.chars as u64
    }
}

impl MergeableTuple for SortMid {
    fn key(&self) -> u64 {
        self.key
    }

    fn merge(&mut self, _other: &Self) {
        unreachable!("sort keys are unique by construction")
    }
}

/// A hash-join cell (`custkey → build row + pending probes + joined
/// rows`): HJ. Pending probe rows buffer until the build row arrives,
/// then collapse into retained joined rows. A probe is only ever
/// counted and summed, so the cell keeps how many pend and their total
/// price, not the rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinMid {
    /// The join key.
    pub custkey: u64,
    /// Build-side row (nation key), once seen.
    pub nation: Option<u32>,
    /// Pending probe rows.
    pub pending: u64,
    /// Total price of the pending probe rows.
    pub pending_revenue: u64,
    /// Joined row count.
    pub joined: u64,
    /// Joined revenue.
    pub revenue: u64,
    /// Bytes of the build row + cell.
    pub cell_bytes: u32,
    /// Bytes per pending probe row.
    pub pending_bytes: u32,
    /// Bytes per retained joined row.
    pub joined_bytes: u32,
}

impl JoinMid {
    /// A build-side contribution.
    pub fn customer(custkey: u64, nation: u32, sizes: (u32, u32, u32)) -> Self {
        JoinMid {
            custkey,
            nation: Some(nation),
            pending: 0,
            pending_revenue: 0,
            joined: 0,
            revenue: 0,
            cell_bytes: sizes.0,
            pending_bytes: sizes.1,
            joined_bytes: sizes.2,
        }
    }

    /// A probe-side contribution.
    pub fn order(custkey: u64, totalprice: u64, sizes: (u32, u32, u32)) -> Self {
        JoinMid {
            custkey,
            nation: None,
            pending: 1,
            pending_revenue: totalprice,
            joined: 0,
            revenue: 0,
            cell_bytes: sizes.0,
            pending_bytes: sizes.1,
            joined_bytes: sizes.2,
        }
    }

    /// Resolves pending probes against a present build row.
    fn settle(&mut self) {
        if self.nation.is_some() {
            self.joined += std::mem::take(&mut self.pending);
            self.revenue += std::mem::take(&mut self.pending_revenue);
        }
    }
}

impl Tuple for JoinMid {
    fn heap_bytes(&self) -> u64 {
        self.cell_bytes as u64
            + self.pending * self.pending_bytes as u64
            + self.joined * self.joined_bytes as u64
    }

    fn ser_bytes(&self) -> u64 {
        24 + 8 * self.pending + 16 * self.joined
    }
}

impl MergeableTuple for JoinMid {
    fn key(&self) -> u64 {
        self.custkey
    }

    fn merge(&mut self, other: &Self) {
        self.nation = self.nation.or(other.nation);
        self.pending += other.pending;
        self.pending_revenue += other.pending_revenue;
        self.joined += other.joined;
        self.revenue += other.revenue;
        self.settle();
    }
}

/// A simple final output record (`key → value`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OutKv {
    /// Result key.
    pub key: u64,
    /// Result value.
    pub value: u64,
}

/// A counter's final record: its key and count.
impl From<CountMid> for OutKv {
    fn from(mid: CountMid) -> Self {
        OutKv {
            key: mid.key,
            value: mid.count,
        }
    }
}

impl Tuple for OutKv {
    fn heap_bytes(&self) -> u64 {
        32
    }

    fn ser_bytes(&self) -> u64 {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges `other` into `acc` and returns the change in `acc`'s heap
    /// bytes: the delta `AggState::add` charges.
    fn merge_delta<M: MergeableTuple>(acc: &mut M, other: &M) -> i64 {
        let before = acc.heap_bytes() as i64;
        acc.merge(other);
        acc.heap_bytes() as i64 - before
    }

    #[test]
    fn count_merge_collapses() {
        let mut a = CountMid::one(3, 136);
        let delta = merge_delta(&mut a, &CountMid::one(3, 136));
        assert_eq!(delta, 0);
        assert_eq!(a.count, 2);
        assert_eq!(a.heap_bytes(), 136);
    }

    #[test]
    fn list_merge_grows() {
        let mut a = ListMid::one(1, 10, 176, 40);
        let d = merge_delta(&mut a, &ListMid::one(1, 11, 176, 40));
        assert_eq!(d, 40);
        assert_eq!(a.items(), &[10, 11]);
        assert_eq!(a.heap_bytes(), 176 + 2 * 40);
    }

    #[test]
    fn stripe_merge_counts_new_cells_only() {
        let mut a = StripeMid::pair(1, 7, 200, 28);
        assert_eq!(merge_delta(&mut a, &StripeMid::pair(1, 7, 200, 28)), 0);
        assert_eq!(merge_delta(&mut a, &StripeMid::pair(1, 8, 200, 28)), 28);
        assert_eq!(a.neighbors[&7], 2);
        assert_eq!(a.neighbors[&8], 1);
    }

    #[test]
    fn join_settles_when_build_row_arrives() {
        let sizes = (200, 64, 450);
        let mut cell = JoinMid::order(5, 100, sizes);
        let d = merge_delta(&mut cell, &JoinMid::order(5, 200, sizes));
        assert_eq!(d, 64); // one more pending probe
        let d = merge_delta(&mut cell, &JoinMid::customer(5, 3, sizes));
        // Pending released, joined rows retained.
        assert_eq!(cell.joined, 2);
        assert_eq!(cell.revenue, 300);
        assert_eq!(cell.pending, 0);
        assert_eq!(d, 2 * 450 - 2 * 64);
        // Further probes join immediately.
        let d2 = merge_delta(&mut cell, &JoinMid::order(5, 50, sizes));
        assert_eq!(cell.joined, 3);
        assert_eq!(d2, 450); // net: one joined row added, nothing pends
    }

    #[test]
    fn sort_mid_carries_string_bloat() {
        let s = SortMid {
            key: 9,
            chars: 100,
            node_bytes: 64,
        };
        assert!(s.heap_bytes() > 200);
        assert_eq!(s.ser_bytes(), 100);
    }
}
