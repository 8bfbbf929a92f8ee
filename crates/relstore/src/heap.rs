//! The row heap: a slab of slots addressed by [`RowId`].
//!
//! A table reaches a row from its id — every index hit, every `UPDATE`,
//! every undo does — far more often than it walks the heap in order, so the
//! heap is *addressed, not searched*: id `n` lives in slot `n % SEG` of
//! segment `n / SEG`, and the only lookup structure is a small ordered
//! directory of the segments that exist (130 k rows is 128 entries, a few
//! cache lines that stay resident).
//!
//! What makes this sound is the table's id discipline
//! ([`crate::tuple::RowId`]): ids are issued monotonically and **never
//! reused**, so they are dense where rows are live and a slot, once
//! vacated, is never wanted again. That is also what bounds memory by the
//! live rows rather than by every id ever issued: a segment is freed the
//! moment its last slot is vacated, so a queue that churns forever trails a
//! constant number of segments behind its newest id. Ids far apart (a
//! recovered log may name any id) cost one segment each, never an allocation
//! proportional to the id, and a segment's slot array grows only as far as
//! the highest slot used in it, so a ten-row table does not pay for 1,024.

use crate::tuple::RowId;
use std::collections::{btree_map, BTreeMap};

/// Slots per segment.
const SEG: u64 = 1024;

/// Directory bytes charged per segment by [`Heap::approx_overhead`]: the
/// ordered map's key and node share plus the segment header.
const SEGMENT_OVERHEAD: usize = 64;

/// `SEG` consecutive ids' worth of slots.
#[derive(Debug, Clone)]
struct Segment<T> {
    /// Slot `i` holds id `segment number × SEG + i`. Never longer than
    /// `SEG`; grown on demand, in powers of two, to the highest slot used.
    slots: Vec<Option<T>>,
    /// Occupied slots. A segment with none is removed from the directory.
    occupied: usize,
}

impl<T> Segment<T> {
    /// The slot at `offset`, growing the slot array to reach it.
    fn slot_mut(&mut self, offset: usize) -> &mut Option<T> {
        if offset >= self.slots.len() {
            let capacity = (offset + 1).next_power_of_two().min(SEG as usize);
            self.slots.reserve_exact(capacity - self.slots.len());
            self.slots.resize_with(offset + 1, || None);
        }
        &mut self.slots[offset]
    }
}

/// A map from [`RowId`] to `T` laid out as a segmented slab; see the module
/// docs. Iteration is in ascending id order.
#[derive(Debug, Clone)]
pub struct Heap<T> {
    /// Segment number (`id / SEG`) → segment; only non-empty segments.
    segments: BTreeMap<u64, Segment<T>>,
    len: usize,
}

impl<T> Default for Heap<T> {
    fn default() -> Self {
        Heap {
            segments: BTreeMap::new(),
            len: 0,
        }
    }
}

#[inline]
fn split(id: RowId) -> (u64, usize) {
    (id.0 / SEG, (id.0 % SEG) as usize)
}

impl<T> Heap<T> {
    /// An empty heap; allocates nothing.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `id`, if any.
    #[inline]
    pub fn get(&self, id: RowId) -> Option<&T> {
        let (segment, offset) = split(id);
        self.segments.get(&segment)?.slots.get(offset)?.as_ref()
    }

    /// The value stored under `id`, mutably, if any.
    #[inline]
    pub fn get_mut(&mut self, id: RowId) -> Option<&mut T> {
        let (segment, offset) = split(id);
        self.segments
            .get_mut(&segment)?
            .slots
            .get_mut(offset)?
            .as_mut()
    }

    /// True when a value is stored under `id`.
    pub fn contains(&self, id: RowId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, returning the value it replaces. Allocates
    /// at most one segment whatever the id.
    pub fn insert(&mut self, id: RowId, value: T) -> Option<T> {
        let (segment, offset) = split(id);
        let segment = self.segments.entry(segment).or_insert_with(|| Segment {
            slots: Vec::new(),
            occupied: 0,
        });
        let replaced = segment.slot_mut(offset).replace(value);
        if replaced.is_none() {
            segment.occupied += 1;
            self.len += 1;
        }
        replaced
    }

    /// Vacates the slot of `id`, returning what it held, and frees the
    /// segment if that was its last occupied slot.
    pub fn remove(&mut self, id: RowId) -> Option<T> {
        let (segment_no, offset) = split(id);
        let segment = self.segments.get_mut(&segment_no)?;
        let removed = segment.slots.get_mut(offset)?.take()?;
        segment.occupied -= 1;
        if segment.occupied == 0 {
            self.segments.remove(&segment_no);
        }
        self.len -= 1;
        Some(removed)
    }

    /// Every `(id, value)` in ascending id order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            segments: self.segments.iter(),
            current: None,
        }
    }

    /// Every `(id, value)` in ascending id order, the values mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (RowId, &mut T)> {
        self.segments.iter_mut().flat_map(|(&segment_no, segment)| {
            segment.slots.iter_mut().enumerate().filter_map(move |(offset, slot)| {
                Some((RowId(segment_no * SEG + offset as u64), slot.as_mut()?))
            })
        })
    }

    /// Every value in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, value)| value)
    }

    /// Approximate bytes the heap itself holds — every allocated slot,
    /// occupied or not, plus the directory — excluding whatever the values
    /// own on the side.
    pub fn approx_overhead(&self) -> usize {
        self.segments
            .values()
            .map(|s| s.slots.capacity() * std::mem::size_of::<Option<T>>() + SEGMENT_OVERHEAD)
            .sum()
    }
}

impl<'a, T> IntoIterator for &'a Heap<T> {
    type Item = (RowId, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// In-order iterator over a [`Heap`]; see [`Heap::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    segments: btree_map::Iter<'a, u64, Segment<T>>,
    /// First id and remaining slots of the segment being walked.
    current: Option<(u64, std::iter::Enumerate<std::slice::Iter<'a, Option<T>>>)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (RowId, &'a T);

    fn next(&mut self) -> Option<(RowId, &'a T)> {
        loop {
            if let Some((base, slots)) = &mut self.current {
                for (offset, slot) in slots {
                    if let Some(value) = slot {
                        return Some((RowId(*base + offset as u64), value));
                    }
                }
            }
            let (segment_no, segment) = self.segments.next()?;
            self.current = Some((segment_no * SEG, segment.slots.iter().enumerate()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut heap = Heap::new();
        assert!(heap.is_empty());
        assert_eq!(heap.insert(RowId(1), "a"), None);
        assert_eq!(heap.insert(RowId(SEG + 3), "b"), None);
        assert_eq!(heap.insert(RowId(1), "c"), Some("a"), "insert replaces");
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.get(RowId(1)), Some(&"c"));
        assert_eq!(heap.get(RowId(2)), None, "a slot never written");
        assert_eq!(heap.get(RowId(5 * SEG)), None, "a segment never created");
        *heap.get_mut(RowId(SEG + 3)).unwrap() = "d";
        let pairs: Vec<_> = heap.iter().collect();
        assert_eq!(pairs, vec![(RowId(1), &"c"), (RowId(SEG + 3), &"d")]);
        assert_eq!(heap.remove(RowId(1)), Some("c"));
        assert_eq!(heap.remove(RowId(1)), None);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn a_vacated_segment_is_freed_at_once() {
        let mut heap = Heap::new();
        let empty = heap.approx_overhead();
        assert_eq!(empty, 0, "an empty heap holds nothing");
        for id in 0..3 * SEG {
            heap.insert(RowId(id), id);
        }
        let full = heap.approx_overhead();
        assert!(full >= 3 * SEG as usize * std::mem::size_of::<Option<u64>>());
        // Vacate the middle segment: its memory goes with its last slot.
        for id in SEG..2 * SEG {
            heap.remove(RowId(id));
        }
        assert!(heap.approx_overhead() < full - full / 4);
        for id in (0..SEG).chain(2 * SEG..3 * SEG) {
            heap.remove(RowId(id));
        }
        assert!(heap.is_empty());
        assert_eq!(heap.approx_overhead(), empty);
    }

    #[test]
    fn a_small_table_does_not_pay_for_a_whole_segment() {
        let mut heap = Heap::new();
        for id in 1..=10 {
            heap.insert(RowId(id), id);
        }
        assert!(heap.approx_overhead() <= 16 * std::mem::size_of::<Option<u64>>() + SEGMENT_OVERHEAD);
    }

    #[test]
    fn absurd_ids_cost_one_segment_each() {
        let mut heap = Heap::new();
        for id in [1 << 62, u64::MAX, 0, u64::MAX - SEG] {
            heap.insert(RowId(id), id);
        }
        assert_eq!(heap.len(), 4);
        assert!(heap.approx_overhead() <= 4 * (SEG as usize * 16 + SEGMENT_OVERHEAD));
        let ids: Vec<u64> = heap.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1 << 62, u64::MAX - SEG, u64::MAX]);
        assert_eq!(heap.get(RowId(u64::MAX)), Some(&u64::MAX));
        assert_eq!(heap.remove(RowId(1 << 62)), Some(1 << 62));
        assert_eq!(heap.get(RowId(1 << 62)), None);
    }
}
