//! Arena + free-list node storage for the pointer-based LPM engine.
//!
//! [`PatriciaTable`](crate::PatriciaTable) stores its nodes in a flat
//! `Vec` and links them by index; removal returns pruned slots to a free
//! list that the next inserts draw from before growing the vector.  Under
//! churn (route flaps, link flaps) the arena therefore stays at its
//! high-water mark instead of leaking one slot per pruned node — the
//! invariant the table-churn scenario and the bounded-arena regression
//! tests pin.
//!
//! Slot 0 is the root and is never released; released slots are reset to
//! `T::default()` so serialisation views over the raw slots never observe
//! stale routes.

use std::ops::{Index, IndexMut};

/// A flat node store with index links and slot reuse.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<T>,
    /// Indices of released slots, reused by the next allocations.
    free: Vec<usize>,
}

impl<T: Default> Arena<T> {
    /// Creates an arena whose root (slot 0) is `root`.
    pub fn with_root(root: T) -> Self {
        Arena { slots: vec![root], free: Vec::new() }
    }

    /// Stores `value`, reusing a released slot when one is available, and
    /// returns its index.
    pub fn alloc(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = value;
                slot
            }
            None => {
                self.slots.push(value);
                self.slots.len() - 1
            }
        }
    }

    /// Returns `idx` to the free list, resetting the slot so stale data
    /// cannot leak into serialisation views.  The root is never released.
    pub fn release(&mut self, idx: usize) {
        debug_assert!(idx != 0, "the root slot is never released");
        self.slots[idx] = T::default();
        self.free.push(idx);
    }

    /// Total number of slots, including free-listed ones — the size metric
    /// the scaling ablation and the memory-footprint model report.  Under
    /// churn this stays bounded because released slots are reused.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently sitting on the free list, awaiting reuse.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Iterates every slot (live and released) in index order — released
    /// slots read as `T::default()`.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.slots.iter()
    }

    /// Drops every node and the free list, reinstalling `root` at slot 0.
    pub fn reset(&mut self, root: T) {
        self.slots.clear();
        self.slots.push(root);
        self.free.clear();
    }
}

impl<T> Index<usize> for Arena<T> {
    type Output = T;

    fn index(&self, idx: usize) -> &T {
        &self.slots[idx]
    }
}

impl<T> IndexMut<usize> for Arena<T> {
    fn index_mut(&mut self, idx: usize) -> &mut T {
        &mut self.slots[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_released_slots() {
        let mut a: Arena<u32> = Arena::with_root(0);
        let x = a.alloc(10);
        let y = a.alloc(20);
        assert_eq!((x, y), (1, 2));
        a.release(x);
        assert_eq!(a.free_count(), 1);
        assert_eq!(a[x], 0, "released slots are reset to default");
        assert_eq!(a.alloc(30), x, "the free slot is reused before growing");
        assert_eq!((a.slot_count(), a.free_count()), (3, 0));
        assert_eq!((a[0], a[1], a[2]), (0, 30, 20));
    }

    #[test]
    fn reset_reinstalls_the_root() {
        let mut a: Arena<u32> = Arena::with_root(7);
        a.alloc(1);
        a.release(1);
        a.reset(9);
        assert_eq!((a.slot_count(), a.free_count(), a[0]), (1, 0, 9));
    }
}
