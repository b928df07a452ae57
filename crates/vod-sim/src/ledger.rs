//! The capacity ledger: the per-box upload-slot table every round is
//! scheduled against, and its only writer.
//!
//! A box's *at-rest* budget is `⌊u_b·c⌋` net of relay reservations (0 while
//! it is departed); it changes through [`CapacityLedger::set`] between
//! rounds or while churn drains. Within a round, fault windows and repair
//! transfers take transient [`CapacityLedger::hold`]s, and one
//! [`CapacityLedger::release`] at the end of the round gives them all back,
//! so the table can never drift from its at-rest values.

use vod_core::BoxId;

/// Upload-slot budgets per box, with the round's holds and a running total.
#[derive(Clone, Debug)]
pub(crate) struct CapacityLedger {
    slots: Vec<u32>,
    /// The round's open holds as `(box, slots)`, in the order taken.
    holds: Vec<(BoxId, u32)>,
    /// `Σ slots`, kept by every write.
    total: u64,
}

impl CapacityLedger {
    /// A ledger at rest with the given per-box budgets.
    pub(crate) fn new(slots: Vec<u32>) -> Self {
        let total = slots.iter().map(|&s| s as u64).sum();
        CapacityLedger {
            slots,
            holds: Vec::new(),
            total,
        }
    }

    /// The live table, holds deducted: what the scheduler, the repair
    /// planner, the obstruction and the state signature read.
    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// `Σ slots()`, in O(1).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Sets box `b`'s at-rest budget (churn, or a relay-broker resync).
    pub(crate) fn set(&mut self, b: BoxId, slots: u32) {
        debug_assert!(self.holds.is_empty(), "at-rest change under open holds");
        let slot = &mut self.slots[b.index()];
        self.total = self.total - *slot as u64 + slots as u64;
        *slot = slots;
    }

    /// Deducts `n` of box `b`'s slots for the rest of this round.
    pub(crate) fn hold(&mut self, b: BoxId, n: u32) {
        if n == 0 {
            return;
        }
        let slot = &mut self.slots[b.index()];
        debug_assert!(*slot >= n, "hold of {n} oversubscribes box {b}");
        *slot -= n;
        self.total -= n as u64;
        self.holds.push((b, n));
    }

    /// Gives back every hold of the round: the table is at rest again.
    pub(crate) fn release(&mut self) {
        for (b, n) in self.holds.drain(..) {
            self.slots[b.index()] += n;
            self.total += n as u64;
        }
        debug_assert_eq!(
            self.total,
            self.slots.iter().map(|&s| s as u64).sum::<u64>(),
            "running total drifted from the table"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_release_to_the_at_rest_table() {
        let mut ledger = CapacityLedger::new(vec![4, 0, 7]);
        assert_eq!(ledger.total(), 11);
        ledger.set(BoxId(1), 3);
        assert_eq!(ledger.total(), 14);
        ledger.hold(BoxId(2), 5);
        ledger.hold(BoxId(2), 1);
        ledger.hold(BoxId(0), 0);
        ledger.hold(BoxId(0), 4);
        assert_eq!(ledger.slots(), &[0, 3, 1]);
        assert_eq!(ledger.total(), 4);
        ledger.release();
        assert_eq!(ledger.slots(), &[4, 3, 7]);
        assert_eq!(ledger.total(), 14);
        // A clone carries the table and the total as one value.
        let mut fork = ledger.clone();
        fork.set(BoxId(0), 0);
        assert_eq!((fork.total(), ledger.total()), (10, 14));
    }
}
