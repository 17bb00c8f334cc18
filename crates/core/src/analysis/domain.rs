//! The abstract domain of the analyser's path-sensitive fixpoint.
//!
//! One [`AbsState`] summarizes everything the analyser knows about a
//! packet batch at a point in the element graph:
//!
//! * a per-slot write lattice for both annotation scopes
//!   (`Unwritten ⊑ MaybeWritten ⊒ Written` — `MaybeWritten` is the join
//!   of disagreeing paths),
//! * a **must**-hold set of [`HeaderFact`]s (intersected at joins: a fact
//!   survives only if every incoming path establishes it),
//! * the earliest size-changing in-place datablock rewrite observed on
//!   *some* path (a **may** property, so joins keep the minimum offset —
//!   the most hazardous one for downstream datablock declarations).
//!
//! All three components are finite lattices and every transfer function
//! is monotone, so the worklist fixpoint behind [`super::analyze`]
//! terminates even on cyclic (already `NBA003`-diagnosed) graphs.

use crate::batch::{anno, ANNO_SLOTS};
use crate::element::{HeaderFact, SlotScope};

/// What the analyser knows about one annotation slot on the current path
/// set. `Written` and `Unwritten` are definite (every path agrees);
/// `MaybeWritten` means the paths disagree — which is exactly the state a
/// strict reader must not observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// No path reaching this point has written the slot.
    Unwritten,
    /// Some paths wrote the slot, some did not (join of the other two).
    MaybeWritten,
    /// Every path reaching this point wrote the slot.
    Written,
}

impl SlotState {
    /// Least upper bound: agreement is kept, disagreement is
    /// `MaybeWritten`.
    pub fn join(self, other: SlotState) -> SlotState {
        if self == other {
            self
        } else {
            SlotState::MaybeWritten
        }
    }
}

/// The abstract state flowing along one edge of the element graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Per-packet annotation slots.
    pub pkt: [SlotState; ANNO_SLOTS],
    /// Per-batch annotation slots.
    pub batch: [SlotState; ANNO_SLOTS],
    /// Bitset of [`HeaderFact`]s that hold on **every** path to here.
    pub facts: u8,
    /// Earliest size-changing in-place rewrite on **some** path to here:
    /// `(byte offset the rewrite starts at, node that performs it)`.
    pub rewrite: Option<(usize, usize)>,
}

impl AbsState {
    /// The state at the pipeline entry: framework-seeded packet slots and
    /// reserved batch slots (maintained by the framework itself) are
    /// already written, nothing else is, no header fact holds.
    pub fn entry() -> AbsState {
        let mut pkt = [SlotState::Unwritten; ANNO_SLOTS];
        for &s in anno::FRAMEWORK_SEEDED {
            pkt[s] = SlotState::Written;
        }
        let mut batch = [SlotState::Unwritten; ANNO_SLOTS];
        for &s in anno::RESERVED_BATCH_WRITES {
            batch[s] = SlotState::Written;
        }
        AbsState {
            pkt,
            batch,
            facts: 0,
            rewrite: None,
        }
    }

    /// The state of one slot.
    pub fn slot(&self, scope: SlotScope, slot: usize) -> SlotState {
        match scope {
            SlotScope::Packet => self.pkt[slot],
            SlotScope::Batch => self.batch[slot],
        }
    }

    /// Overwrites one slot's state.
    pub fn set_slot(&mut self, scope: SlotScope, slot: usize, st: SlotState) {
        match scope {
            SlotScope::Packet => self.pkt[slot] = st,
            SlotScope::Batch => self.batch[slot] = st,
        }
    }

    /// Whether `fact` must hold here.
    pub fn has(&self, fact: HeaderFact) -> bool {
        self.facts & fact.bit() != 0
    }

    /// Adds `fact` to the must-hold set.
    pub fn establish(&mut self, fact: HeaderFact) {
        self.facts |= fact.bit();
    }

    /// Join at a confluence point: slots join pairwise, must-facts
    /// intersect, and the may-rewrite keeps the smaller (more hazardous)
    /// offset.
    pub fn join(&self, other: &AbsState) -> AbsState {
        let mut pkt = self.pkt;
        let mut batch = self.batch;
        for i in 0..ANNO_SLOTS {
            pkt[i] = pkt[i].join(other.pkt[i]);
            batch[i] = batch[i].join(other.batch[i]);
        }
        let rewrite = match (self.rewrite, other.rewrite) {
            (None, r) | (r, None) => r,
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        AbsState {
            pkt,
            batch,
            facts: self.facts & other.facts,
            rewrite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_commutative_and_idempotent() {
        let mut a = AbsState::entry();
        a.set_slot(SlotScope::Packet, 4, SlotState::Written);
        a.establish(HeaderFact::Ipv4Valid);
        let b = AbsState::entry();
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&a), a);
        let j = a.join(&b);
        assert_eq!(j.slot(SlotScope::Packet, 4), SlotState::MaybeWritten);
        assert!(!j.has(HeaderFact::Ipv4Valid));
    }

    #[test]
    fn rewrite_join_keeps_min_offset() {
        let mut a = AbsState::entry();
        a.rewrite = Some((40, 2));
        let mut b = AbsState::entry();
        b.rewrite = Some((14, 5));
        assert_eq!(a.join(&b).rewrite, Some((14, 5)));
        assert_eq!(a.join(&AbsState::entry()).rewrite, Some((40, 2)));
    }

    #[test]
    fn entry_seeds_framework_slots() {
        let e = AbsState::entry();
        for &s in anno::FRAMEWORK_SEEDED {
            assert_eq!(e.slot(SlotScope::Packet, s), SlotState::Written);
        }
        assert_eq!(
            e.slot(SlotScope::Packet, anno::AC_MATCH),
            SlotState::Unwritten
        );
    }
}
