//! One rank's membership in a communicator, and the per-communicator
//! sequence counters that keep collectives and splits in step.
//!
//! Every backend keeps the same bookkeeping: the member list (world ranks
//! in communicator-rank order), the calling rank's position in it, the
//! collective operation sequence that allocates reserved tags, and the
//! split sequence that names child communicators. It lives here once, so
//! the reserved-tag layout `MAX_USER_TAG + (op_seq << 12) + round` has a
//! single owner.

use crate::MAX_USER_TAG;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// The calling rank's view of a communicator's membership. `!Sync` (the
/// sequence counters are `Cell`s): it lives on its rank's thread.
#[derive(Debug)]
pub struct Group {
    /// World ranks of the members, ordered by communicator rank.
    members: Arc<[usize]>,
    /// Map from world rank to communicator rank for members.
    world_to_comm: HashMap<usize, usize>,
    /// This rank's position within `members`.
    my_index: usize,
    /// Collective operations performed on this communicator.
    coll_seq: Cell<u64>,
    /// Splits performed on this communicator.
    split_seq: Cell<u64>,
}

impl Group {
    /// Membership of communicator rank `my_index` among `members` (world
    /// ranks in communicator-rank order).
    pub fn new(members: Arc<[usize]>, my_index: usize) -> Self {
        assert!(my_index < members.len(), "rank {my_index} is not a member");
        let world_to_comm = members.iter().enumerate().map(|(i, &w)| (w, i)).collect();
        Self {
            members,
            world_to_comm,
            my_index,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
        }
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// This rank in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.members[self.my_index]
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    /// Communicator rank of world rank `w`, if it is a member.
    pub fn comm_rank_of_world(&self, w: usize) -> Option<usize> {
        self.world_to_comm.get(&w).copied()
    }

    /// Base tag of the next collective operation: `MAX_USER_TAG +
    /// (op_seq << 12)`, leaving round numbers (< 4096) to the algorithm.
    pub fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        debug_assert!(
            seq < (1 << 15),
            "collective sequence number overflow risk (seq {seq})"
        );
        MAX_USER_TAG + (seq << 12)
    }

    /// Sequence number of the next split of this communicator. Every member
    /// advances it on every split, color or not, so members agree on the
    /// child context ids derived from it.
    pub fn next_split_seq(&self) -> u64 {
        let s = self.split_seq.get();
        self.split_seq.set(s + 1);
        s
    }

    /// The membership of a child communicator whose members are
    /// `old_ranks` (ranks of this communicator, in child-rank order), seen
    /// from child rank `my_index`.
    pub fn subgroup(&self, old_ranks: &[usize], my_index: usize) -> Group {
        let members = old_ranks.iter().map(|&old| self.members[old]).collect();
        Group::new(members, my_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_map_both_ways() {
        let g = Group::new(Arc::from([5, 2, 9]), 1);
        assert_eq!((g.size(), g.rank(), g.world_rank()), (3, 1, 2));
        assert_eq!(g.world_rank_of(2), 9);
        assert_eq!(g.comm_rank_of_world(5), Some(0));
        assert_eq!(g.comm_rank_of_world(4), None);
    }

    #[test]
    fn sequences_advance_independently() {
        let g = Group::new(Arc::from([0, 1]), 0);
        assert_eq!(g.next_coll_tag(), MAX_USER_TAG);
        assert_eq!(g.next_coll_tag(), MAX_USER_TAG + (1 << 12));
        assert_eq!(g.next_split_seq(), 0);
        assert_eq!(g.next_split_seq(), 1);
    }

    #[test]
    fn subgroup_maps_through_world_ranks() {
        let g = Group::new(Arc::from([7, 3, 8, 4]), 2);
        let child = g.subgroup(&[3, 1], 0);
        assert_eq!(child.world_rank(), 4);
        assert_eq!(child.world_rank_of(1), 3);
    }
}
