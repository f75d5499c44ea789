//! The collective algorithms, written once over a raw send/recv substrate.
//!
//! Every backend runs these bodies: the simulator (`mpisim`), the threads
//! backend (`shmem`) and the process-per-rank backend (`sockcomm`). The
//! [`Communicator`] trait's collective methods are provided defaults that
//! call into this module, and a backend supplies only the substrate they
//! need: reserved-tag `send_raw`/`recv_vec_raw`/`recv_any_raw`, the
//! per-communicator `next_coll_tag` allocator, and the clock and memory
//! hooks. One copy of the dissemination barrier, binomial broadcast,
//! staggered `alltoallv` and async self-first protocol means one message
//! pattern, which is why `backend_equivalence` can demand bit-identical
//! per-rank output across all three backends.
//!
//! All ranks in this module's vocabulary are *communicator* ranks; the
//! backend maps them to world ranks (or socket peers) internally.

use crate::wire::Wire;
use crate::{Communicator, Group};

/// Dissemination barrier: `ceil(log2 p)` rounds, round `k` sends to
/// `(r + 2^k) mod p` and receives from `(r - 2^k) mod p`.
pub fn barrier<C: Communicator>(comm: &C) {
    comm.count("coll.barrier", 1);
    let p = comm.size();
    if p == 1 {
        return;
    }
    let base = comm.next_coll_tag();
    let r = comm.rank();
    let mut k = 0u32;
    while (1usize << k) < p {
        let d = 1usize << k;
        let dst = (r + d) % p;
        let src = (r + p - d) % p;
        comm.send_raw::<u8>(dst, base + u64::from(k), Vec::new());
        let _ = comm.recv_vec_raw::<u8>(src, base + u64::from(k));
        k += 1;
    }
}

/// Binomial-tree broadcast from `root` (virtual ranks rotate the root to 0).
pub fn bcast<C: Communicator, T: Wire>(comm: &C, root: usize, data: Option<Vec<T>>) -> Vec<T> {
    comm.count("coll.bcast", 1);
    let p = comm.size();
    let tag = comm.next_coll_tag();
    if p == 1 {
        return data.expect("root must supply data");
    }
    let vr = (comm.rank() + p - root) % p; // virtual rank, root = 0
    let mut buf: Option<Vec<T>> = if vr == 0 {
        Some(data.expect("root must supply data"))
    } else {
        None
    };
    let rounds = (usize::BITS - (p - 1).leading_zeros()) as usize;
    for k in 0..rounds {
        let d = 1usize << k;
        if buf.is_none() && vr >= d && vr < 2 * d {
            let parent_vr = vr - d;
            let parent = (parent_vr + root) % p;
            buf = Some(comm.recv_vec_raw::<T>(parent, tag + k as u64));
        } else if buf.is_some() && vr < d {
            let child_vr = vr + d;
            if child_vr < p {
                let child = (child_vr + root) % p;
                comm.send_slice_raw(child, tag + k as u64, buf.as_ref().expect("buffered"));
            }
        }
    }
    buf.expect("broadcast reached every rank")
}

/// Rank-order gatherv: non-roots send, the root receives in source order.
pub fn gatherv<C: Communicator, T: Wire>(comm: &C, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
    comm.count("coll.gatherv", 1);
    let p = comm.size();
    let tag = comm.next_coll_tag();
    if comm.rank() == root {
        let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
        for src in 0..p {
            if src == root {
                out.push(data.to_vec());
            } else {
                out.push(comm.recv_vec_raw::<T>(src, tag));
            }
        }
        Some(out)
    } else {
        comm.send_slice_raw(root, tag, data);
        None
    }
}

/// Personalized all-to-all of one item per rank; receives in source order.
pub fn alltoall<C: Communicator, T: Wire>(comm: &C, data: &[T]) -> Vec<T> {
    comm.count("coll.alltoall", 1);
    let p = comm.size();
    assert_eq!(data.len(), p, "alltoall requires one item per rank");
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    for (dst, item) in data.iter().enumerate() {
        if dst != me {
            comm.send_raw(dst, tag, vec![item.clone()]);
        }
    }
    let mut out: Vec<T> = Vec::with_capacity(p);
    for src in 0..p {
        if src == me {
            out.push(data[me].clone());
        } else {
            out.push(comm.recv_val_raw::<T>(src, tag));
        }
    }
    out
}

/// Variable all-to-all with pre-exchanged receive counts: staggered send
/// order (start at `me + 1`, wrap), receives concatenated in source order,
/// the self chunk copied without touching the network.
pub fn alltoallv_given_counts<C: Communicator, T: Wire>(
    comm: &C,
    data: &[T],
    send_counts: &[usize],
    recv_counts: &[usize],
) -> Vec<T> {
    comm.count("coll.alltoallv", 1);
    let p = comm.size();
    assert_eq!(send_counts.len(), p, "one send count per rank");
    assert_eq!(recv_counts.len(), p, "one recv count per rank");
    let total: usize = send_counts.iter().sum();
    assert_eq!(total, data.len(), "send counts must cover the data");
    let tag = comm.next_coll_tag();
    let me = comm.rank();

    let mut offsets = Vec::with_capacity(p + 1);
    offsets.push(0usize);
    for &c in send_counts {
        offsets.push(offsets.last().copied().expect("non-empty") + c);
    }
    // Staggered send order (start at me+1, wrap), exactly as the
    // simulator and real MPI all-to-alls do, to spread arrivals.
    for i in 1..p {
        let dst = (me + i) % p;
        if send_counts[dst] > 0 {
            comm.send_slice_raw(dst, tag, &data[offsets[dst]..offsets[dst + 1]]);
        }
    }
    let mut out: Vec<T> = Vec::with_capacity(recv_counts.iter().sum());
    for (src, &rc) in recv_counts.iter().enumerate() {
        if src == me {
            out.extend_from_slice(&data[offsets[me]..offsets[me + 1]]);
        } else if rc > 0 {
            let got = comm.recv_extend_raw(src, tag, &mut out);
            assert_eq!(got, rc, "alltoallv count mismatch from {src}");
        }
    }
    out
}

/// Handle to an in-flight asynchronous `alltoallv` (the one handle every
/// backend returns): the self chunk is delivered first, then remote chunks
/// in true arrival order, keyed by source with a hard duplicate check.
pub struct RawAsync<T> {
    tag: u64,
    pending: Vec<bool>,
    recv_counts: Vec<usize>,
    self_chunk: Option<Vec<T>>,
    remaining: usize,
}

impl<T> RawAsync<T> {
    /// Number of per-peer chunks not yet delivered. Inherent mirror of
    /// [`crate::AsyncExchange::remaining`]: the trait impl is generic over
    /// every [`Communicator`], so monomorphic call sites would otherwise
    /// need a turbofish to pick one.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Per-source receive counts (inherent mirror, see
    /// [`RawAsync::remaining`]).
    pub fn recv_counts(&self) -> &[usize] {
        &self.recv_counts
    }

    /// Total number of records this rank will receive (inherent mirror,
    /// see [`RawAsync::remaining`]).
    pub fn total_recv(&self) -> usize {
        self.recv_counts.iter().sum()
    }
}

impl<T: Wire, C: Communicator> crate::AsyncExchange<T, C> for RawAsync<T> {
    fn wait_any(&mut self, comm: &C) -> Option<(usize, Vec<T>)> {
        if self.remaining == 0 {
            return None;
        }
        // Progress cost of testing the outstanding requests (one MPI_Test
        // sweep): grows with the number of pending peers, which is what
        // erodes the overlap benefit at large process counts (Fig. 5b).
        comm.charge_async_poll(self.remaining);
        if let Some(chunk) = self.self_chunk.take() {
            self.remaining -= 1;
            return Some((comm.rank(), chunk));
        }
        // Prefer a chunk that already arrived; otherwise block for any.
        // Any-source matching is order-insensitive here by protocol: chunks
        // are keyed by source and the assert below rejects duplicates.
        let (src, data) = match comm.try_recv_any_raw::<T>(self.tag) {
            Some(hit) => hit,
            None => comm.recv_any_raw::<T>(self.tag),
        };
        // A hard check, not a debug assert: a duplicate or foreign chunk
        // here means the exchange protocol was violated (e.g. a tag
        // collision) and would otherwise corrupt the output silently.
        assert!(
            self.pending[src],
            "async alltoallv protocol violation: unexpected chunk from rank {src} \
             on tag {} ({} records); bookkeeping already marked it delivered",
            self.tag,
            data.len()
        );
        self.pending[src] = false;
        self.remaining -= 1;
        Some((src, data))
    }

    fn remaining(&self) -> usize {
        self.remaining
    }

    fn recv_counts(&self) -> &[usize] {
        &self.recv_counts
    }
}

/// Post every send of an asynchronous variable all-to-all and return the
/// handle that retrieves completed chunks (self chunk first).
pub fn alltoallv_async_given_counts<C: Communicator, T: Wire>(
    comm: &C,
    data: &[T],
    send_counts: &[usize],
    recv_counts: Vec<usize>,
) -> RawAsync<T> {
    comm.count("coll.alltoallv_async", 1);
    let p = comm.size();
    assert_eq!(send_counts.len(), p);
    assert_eq!(send_counts.iter().sum::<usize>(), data.len());
    let tag = comm.next_coll_tag();
    let me = comm.rank();

    let mut offsets = Vec::with_capacity(p + 1);
    offsets.push(0usize);
    for &c in send_counts {
        offsets.push(offsets.last().copied().expect("non-empty") + c);
    }
    let self_slice = &data[offsets[me]..offsets[me + 1]];
    let self_chunk = (!self_slice.is_empty()).then(|| self_slice.to_vec());
    for i in 1..p {
        let dst = (me + i) % p;
        let chunk = &data[offsets[dst]..offsets[dst + 1]];
        if !chunk.is_empty() {
            comm.send_slice_raw(dst, tag, chunk);
        }
    }

    let mut pending = vec![false; p];
    let mut remaining = 0usize;
    for (src, item) in pending.iter_mut().enumerate() {
        if src != me && recv_counts[src] > 0 {
            *item = true;
            remaining += 1;
        }
    }
    let has_self = self_chunk.is_some();
    RawAsync {
        tag,
        pending,
        recv_counts,
        self_chunk,
        remaining: remaining + usize::from(has_self),
    }
}

/// Rank-order scatterv: the root sends each non-root chunk, keeps its own.
pub fn scatterv<C: Communicator, T: Wire>(
    comm: &C,
    root: usize,
    chunks: Option<Vec<Vec<T>>>,
) -> Vec<T> {
    comm.count("coll.scatterv", 1);
    let p = comm.size();
    let tag = comm.next_coll_tag();
    if comm.rank() == root {
        let chunks = chunks.expect("root must supply chunks");
        assert_eq!(chunks.len(), p, "one chunk per rank");
        let mut mine = Vec::new();
        for (dst, chunk) in chunks.into_iter().enumerate() {
            if dst == root {
                mine = chunk;
            } else {
                comm.send_raw(dst, tag, chunk);
            }
        }
        mine
    } else {
        comm.recv_vec_raw(root, tag)
    }
}

/// A child communicator computed by [`split_group`]: its membership plus
/// the split sequence number and color from which the backend derives the
/// child's context id.
pub struct SplitChild {
    /// The calling rank's membership in the child.
    pub group: Group,
    /// The parent's split sequence number for this split.
    pub seq: u64,
    /// The caller's color.
    pub color: i64,
}

/// The group-computation half of `MPI_Comm_split`: allgathers every
/// member's `(color, key)` (a `None` color rides as an `i64::MIN` sentinel
/// plus validity flag), advances the split sequence on every member, and
/// returns the caller's child membership, ordered by `(key, old rank)`.
/// Ranks passing `None` participate (every member must call this) and get
/// `None` back. Context-id allocation for the child communicator is the
/// backend's job — registry-based in mpisim and shmem, hash-derived in
/// sockcomm.
pub fn split_group<C: Communicator>(comm: &C, color: Option<i64>, key: i64) -> Option<SplitChild> {
    let mine = [(color.unwrap_or(i64::MIN), i64::from(color.is_some()), key)];
    let all = comm.allgather(&mine[..]);
    let seq = comm.group().next_split_seq();
    let my_color = color?;

    let mut group: Vec<(i64, usize)> = all
        .iter()
        .enumerate()
        .filter(|(_, &(c, valid, _))| valid == 1 && c == my_color)
        .map(|(old_rank, &(_, _, k))| (k, old_rank))
        .collect();
    group.sort_unstable();
    let members: Vec<usize> = group.iter().map(|&(_, old)| old).collect();
    let my_index = group
        .iter()
        .position(|&(_, old)| old == comm.rank())
        .expect("calling rank is in its own color group");
    Some(SplitChild {
        group: comm.group().subgroup(&members, my_index),
        seq,
        color: my_color,
    })
}
