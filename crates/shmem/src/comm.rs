//! The threads-backend communicator: [`ThreadComm`] implements
//! [`comm::Communicator`] over bounded mailboxes and real wall-clock time.
//!
//! `ThreadComm` supplies only the substrate: its membership, the wall
//! clock, mailbox-backed reserved-tag send/recv and split context ids.
//! Every collective is the trait's provided method, i.e. the shared
//! algorithm body in [`comm::raw`] that the other backends run too, so
//! collective *results* (including deterministic rank-order reduction
//! folds) are bit-identical across backends; only arrival timing differs.

use crate::universe::Universe;
use ::comm::mailbox::{Envelope, SrcSel};
use ::comm::raw;
use ::comm::{Communicator, Group, Wire};
use std::sync::Arc;

/// Panic payload used when a rank unwinds *because another rank panicked*
/// (the world was aborted). The runtime filters these out so the original
/// failure is the one re-raised to the caller.
#[derive(Debug)]
pub struct ShmemAborted {
    /// Communicator rank that was interrupted.
    pub rank: usize,
}

/// A rank-local handle to a threads-backend communicator. `!Send` by
/// construction (the [`Group`] sequence counters are `Cell`s): a rank's
/// communicator lives on that rank's thread.
pub struct ThreadComm {
    uni: Arc<Universe>,
    /// Context id distinguishing this communicator's traffic.
    ctx: u64,
    group: Group,
}

impl ThreadComm {
    pub(crate) fn new(uni: Arc<Universe>, ctx: u64, group: Group) -> Self {
        Self { uni, ctx, group }
    }

    /// The shared world state.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            std::panic::panic_any(ShmemAborted { rank: self.rank() });
        }
    }

    fn open_envelope<T: Send + 'static>(&self, env: Envelope) -> (usize, Vec<T>) {
        let src_comm = self
            .group
            .comm_rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let data = env
            .data
            .downcast::<Vec<T>>()
            .unwrap_or_else(|_| panic!("type mismatch on recv (tag {})", env.tag));
        debug_assert_eq!(env.bytes, std::mem::size_of::<T>() * data.len());
        (src_comm, *data)
    }

    fn recv_sel_raw<T: Send + 'static>(&self, src: SrcSel, tag: u64) -> (usize, Vec<T>) {
        self.check_alive();
        let me_w = self.world_rank();
        match self.uni.mailboxes[me_w].take(self.ctx, src, tag, &self.uni.aborted) {
            Some(env) => self.open_envelope(env),
            None => std::panic::panic_any(ShmemAborted { rank: self.rank() }),
        }
    }
}

impl std::fmt::Debug for ThreadComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadComm")
            .field("ctx", &self.ctx)
            .field("rank", &self.rank())
            .field("size", &self.size())
            .field("world_rank", &self.world_rank())
            .finish()
    }
}

impl Communicator for ThreadComm {
    fn group(&self) -> &Group {
        &self.group
    }

    fn cores_per_node(&self) -> usize {
        self.uni.cores_per_node
    }

    fn now(&self) -> f64 {
        self.uni.start.elapsed().as_secs_f64()
    }

    fn recorder(&self) -> &telemetry::Recorder {
        &self.uni.recorder
    }

    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.check_alive();
        let bytes = std::mem::size_of::<T>() * data.len();
        let src_w = self.world_rank();
        let dst_w = self.world_rank_of(dst);
        self.uni.stats.record(bytes);
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        let delivered = self.uni.mailboxes[dst_w].push(
            Envelope {
                ctx: self.ctx,
                src: src_w,
                tag,
                data: Box::new(data),
                bytes,
            },
            &self.uni.aborted,
        );
        if !delivered {
            std::panic::panic_any(ShmemAborted { rank: self.rank() });
        }
    }

    fn recv_vec_raw<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        self.recv_sel_raw(SrcSel::Exact(self.world_rank_of(src)), tag)
            .1
    }

    fn recv_any_raw<T: Wire>(&self, tag: u64) -> (usize, Vec<T>) {
        self.recv_sel_raw(SrcSel::Any, tag)
    }

    fn try_recv_any_raw<T: Wire>(&self, tag: u64) -> Option<(usize, Vec<T>)> {
        self.check_alive();
        let me_w = self.world_rank();
        self.uni.mailboxes[me_w]
            .try_take(self.ctx, SrcSel::Any, tag)
            .map(|env| self.open_envelope(env))
    }

    fn split(&self, color: Option<i64>, key: i64) -> Option<ThreadComm> {
        let child = raw::split_group(self, color, key)?;
        let ctx = self.uni.context_for_split(self.ctx, child.seq, child.color);
        Some(ThreadComm::new(Arc::clone(&self.uni), ctx, child.group))
    }
}
