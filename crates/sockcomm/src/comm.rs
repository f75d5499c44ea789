//! The sockets-backend communicator: [`SockComm`] implements
//! [`comm::Communicator`] over per-peer socket links and the shared
//! bounded-mailbox matching discipline.
//!
//! The collective algorithms are the trait's provided methods, i.e. the
//! shared bodies in [`comm::raw`] that the simulator and the threads
//! backend run too, so collective *results* (including deterministic
//! rank-order reduction folds) are bit-identical across all three
//! backends. `SockComm` supplies only the substrate: frame
//! encoding/decoding at the send/recv boundary, mailbox matching, and
//! hash-derived split context ids.
//!
//! Copies per remote message, in user space: a pod payload (`Vec<u64>`)
//! is written to the socket from the sender's own slice (0 copies), a
//! composite one is encoded once into a payload buffer (1 copy). The
//! reader thread reads the payload straight into the frame's buffer, and
//! the receiving rank decodes it once into its output — for
//! `alltoallv_given_counts`, straight onto the end of the result vector
//! (1 copy).

use crate::frame::{FrameHeader, FrameKind};
use crate::universe::SockUniverse;
use ::comm::mailbox::{Envelope, SrcSel};
use ::comm::raw;
use ::comm::{Communicator, Group, Wire};
use std::borrow::Cow;
use std::sync::Arc;

/// Panic payload used when a rank unwinds because the world aborted
/// (typically: a peer process died). The child runtime catches it and
/// turns the recorded [`crate::DeadPeer`] into the diagnostic.
#[derive(Debug)]
pub struct SockAborted {
    /// Communicator rank that was interrupted.
    pub rank: usize,
}

/// Derive a child communicator context id from the parent's: a splitmix64
/// hash chain over `(parent_ctx, split_seq, color)`. Every member of a
/// split computes this locally from values all members agree on, so no
/// shared registry (which a process-per-rank world cannot have) is needed;
/// the high bit is forced so a derived context never collides with the
/// world context 0.
pub(crate) fn split_ctx(parent: u64, split_seq: u64, color: i64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(parent) ^ split_seq) ^ color as u64) | (1 << 63)
}

/// A rank-local handle to a sockets-backend communicator. `!Send` by
/// construction (the [`Group`] sequence counters are `Cell`s): a rank's
/// communicator lives on that rank process's main thread.
pub struct SockComm {
    uni: Arc<SockUniverse>,
    /// Context id distinguishing this communicator's traffic.
    ctx: u64,
    group: Group,
}

impl SockComm {
    pub(crate) fn new(uni: Arc<SockUniverse>, ctx: u64, group: Group) -> Self {
        Self { uni, ctx, group }
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            self.abort_unwind();
        }
    }

    fn abort_unwind(&self) -> ! {
        // resume_unwind, not panic_any: this is deliberate control flow to
        // the catch_unwind in the rank runtime (which reports the dead
        // peer), so the panic hook's backtrace would be pure noise.
        std::panic::resume_unwind(Box::new(SockAborted { rank: self.rank() }))
    }

    /// Unwrap a received envelope's encoded payload and decode it onto
    /// the end of `out`; returns the sender's communicator rank and the
    /// number of elements appended.
    fn open_envelope_into<T: Wire>(&self, env: Envelope, out: &mut Vec<T>) -> (usize, usize) {
        let src_comm = self
            .group
            .comm_rank_of_world(env.src)
            .expect("sender is a member of this communicator");
        let bytes = env
            .data
            .downcast::<Vec<u8>>()
            .unwrap_or_else(|_| panic!("non-byte payload in sockets mailbox (tag {})", env.tag));
        let before = out.len();
        if T::extend_from_bytes(&bytes, out).is_none() {
            panic!(
                "undecodable payload from world rank {} (ctx {}, tag {}, {} bytes): \
                 sender and receiver disagree on the element type",
                env.src,
                env.ctx,
                env.tag,
                bytes.len()
            );
        }
        (src_comm, out.len() - before)
    }

    fn open_envelope<T: Wire>(&self, env: Envelope) -> (usize, Vec<T>) {
        let mut data = Vec::new();
        let (src_comm, _) = self.open_envelope_into(env, &mut data);
        (src_comm, data)
    }

    fn take_envelope(&self, src: SrcSel, tag: u64) -> Envelope {
        self.check_alive();
        match self.uni.mailbox.take(self.ctx, src, tag, &self.uni.aborted) {
            Some(env) => env,
            None => self.abort_unwind(),
        }
    }
}

impl std::fmt::Debug for SockComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SockComm")
            .field("ctx", &self.ctx)
            .field("rank", &self.rank())
            .field("size", &self.size())
            .field("world_rank", &self.world_rank())
            .finish()
    }
}

impl Communicator for SockComm {
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
        self.send_slice_raw(dst, tag, &data);
    }

    /// The sockets send primitive. A pod slice is written to the socket
    /// from its own memory; any other element type is encoded once into
    /// one payload buffer.
    fn send_slice_raw<T: Wire>(&self, dst: usize, tag: u64, data: &[T]) {
        self.check_alive();
        let src_w = self.world_rank();
        let dst_w = self.world_rank_of(dst);
        let payload = match T::as_bytes(data) {
            Some(bytes) => Cow::Borrowed(bytes),
            None => {
                let mut buf = Vec::new();
                T::put_slice(data, &mut buf);
                Cow::Owned(buf)
            }
        };
        let bytes = payload.len();
        self.uni.stats.record(bytes);
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        if dst_w == src_w {
            // Self-send: straight into the local mailbox, no socket.
            let delivered = self.uni.mailbox.push(
                Envelope {
                    ctx: self.ctx,
                    src: src_w,
                    tag,
                    data: Box::new(payload.into_owned()),
                    bytes,
                },
                &self.uni.aborted,
            );
            if !delivered {
                self.abort_unwind();
            }
            return;
        }
        let header = FrameHeader {
            kind: FrameKind::Data,
            ctx: self.ctx,
            src: src_w as u32,
            tag,
        };
        if let Err(e) = self.uni.send_frame(dst_w, &header, &payload) {
            // A write error means the peer's socket is gone: record the
            // death (EPIPE/ECONNRESET arrive here because Rust ignores
            // SIGPIPE) and unwind.
            self.uni
                .peer_died(dst_w, format!("send to rank {dst_w} failed: {e}"));
            self.abort_unwind();
        }
    }

    fn recv_vec_raw<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.recv_extend_raw(src, tag, &mut out);
        out
    }

    /// Decodes the mailbox's payload bytes straight onto the end of `out`.
    fn recv_extend_raw<T: Wire>(&self, src: usize, tag: u64, out: &mut Vec<T>) -> usize {
        let env = self.take_envelope(SrcSel::Exact(self.world_rank_of(src)), tag);
        self.open_envelope_into(env, out).1
    }

    fn recv_any_raw<T: Wire>(&self, tag: u64) -> (usize, Vec<T>) {
        let env = self.take_envelope(SrcSel::Any, tag);
        self.open_envelope(env)
    }

    fn try_recv_any_raw<T: Wire>(&self, tag: u64) -> Option<(usize, Vec<T>)> {
        self.check_alive();
        self.uni
            .mailbox
            .try_take(self.ctx, SrcSel::Any, tag)
            .map(|env| self.open_envelope(env))
    }

    fn split(&self, color: Option<i64>, key: i64) -> Option<SockComm> {
        // The context id is derived by hashing, not a registry — see
        // `split_ctx`.
        let child = raw::split_group(self, color, key)?;
        let ctx = split_ctx(self.ctx, child.seq, child.color);
        Some(SockComm::new(Arc::clone(&self.uni), ctx, child.group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ctx_is_deterministic_distinct_and_nonzero() {
        let a = split_ctx(0, 0, 0);
        assert_eq!(a, split_ctx(0, 0, 0), "pure function of its inputs");
        assert_ne!(a, 0);
        // Distinct along every axis a correct split varies.
        assert_ne!(split_ctx(0, 0, 0), split_ctx(0, 0, 1));
        assert_ne!(split_ctx(0, 0, 0), split_ctx(0, 1, 0));
        assert_ne!(split_ctx(0, 0, 0), split_ctx(a, 0, 0));
        // Negative colors are fine (split colors are i64).
        assert_ne!(split_ctx(0, 0, -1), split_ctx(0, 0, 1));
    }
}
