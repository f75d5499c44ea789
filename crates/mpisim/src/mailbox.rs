//! Per-rank mailboxes with MPI-style `(context, source, tag)` matching.
//!
//! Every world rank owns one `Mailbox`. A message is an `Envelope`
//! carrying a type-erased payload plus the metadata needed for matching and
//! for the virtual-time model (byte count and arrival timestamp). Receives
//! match on communicator context, source world rank (or any source), and
//! tag — the same matching semantics MPI provides, which is all the sorting
//! algorithms rely on.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A message in flight: type-erased payload plus matching metadata.
pub(crate) struct Envelope {
    /// Communicator context id the message was sent on.
    pub ctx: u64,
    /// World rank of the sender.
    pub src: usize,
    /// User or collective tag.
    pub tag: u64,
    /// The payload, a `Vec<T>` boxed as `Any`.
    pub data: Box<dyn Any + Send>,
    /// Payload size in bytes (for statistics; already charged to clocks).
    pub bytes: usize,
    /// Virtual time at which the message is available to the receiver.
    pub arrival: f64,
    /// Sender's vector clock when the happens-before checker is on
    /// (`None` otherwise; see [`crate::check`]).
    pub stamp: Option<crate::check::Stamp>,
}

/// Source selector for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcSel {
    /// Match only this world rank.
    Exact(usize),
    /// Match any source (MPI_ANY_SOURCE).
    Any,
}

/// Outcome of a blocking take with a deadline.
pub(crate) enum TakeResult {
    /// A matching envelope was removed from the queue.
    Got(Envelope),
    /// The world aborted while waiting.
    Aborted,
    /// The deadline elapsed with no match (deadlock-detector probe).
    TimedOut,
}

/// A single rank's incoming-message queue.
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }
}

impl Mailbox {
    /// Deposit an envelope and wake any waiting receiver.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn push(&self, env: Envelope) {
        self.push_reordered(env, 0);
    }

    /// Deposit an envelope, letting it overtake up to `depth` already-queued
    /// envelopes. Messages from the same `(ctx, src)` are never overtaken —
    /// MPI's non-overtaking guarantee holds under reordering faults too.
    pub fn push_reordered(&self, env: Envelope, depth: usize) {
        let mut q = self.queue.lock();
        let mut pos = q.len();
        let mut crossed = 0;
        while pos > 0 && crossed < depth {
            let behind = &q[pos - 1];
            if behind.ctx == env.ctx && behind.src == env.src {
                break;
            }
            pos -= 1;
            crossed += 1;
        }
        q.insert(pos, env);
        drop(q);
        self.cv.notify_all();
    }

    fn matches(e: &Envelope, ctx: u64, src: SrcSel, tag: u64) -> bool {
        e.ctx == ctx
            && e.tag == tag
            && match src {
                SrcSel::Exact(s) => e.src == s,
                SrcSel::Any => true,
            }
    }

    /// Position of the first matching envelope (FIFO order).
    fn match_pos(queue: &VecDeque<Envelope>, ctx: u64, src: SrcSel, tag: u64) -> Option<usize> {
        queue.iter().position(|e| Self::matches(e, ctx, src, tag))
    }

    /// Non-blocking take of the first matching envelope.
    pub fn try_take(&self, ctx: u64, src: SrcSel, tag: u64) -> Option<Envelope> {
        let mut q = self.queue.lock();
        Self::match_pos(&q, ctx, src, tag).and_then(|i| q.remove(i))
    }

    /// Blocking take. Returns `None` if `aborted` becomes set while waiting
    /// (another rank panicked and the world is shutting down).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn take(&self, ctx: u64, src: SrcSel, tag: u64, aborted: &AtomicBool) -> Option<Envelope> {
        match self.take_until(ctx, src, tag, aborted, None) {
            TakeResult::Got(e) => Some(e),
            TakeResult::Aborted => None,
            TakeResult::TimedOut => unreachable!("no deadline was set"),
        }
    }

    /// Blocking take of the first matching envelope, optionally bounded by
    /// a wall-clock deadline (used by the deadlock detector to probe for
    /// global stalls).
    pub fn take_until(
        &self,
        ctx: u64,
        src: SrcSel,
        tag: u64,
        aborted: &AtomicBool,
        deadline: Option<std::time::Instant>,
    ) -> TakeResult {
        let mut q = self.queue.lock();
        loop {
            if let Some(i) = Self::match_pos(&q, ctx, src, tag) {
                return TakeResult::Got(q.remove(i).expect("matched position exists"));
            }
            if aborted.load(Ordering::SeqCst) {
                return TakeResult::Aborted;
            }
            // Timed wait so an abort raised while we hold no notification
            // still wakes us promptly.
            let mut wait = Duration::from_millis(25);
            if let Some(d) = deadline {
                let now = std::time::Instant::now();
                if now >= d {
                    return TakeResult::TimedOut;
                }
                wait = wait.min(d - now);
            }
            self.cv.wait_for(&mut q, wait);
        }
    }

    /// Metadata snapshot of every queued envelope: `(ctx, src, tag, bytes)`.
    /// Used for deadlock diagnostics.
    pub fn snapshot(&self) -> Vec<(u64, usize, u64, usize)> {
        self.queue
            .lock()
            .iter()
            .map(|e| (e.ctx, e.src, e.tag, e.bytes))
            .collect()
    }

    /// Wake all waiters (used on world abort).
    pub fn interrupt(&self) {
        self.cv.notify_all();
    }

    /// Number of queued envelopes (diagnostics only).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn env(ctx: u64, src: usize, tag: u64, payload: Vec<u32>) -> Envelope {
        let bytes = payload.len() * 4;
        Envelope {
            ctx,
            src,
            tag,
            data: Box::new(payload),
            bytes,
            arrival: 0.0,
            stamp: None,
        }
    }

    #[test]
    fn try_take_matches_ctx_src_tag() {
        let mb = Mailbox::default();
        mb.push(env(1, 0, 7, vec![1]));
        mb.push(env(1, 2, 7, vec![2]));
        mb.push(env(2, 2, 7, vec![3]));

        assert!(mb.try_take(1, SrcSel::Exact(5), 7).is_none());
        let e = mb.try_take(1, SrcSel::Exact(2), 7).unwrap();
        assert_eq!(*e.data.downcast::<Vec<u32>>().unwrap(), vec![2]);
        // ctx 2 message must not match ctx 1 receives
        assert!(mb.try_take(1, SrcSel::Exact(2), 7).is_none());
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn any_source_takes_fifo_first_match() {
        let mb = Mailbox::default();
        mb.push(env(0, 3, 1, vec![30]));
        mb.push(env(0, 1, 1, vec![10]));
        let e = mb.try_take(0, SrcSel::Any, 1).unwrap();
        assert_eq!(e.src, 3, "FIFO order for any-source matching");
    }

    #[test]
    fn blocking_take_wakes_on_push() {
        let mb = Arc::new(Mailbox::default());
        let aborted = Arc::new(AtomicBool::new(false));
        let mb2 = Arc::clone(&mb);
        let ab2 = Arc::clone(&aborted);
        let h = std::thread::spawn(move || mb2.take(0, SrcSel::Exact(1), 9, &ab2));
        std::thread::sleep(Duration::from_millis(10));
        mb.push(env(0, 1, 9, vec![42]));
        let e = h.join().unwrap().expect("should receive");
        assert_eq!(e.src, 1);
    }

    #[test]
    fn blocking_take_returns_none_on_abort() {
        let mb = Arc::new(Mailbox::default());
        let aborted = Arc::new(AtomicBool::new(false));
        let mb2 = Arc::clone(&mb);
        let ab2 = Arc::clone(&aborted);
        let h = std::thread::spawn(move || mb2.take(0, SrcSel::Exact(1), 9, &ab2));
        std::thread::sleep(Duration::from_millis(5));
        aborted.store(true, Ordering::SeqCst);
        mb.interrupt();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn tag_mismatch_not_taken() {
        let mb = Mailbox::default();
        mb.push(env(0, 0, 5, vec![1]));
        assert!(mb.try_take(0, SrcSel::Exact(0), 6).is_none());
        assert!(mb.try_take(0, SrcSel::Exact(0), 5).is_some());
    }

    #[test]
    fn reordered_push_overtakes_other_sources_only() {
        let mb = Mailbox::default();
        mb.push(env(0, 1, 7, vec![1]));
        mb.push(env(0, 2, 7, vec![2]));
        // src 3 may overtake both queued envelopes (different sources)
        mb.push_reordered(env(0, 3, 7, vec![3]), 8);
        let e = mb.try_take(0, SrcSel::Any, 7).unwrap();
        assert_eq!(e.src, 3, "reordered envelope jumped the queue");

        // but a second message from src 1 must NOT overtake the first
        mb.push_reordered(env(0, 1, 7, vec![11]), 8);
        let a = mb.try_take(0, SrcSel::Exact(1), 7).unwrap();
        assert_eq!(*a.data.downcast::<Vec<u32>>().unwrap(), vec![1]);
        let b = mb.try_take(0, SrcSel::Exact(1), 7).unwrap();
        assert_eq!(*b.data.downcast::<Vec<u32>>().unwrap(), vec![11]);
    }

    #[test]
    fn reorder_depth_bounds_overtaking() {
        let mb = Mailbox::default();
        mb.push(env(0, 1, 7, vec![1]));
        mb.push(env(0, 2, 7, vec![2]));
        mb.push(env(0, 3, 7, vec![3]));
        // depth 1: overtakes only the last envelope
        mb.push_reordered(env(0, 4, 7, vec![4]), 1);
        let order: Vec<usize> = (0..4)
            .map(|_| mb.try_take(0, SrcSel::Any, 7).unwrap().src)
            .collect();
        assert_eq!(order, vec![1, 2, 4, 3]);
    }

    #[test]
    fn take_until_times_out() {
        let mb = Mailbox::default();
        let aborted = AtomicBool::new(false);
        let deadline = std::time::Instant::now() + Duration::from_millis(30);
        match mb.take_until(0, SrcSel::Any, 1, &aborted, Some(deadline)) {
            TakeResult::TimedOut => {}
            _ => panic!("expected timeout"),
        }
    }

    #[test]
    fn snapshot_reports_queue_metadata() {
        let mb = Mailbox::default();
        mb.push(env(3, 1, 7, vec![1, 2]));
        assert_eq!(mb.snapshot(), vec![(3, 1, 7, 8)]);
    }
}
