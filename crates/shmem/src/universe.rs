//! Shared state of one threads-backend world: mailboxes, topology labels,
//! traffic stats, the wall-clock epoch, and the abort flag.

use comm::mailbox::Mailbox;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::Recorder;

/// Traffic statistics accumulated over a run (whole world).
#[derive(Debug, Default)]
pub struct NetStats {
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl NetStats {
    pub(crate) fn record(&self, bytes: usize) {
        self.messages.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(bytes as u64, Ordering::SeqCst);
    }

    /// Total point-to-point messages sent (self-sends excluded: local
    /// chunks never enter a mailbox on this backend).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::SeqCst)
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }
}

/// Shared immutable/concurrent state for all ranks of a threads world.
pub struct Universe {
    pub(crate) size: usize,
    pub(crate) cores_per_node: usize,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) aborted: AtomicBool,
    pub(crate) stats: NetStats,
    pub(crate) recorder: Recorder,
    /// Wall-clock epoch: `Communicator::now` reports seconds since this.
    pub(crate) start: Instant,
    /// Deterministic context-id registry for communicator splits: all
    /// ranks performing the same (parent ctx, split sequence, color) split
    /// must agree on the child context id regardless of arrival order.
    contexts: Mutex<HashMap<(u64, u64, i64), u64>>,
    next_ctx: AtomicU64,
}

impl Universe {
    pub(crate) fn new(
        size: usize,
        cores_per_node: usize,
        mailbox_capacity: usize,
        telemetry: bool,
    ) -> Self {
        let node_of: Vec<usize> = (0..size).map(|r| r / cores_per_node).collect();
        Self {
            size,
            cores_per_node,
            mailboxes: (0..size).map(|_| Mailbox::new(mailbox_capacity)).collect(),
            aborted: AtomicBool::new(false),
            stats: NetStats::default(),
            recorder: Recorder::new(node_of, telemetry),
            start: Instant::now(),
            contexts: Mutex::new(HashMap::new()),
            // ctx 0 is the world communicator.
            next_ctx: AtomicU64::new(1),
        }
    }

    /// Look up (or allocate) the context id for a split of `parent_ctx`
    /// identified by `(split_seq, color)`. First arrival allocates; later
    /// ranks read the same id.
    pub(crate) fn context_for_split(&self, parent_ctx: u64, split_seq: u64, color: i64) -> u64 {
        let mut map = self.contexts.lock().expect("context registry poisoned");
        *map.entry((parent_ctx, split_seq, color))
            .or_insert_with(|| self.next_ctx.fetch_add(1, Ordering::SeqCst))
    }

    /// Mark the world as aborted and wake every blocked sender/receiver.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.interrupt();
        }
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether a rank has panicked.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Run statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The telemetry recorder (no-op unless enabled at world build).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_registry_is_deterministic() {
        let u = Universe::new(4, 2, 64, false);
        let a = u.context_for_split(0, 0, 7);
        assert_eq!(a, u.context_for_split(0, 0, 7));
        assert_ne!(a, u.context_for_split(0, 0, 8));
        assert_ne!(a, u.context_for_split(0, 1, 7));
        assert_ne!(a, 0, "world ctx 0 is never handed out");
    }

    #[test]
    fn stats_accumulate() {
        let u = Universe::new(2, 1, 64, false);
        u.stats.record(100);
        u.stats.record(50);
        assert_eq!(u.stats().messages(), 2);
        assert_eq!(u.stats().bytes(), 150);
    }
}
