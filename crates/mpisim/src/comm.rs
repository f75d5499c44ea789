//! The communicator handle: point-to-point messaging, clocks, memory.
//!
//! A [`Comm`] is a single rank's view of a communicator, analogous to an
//! `MPI_Comm` plus the calling rank. It is deliberately `!Send`: a rank's
//! communicator lives on that rank's thread. All sends are *buffered*
//! (payload copied/moved into the envelope), so the common
//! send-everything-then-receive-everything pattern cannot deadlock.
//!
//! `Comm` implements only the [`Communicator`] substrate; the collectives
//! and the asynchronous all-to-all are the trait's provided methods, the
//! same `comm::raw` bodies the real backends run.
//!
//! Tags: user code may use any tag below [`Comm::MAX_USER_TAG`]. Collectives
//! use a reserved high tag space keyed by a per-communicator operation
//! sequence number, so user messages and collective traffic never match
//! each other even when interleaved.

use crate::clock::VirtualClock;
use crate::error::OomError;
use crate::mailbox::{Envelope, SrcSel, TakeResult};
use crate::universe::{DeadlockError, Universe, WaitDesc};
use ::comm::{raw, Communicator, Group, Wire};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Human-readable description of a tag: collective tags are decoded into
/// their operation sequence number and round. Shared by the deadlock
/// detector and the happens-before checker's reports.
pub(crate) fn describe_tag(tag: u64) -> String {
    if tag >= Comm::MAX_USER_TAG {
        let seq = (tag - Comm::MAX_USER_TAG) >> 12;
        let round = tag & 0xFFF;
        format!("collective #{seq} round {round}")
    } else {
        format!("user tag {tag}")
    }
}

/// Panic payload used when a rank unwinds *because another rank panicked*
/// (the world was aborted). The runtime filters these out so the original
/// failure is the one re-raised to the caller.
#[derive(Debug)]
pub struct AbortedPanic {
    /// Communicator rank that was interrupted.
    pub rank: usize,
}

/// A rank-local handle to a communicator.
pub struct Comm {
    uni: Arc<Universe>,
    /// Context id distinguishing this communicator's traffic.
    ctx: u64,
    group: Group,
    /// This rank's virtual clock (shared with sibling communicators of the
    /// same rank, e.g. after a split).
    clock: Rc<VirtualClock>,
}

impl Comm {
    /// Largest tag value available to user point-to-point messages
    /// (defined once in the backend-neutral `comm` crate).
    pub const MAX_USER_TAG: u64 = ::comm::MAX_USER_TAG;

    pub(crate) fn new(uni: Arc<Universe>, ctx: u64, group: Group, clock: Rc<VirtualClock>) -> Self {
        Self {
            uni,
            ctx,
            group,
            clock,
        }
    }

    /// The shared world state.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub(crate) fn clock_rc(&self) -> Rc<VirtualClock> {
        Rc::clone(&self.clock)
    }

    /// Charge communication-overhead seconds (injection, probe costs) to
    /// this rank's clock, attributing them to the comm ledger.
    pub(crate) fn charge_comm(&self, seconds: f64) {
        self.clock.charge(seconds);
        self.uni.recorder.add_comm(self.world_rank(), seconds);
    }

    fn check_alive(&self) {
        if self.uni.is_aborted() {
            std::panic::panic_any(AbortedPanic { rank: self.rank() });
        }
    }

    /// Charge any injected stall for one message operation on this rank.
    fn inject_op_stall(&self) {
        let s = self.uni.faults().op_stall(self.world_rank());
        if s > 0.0 {
            self.charge_comm(s);
        }
    }

    // ---- point-to-point ---------------------------------------------------

    /// Block until an envelope from `src` on `tag` arrives, after charging
    /// any injected per-operation stall. Registers the wait with the
    /// deadlock watch when a collective timeout is configured.
    fn take_envelope(&self, src: SrcSel, tag: u64) -> Envelope {
        self.check_alive();
        self.inject_op_stall();
        let me_w = self.world_rank();
        let mb = &self.uni.mailboxes[me_w];
        let dl = &self.uni.deadlock;
        let result = match dl.timeout {
            None => mb.take_until(self.ctx, src, tag, &self.uni.aborted, None),
            Some(window) => {
                *dl.waits[me_w].lock() = Some(WaitDesc {
                    ctx: self.ctx,
                    src: match src {
                        SrcSel::Exact(s) => Some(s),
                        SrcSel::Any => None,
                    },
                    tag,
                });
                dl.blocked.fetch_add(1, Ordering::SeqCst);
                let r = self.take_watched(src, tag, window);
                dl.blocked.fetch_sub(1, Ordering::SeqCst);
                *dl.waits[me_w].lock() = None;
                r
            }
        };
        match result {
            TakeResult::Got(env) => {
                if dl.timeout.is_some() {
                    dl.progress.fetch_add(1, Ordering::SeqCst);
                }
                env
            }
            TakeResult::Aborted | TakeResult::TimedOut => {
                std::panic::panic_any(AbortedPanic { rank: self.rank() })
            }
        }
    }

    /// Deadline-probing take used by the collective-timeout detector: if
    /// every rank in the world stays blocked in a receive and no envelope
    /// is delivered or taken for a full `window`, the run is provably
    /// deadlocked — raise a diagnostic instead of hanging forever.
    fn take_watched(&self, src: SrcSel, tag: u64, window: Duration) -> TakeResult {
        let mb = &self.uni.mailboxes[self.world_rank()];
        let dl = &self.uni.deadlock;
        let mut progress_snapshot = dl.progress.load(Ordering::SeqCst);
        loop {
            let deadline = Instant::now() + window;
            match mb.take_until(self.ctx, src, tag, &self.uni.aborted, Some(deadline)) {
                TakeResult::TimedOut => {
                    let progress_now = dl.progress.load(Ordering::SeqCst);
                    let all_blocked =
                        dl.blocked.load(Ordering::SeqCst) == self.uni.topology().world_size();
                    if all_blocked && progress_now == progress_snapshot {
                        self.raise_deadlock(window);
                    }
                    progress_snapshot = progress_now;
                }
                other => return other,
            }
        }
    }

    /// Record a completed receive with the happens-before checker.
    /// `wildcard` marks any-source matching whose order nondeterminism is a
    /// real program property (see [`crate::check`]).
    fn note_recv(&self, env: &Envelope, wildcard: bool) {
        self.uni.checker().on_recv(
            self.world_rank(),
            env.ctx,
            env.tag,
            env.src,
            env.stamp.as_ref(),
            wildcard,
        );
    }

    /// Build and raise the deadlock report. Only the first detecting rank
    /// raises [`DeadlockError`]; the abort it triggers unwinds the rest
    /// with [`AbortedPanic`], so the diagnostic surfaces from the runtime.
    #[cold]
    fn raise_deadlock(&self, window: Duration) -> ! {
        use std::fmt::Write as _;
        let dl = &self.uni.deadlock;
        let mut slot = dl.report.lock();
        if slot.is_some() {
            drop(slot);
            std::panic::panic_any(AbortedPanic { rank: self.rank() });
        }
        let p = self.uni.topology().world_size();
        let mut rep = String::new();
        let _ = writeln!(
            rep,
            "all {p} ranks blocked with no message progress for {window:?} \
             (detected by world rank {})",
            self.world_rank()
        );
        for r in 0..p {
            let wait = dl.waits[r].lock().clone();
            let phase = dl.last_phase[r].lock().clone();
            let pending = self.uni.mailboxes[r].snapshot();
            let wait_s = match wait {
                Some(w) => format!(
                    "waiting on ctx {} for {} from {}",
                    w.ctx,
                    describe_tag(w.tag),
                    w.src
                        .map_or_else(|| "any source".to_string(), |s| format!("world rank {s}")),
                ),
                None => "not blocked in a receive (finished, or outside messaging)".to_string(),
            };
            let _ = writeln!(
                rep,
                "  rank {r}: {wait_s}; last phase: {}; {} pending envelope(s)",
                if phase.is_empty() { "<none>" } else { &phase },
                pending.len()
            );
            for &(ctx, src, tag, bytes) in pending.iter().take(8) {
                let _ = writeln!(
                    rep,
                    "    pending: ctx {ctx} from rank {src}, {} ({bytes} B)",
                    describe_tag(tag)
                );
            }
            if pending.len() > 8 {
                let _ = writeln!(rep, "    ... and {} more", pending.len() - 8);
            }
        }
        *slot = Some(rep.clone());
        drop(slot);
        self.uni.abort();
        std::panic::panic_any(DeadlockError { report: rep });
    }

    fn open_envelope<T: Wire>(&self, env: Envelope) -> (usize, Vec<T>) {
        self.clock.advance_to(env.arrival);
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

    /// Blocking any-source receive on `tag`. `wildcard` tells the
    /// happens-before checker whether the match order is a real program
    /// property or, as in the async exchange, insensitive by protocol.
    fn recv_any_matching<T: Wire>(&self, tag: u64, wildcard: bool) -> (usize, Vec<T>) {
        // Any-source matching only considers members of this communicator;
        // ctx filtering in the mailbox guarantees that.
        let env = self.take_envelope(SrcSel::Any, tag);
        self.note_recv(&env, wildcard);
        self.open_envelope(env)
    }

    /// Blocking receive from any source on a user `tag`; returns
    /// `(src_comm_rank, data)`. The happens-before checker reports the
    /// match order as a possible source of nondeterminism.
    pub fn recv_any<T: Wire>(&self, tag: u64) -> (usize, Vec<T>) {
        ::comm::assert_user_tag(tag);
        self.recv_any_matching(tag, true)
    }
}

/// The simulator's substrate. Every collective is the trait's provided
/// method (the shared body in `comm::raw`); per-message virtual-time
/// charging, fault injection, deadlock watching and happens-before
/// stamping all live in the reserved-tag send/recv below.
impl Communicator for Comm {
    fn group(&self) -> &Group {
        &self.group
    }

    fn cores_per_node(&self) -> usize {
        self.uni.topology().cores_per_node()
    }

    fn node(&self) -> usize {
        self.uni.topology().node_of(self.world_rank())
    }

    fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Run `f`, measure its host time, and charge it (scaled by any
    /// injected slowdown) to the virtual clock.
    fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        let before = self.clock.now();
        let r = self.clock.measure(f);
        let factor = self.uni.faults().compute_factor(self.world_rank());
        if factor != 1.0 {
            // Slowed rank: the same work takes `factor` times as long.
            let dt = self.clock.now() - before;
            self.clock.charge(dt * (factor - 1.0));
        }
        self.uni
            .recorder
            .add_compute(self.world_rank(), self.clock.now() - before);
        r
    }

    fn charge_compute(&self, seconds: f64) {
        let seconds = seconds * self.uni.faults().compute_factor(self.world_rank());
        self.clock.charge(seconds);
        self.uni.recorder.add_compute(self.world_rank(), seconds);
    }

    fn charge_async_poll(&self, outstanding: usize) {
        self.charge_comm(self.uni.net().async_test_overhead * outstanding as f64);
    }

    /// Attribute subsequent traced traffic (tracer matrices and telemetry
    /// phase totals) to the named phase.
    fn trace_phase(&self, name: &str) {
        self.uni.tracer.set_phase(name);
        self.uni.recorder.set_phase(name);
        if self.uni.deadlock.timeout.is_some() {
            *self.uni.deadlock.last_phase[self.world_rank()].lock() = name.to_string();
        }
        self.uni.checker().on_phase(self.world_rank(), name);
    }

    fn recorder(&self) -> &telemetry::Recorder {
        &self.uni.recorder
    }

    /// Two ranks touching the same key with no synchronization edge between
    /// them (a message path or collective) are reported as a race at world
    /// exit; see [`crate::check`]. No-op unless the world checks.
    fn check_shared_read(&self, key: &str) {
        self.uni.checker().on_shared_read(self.world_rank(), key);
    }

    fn check_shared_write(&self, key: &str) {
        self.uni.checker().on_shared_write(self.world_rank(), key);
    }

    /// Reserve simulated memory. Under a memory-pressure fault ramp, part
    /// of the budget is withheld and the headroom shrinks over virtual time.
    fn try_alloc(&self, bytes: usize) -> Result<(), OomError> {
        let withheld = self.uni.faults().withheld(
            self.world_rank(),
            self.clock.now(),
            self.uni.memory().budget(),
        );
        let res = self
            .uni
            .memory()
            .try_alloc_reserved(self.world_rank(), bytes, withheld);
        if self.uni.recorder.enabled() {
            if let Err(e) = &res {
                self.uni.recorder.count("mem.oom", 1);
                self.event(
                    "oom",
                    &format!("requested {} with {} available", e.requested, e.available),
                );
            }
            self.uni.recorder.gauge_max(
                "mem.high_water",
                self.uni.memory().high_water(self.world_rank()) as f64,
            );
        }
        res
    }

    fn free(&self, bytes: usize) {
        self.uni.memory().free(self.world_rank(), bytes);
    }

    /// Usage against the *effective* budget (budget minus fault-withheld
    /// bytes), so drivers can degrade before an allocation actually fails.
    fn memory_pressure_with(&self, extra: usize) -> f64 {
        let budget = self.uni.memory().budget();
        if budget == usize::MAX {
            return 0.0;
        }
        let withheld = self
            .uni
            .faults()
            .withheld(self.world_rank(), self.clock.now(), budget);
        let effective = budget.saturating_sub(withheld).max(1);
        self.uni
            .memory()
            .used(self.world_rank())
            .saturating_add(extra) as f64
            / effective as f64
    }

    /// Buffered send: the sender's clock is charged the injection cost and
    /// the envelope carries its modelled arrival time.
    fn send_raw<T: Wire>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.check_alive();
        self.inject_op_stall();
        let bytes = std::mem::size_of::<T>() * data.len();
        let src_w = self.world_rank();
        let dst_w = self.world_rank_of(dst);
        let topo = self.uni.topology();
        let net = self.uni.net();
        let (inject, transit, reorder_depth) = match self.uni.faults().message(src_w, dst_w) {
            Some(mf) => {
                let (i, t) = net.perturbed_times(topo, src_w, dst_w, bytes, &mf);
                (i, t, mf.reorder_depth)
            }
            None => (
                net.inject_time(topo, src_w, dst_w, bytes),
                net.transit_time(topo, src_w, dst_w, bytes),
                0,
            ),
        };
        self.charge_comm(inject);
        let arrival = self.clock.now() + transit;
        self.uni.stats().record(bytes);
        self.uni.tracer.record(src_w, dst_w, bytes);
        self.uni.recorder.on_send(src_w, dst_w, bytes);
        let stamp = self.uni.checker().on_send(src_w, dst_w, self.ctx, tag);
        self.uni.mailboxes[dst_w].push_reordered(
            Envelope {
                ctx: self.ctx,
                src: src_w,
                tag,
                data: Box::new(data),
                bytes,
                arrival,
                stamp,
            },
            reorder_depth,
        );
        if self.uni.deadlock.timeout.is_some() {
            self.uni.deadlock.progress.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn recv_vec_raw<T: Wire>(&self, src: usize, tag: u64) -> Vec<T> {
        let env = self.take_envelope(SrcSel::Exact(self.world_rank_of(src)), tag);
        self.note_recv(&env, false);
        self.open_envelope(env).1
    }

    /// The async exchange keys chunks by source and hard-asserts against
    /// duplicates, so its any-source matching is order-insensitive by
    /// protocol: the happens-before edges are recorded, but no wildcard
    /// nondeterminism is reported.
    fn recv_any_raw<T: Wire>(&self, tag: u64) -> (usize, Vec<T>) {
        self.recv_any_matching(tag, false)
    }

    fn try_recv_any_raw<T: Wire>(&self, tag: u64) -> Option<(usize, Vec<T>)> {
        self.check_alive();
        let mb = &self.uni.mailboxes[self.world_rank()];
        mb.try_take(self.ctx, SrcSel::Any, tag).map(|env| {
            self.note_recv(&env, false);
            self.open_envelope(env)
        })
    }

    /// The child communicator shares this rank's virtual clock.
    fn split(&self, color: Option<i64>, key: i64) -> Option<Comm> {
        let child = raw::split_group(self, color, key)?;
        let ctx = self.uni.context_for_split(self.ctx, child.seq, child.color);
        Some(Comm::new(
            Arc::clone(&self.uni),
            ctx,
            child.group,
            self.clock_rc(),
        ))
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("ctx", &self.ctx)
            .field("rank", &self.rank())
            .field("size", &self.size())
            .field("world_rank", &self.world_rank())
            .finish()
    }
}
