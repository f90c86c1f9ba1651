//! The CMP system orchestrator: the cycle kernel tying cores, L1s, write
//! buffers, L2s, the snoopy bus and memory together.
//!
//! # Cycle structure
//!
//! 1. fire due events (load completions, L2 responses, fills, TC/TD
//!    grants),
//! 2. grant at most one bus transaction (the bus serialises coherence),
//!    performing the snoop across all other L2s at grant time,
//! 3. per core: advance the decay clock, retry deferred turn-offs, serve
//!    the L2 ports (L1 read misses first, then write-buffer drains),
//! 4. tick the cores (dispatch instructions, issue loads/stores into the
//!    L1 / write buffer through [`CorePort`] adapters),
//! 5. sample the activity trace.
//!
//! Everything is deterministic: FIFO bus arbitration, fixed core order,
//! a FIFO-per-cycle event queue.
//!
//! # Kernels
//!
//! Two kernels drive the loop ([`SimKernel`]), producing **bit-identical**
//! statistics:
//!
//! * **per-cycle** — one [`step_cycle`](CmpSystem) per simulated cycle,
//!   the reference;
//! * **quiescence-skipping** (default) — while the worklist engine's
//!   active set is empty (every core asleep; see "Engines"), nothing can
//!   act before the next *wake edge*: the earliest of the next event,
//!   the bus's next possible grant, the sleeping cores' earliest decay
//!   deadline, the bus/memory drain horizon (where the drain check can
//!   flip), the sampling interval's last cycle (its close runs in a
//!   stepped cycle) and the cycle cap. The kernel jumps `now` straight
//!   to that edge. The cores stay asleep through the jump, so their
//!   window stalls are settled when they wake, like any other sleep. A
//!   stepped cycle with every core asleep and no edge due only samples,
//!   so the jump is exact; bit-identity is enforced by
//!   `tests/kernel_differential.rs` and the golden sweep snapshot. The
//!   full scan has no active set, so it steps every cycle under either
//!   kernel.
//!
//! # Engines
//!
//! Orthogonally to the kernel, two *engines* execute a stepped cycle
//! ([`CycleEngine`]), again bit-identical:
//!
//! * **full scan** — the reference, with no shortcut: every stepped
//!   cycle arbitrates the bus, runs every core's L2 phase and tick, and
//!   sums every cache's powered lines into the interval trace;
//! * **worklist** (default) — an awake-core bitmask limits phases 3 and
//!   4 to cores that can make progress. A core leaves the active set at
//!   the end of a cycle when its phases are provably no-ops until a
//!   wake edge ([`CmpSystem::sleep_state`]: out of budget or
//!   window-blocked, with an empty L2 read queue, an empty write buffer
//!   and no deferred turn-off). A core spinning on a refused load or
//!   store, or with anything queued for its L2, stays awake and is
//!   stepped like the reference. A sleeping core re-enters on its own
//!   events, at its next decay deadline, and at finalize; on wake a
//!   window-blocked core is bulk-charged the window stalls its skipped
//!   ticks would have accrued. A bus grant wakes no core: its snoops
//!   touch only the snooped cores' tags, MSHR race flags, line
//!   power/decay state and stats, and emit write-backs, L1
//!   back-invalidations and `Grant` events (an own event of the snooped
//!   core), and the origin's upgrade or fill start touches only its own
//!   L2 and pushes its own `DataReady` — none of them an input of a
//!   sleeping core's `sleep_state`. Waking a core spuriously is always
//!   harmless — the reference runs every core's phases every cycle, and
//!   a blocked core's phases change nothing but that charge — so only a
//!   *missed* wake could break equivalence. Debug builds check this at
//!   every kernel jump and after every bus grant: each sleeping core's
//!   state must still match what it recorded when it fell asleep. The
//!   interval trace's powered-lines integral is read
//!   from the line-state banks' on-cycle books at each interval close,
//!   so the engine differentials compare those books with the full
//!   scan's per-cycle sums on every interval. Equivalence is enforced
//!   by `tests/cycle_engine_differential.rs` and the golden sweep
//!   snapshot.
//!
//! # Spine gating
//!
//! No per-cycle phase is gated beyond the worklist's sleep set. Every
//! stepped cycle calls `SharedBus::try_grant`, which returns `None` while
//! the bus is occupied or its queue is empty
//! ([`SharedBus::next_possible_grant`] is only the skip kernel's bus wake
//! edge), and every awake core runs its L2 phase, whose port loops stop
//! at the first empty queue. The only state the worklist engine caches
//! is its sleep set (with `next_core_wake`); the drain check reads the
//! components afresh on every loop iteration. Debug builds assert that no
//! decay tick is left past its deadline whenever an L2 phase runs, and
//! check L1 ⊆ L2 inclusion at every interval close.

use crate::bus::{BusReq, BusReqKind, SharedBus};
use crate::config::{CmpConfig, CycleEngine, SimKernel};
use crate::l1::{L1Cache, L1LoadOutcome, PendingLoad};
use crate::l2::{L2Cache, L2ReadOutcome, L2WriteOutcome, SideEffects, UpgradeResult};
use crate::stats::{IntervalActivity, LargerSizes, SimStats};
use cmpleak_coherence::bus::SnoopKind;
use cmpleak_cpu::{CoreModel, CorePort, ProgressState, TraceOp, Workload};
use cmpleak_mem::{ArenaStats, BankArena, Geometry, LineAddr, WriteBuffer};
use cmpleak_trace::MemTraceCursor;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    /// An L1 load hit completes.
    L1Hit { core: usize, id: u64, issued_at: u64 },
    /// An L2 read hit's response reaches the L1.
    L2ReadDone { core: usize, line: LineAddr },
    /// A miss's data arrives at the requesting L2.
    DataReady { core: usize, line: LineAddr, shared: bool },
    /// An upper-level invalidation acknowledges (TC/TD Grant).
    Grant { core: usize, slot: usize, line: LineAddr },
}

impl EvKind {
    /// The core whose state this event mutates — every event kind is
    /// addressed to exactly one core (the worklist engine's own-event
    /// wake edge relies on this).
    #[inline]
    fn core(&self) -> usize {
        match *self {
            EvKind::L1Hit { core, .. }
            | EvKind::L2ReadDone { core, .. }
            | EvKind::DataReady { core, .. }
            | EvKind::Grant { core, .. } => core,
        }
    }
}

/// One core's op stream, enum-dispatched: the hot [`CoreModel::tick`]
/// fetch monomorphizes over this type, so trace replay — the path every
/// sweep cell and every replayed trace file takes — inlines its
/// `next_op`, and a live generator pays one virtual call.
//
// The size skew is deliberate: `MemTraceCursor` carries its decode
// batch inline, and there is exactly one `CoreSource` per core, so
// keeping the batch in-variant (rather than boxing it) saves a pointer
// chase per fetched op at the cost of a few KiB per core.
#[allow(clippy::large_enum_variant)]
pub enum CoreSource {
    /// A live workload generator.
    Live(Box<dyn Workload>),
    /// A replay cursor over a recorded trace.
    Trace(MemTraceCursor),
}

impl CoreSource {
    /// A copy positioned where this feed is, if it replays a trace: a
    /// live generator cannot be copied.
    fn try_clone(&self) -> Option<CoreSource> {
        match self {
            CoreSource::Trace(cursor) => Some(CoreSource::Trace(cursor.clone())),
            CoreSource::Live(_) => None,
        }
    }
}

impl std::fmt::Debug for CoreSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreSource::Live(s) => f.debug_tuple("Live").field(&s.name()).finish(),
            CoreSource::Trace(s) => f.debug_tuple("Trace").field(s).finish(),
        }
    }
}

impl Workload for CoreSource {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        match self {
            CoreSource::Live(s) => s.next_op(),
            CoreSource::Trace(s) => s.next_op(),
        }
    }

    fn name(&self) -> &str {
        match self {
            CoreSource::Live(s) => s.name(),
            CoreSource::Trace(s) => s.name(),
        }
    }
}

/// Deferred accounting for a core outside the active set. `since` is
/// the first cycle whose phases were skipped; on wake at cycle `w`, the
/// span `w - since` is bulk-charged what `w - since` stepped cycles of
/// the blocked core would have charged ([`CmpSystem::settle_core`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CoreSleep {
    since: u64,
    /// Window-blocked behind an incomplete load ([`ProgressState`] at
    /// sleep time): one window stall per cycle. Otherwise the core is
    /// out of budget and nothing accrues.
    window: bool,
    /// The L2's next decay deadline at sleep time (frozen while
    /// asleep): the core must be back in the active set by then so its
    /// decay ticks are processed on time.
    decay_at: Option<u64>,
}

/// Cycle-cost attribution counters of one run. All recording is
/// compiled out unless the `cycle-profile` cargo feature is enabled, so
/// the default build pays nothing; with the feature on, the counters
/// say where the per-cycle budget went — cycles stepped vs skipped in
/// bulk, per-core phases (one core's L2 port loop + tick in one stepped
/// cycle) executed vs suppressed by the worklist, events popped and bus
/// grants. Diagnostic only: never part of [`SimStats`] or the
/// bit-identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleProfile {
    /// Cycles executed by `step_cycle`.
    pub cycles_stepped: u64,
    /// Cycles advanced in bulk by the quiescence-skip kernel.
    pub cycles_skipped: u64,
    /// Events delivered.
    pub events_popped: u64,
    /// Successful bus grants (including conflict NACK-retries).
    pub bus_grants: u64,
    /// Per-core phases executed in stepped cycles.
    pub core_phases_run: u64,
    /// Per-core phases suppressed by the worklist engine (the core was
    /// outside the active set).
    pub core_phases_suppressed: u64,
    /// Stepped cycles where bus arbitration found nothing to grant
    /// (the bus was occupied or its queue empty).
    pub grant_checks_skipped: u64,
    /// Always 0 (every awake core runs its L2 phase); kept because
    /// perfbench reads it.
    pub port_loops_skipped: u64,
    /// Always 0; kept because perfbench reads it.
    pub cycles_batched: u64,
}

impl CycleProfile {
    #[inline]
    fn on_step(&mut self, run: u64, suppressed: u64) {
        #[cfg(feature = "cycle-profile")]
        {
            self.cycles_stepped += 1;
            self.core_phases_run += run;
            self.core_phases_suppressed += suppressed;
        }
        #[cfg(not(feature = "cycle-profile"))]
        let _ = (run, suppressed);
    }

    #[inline]
    fn on_skip(&mut self, span: u64) {
        #[cfg(feature = "cycle-profile")]
        {
            self.cycles_skipped += span;
        }
        #[cfg(not(feature = "cycle-profile"))]
        let _ = span;
    }

    #[inline]
    fn on_event(&mut self) {
        #[cfg(feature = "cycle-profile")]
        {
            self.events_popped += 1;
        }
    }

    #[inline]
    fn on_grant(&mut self) {
        #[cfg(feature = "cycle-profile")]
        {
            self.bus_grants += 1;
        }
    }

    #[inline]
    fn on_grant_skip(&mut self) {
        #[cfg(feature = "cycle-profile")]
        {
            self.grant_checks_skipped += 1;
        }
    }
}

/// Push counters of the event queue. Diagnostic only: they never enter
/// `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Events pushed.
    pub ring_pushes: u64,
    /// Always 0: the queue has one tier; kept because perfbench's traced
    /// build reads it for `system.evq.overflow_frac`.
    pub overflow_pushes: u64,
}

/// Delayed event queue: one deque kept in `(cycle, push)` order, so the
/// events of one cycle pop in push (FIFO) order — the order of a heap
/// keyed by `(cycle, push sequence)`.
///
/// It holds few events: on the benchmark grids a push finds 5–6 queued
/// on average and at most ~350. A push walks back from the tail past
/// the later events (about 3 on average: far `DataReady` fills sit at
/// the tail, so only ~15 % of pushes are plain appends) and inserts
/// there; `next_at` and `pop_due` read the front.
#[derive(Debug, Default, Clone)]
struct EventQueue {
    queue: VecDeque<(u64, EvKind)>,
    /// Events pushed since the last reset.
    pushes: u64,
    /// Cycle of the latest `pop_due`: no event may be scheduled before
    /// it.
    popped_at: u64,
}

impl EventQueue {
    /// Empty the queue for reuse, keeping its allocation.
    fn reset(&mut self) {
        self.queue.clear();
        self.pushes = 0;
        self.popped_at = 0;
    }

    /// Push counters of the current (or last completed) run.
    fn stats(&self) -> EventQueueStats {
        EventQueueStats { ring_pushes: self.pushes, overflow_pushes: 0 }
    }

    fn push(&mut self, at: u64, kind: EvKind) {
        debug_assert!(at >= self.popped_at, "events are never scheduled in the past");
        self.pushes += 1;
        // Insert after the last event not later than `at` (`<=`, not
        // `<`): ties stay FIFO.
        let i = self.queue.iter().rposition(|&(t, _)| t <= at).map_or(0, |i| i + 1);
        self.queue.insert(i, (at, kind));
    }

    /// Put `kind`, popped at cycle `at` and not yet handled, back at the
    /// front: it pops first again, ahead of the rest of its cycle.
    fn push_front(&mut self, at: u64, kind: EvKind) {
        debug_assert!(
            self.queue.front().is_none_or(|&(t, _)| t >= at),
            "pushed back behind a later event"
        );
        self.queue.push_front((at, kind));
    }

    /// Earliest pending event cycle (the skip kernel's event wakeup).
    #[inline]
    fn next_at(&self) -> Option<u64> {
        self.queue.front().map(|&(at, _)| at)
    }

    fn pop_due(&mut self, now: u64) -> Option<EvKind> {
        self.popped_at = now;
        match self.queue.front() {
            Some(&(at, _)) if at <= now => self.queue.pop_front().map(|(_, kind)| kind),
            _ => None,
        }
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// How a batch of L2 side effects reached the system, deciding the
/// transport of write-backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WbRoute {
    /// Snoop flush: the data phase rides the in-progress bus transaction;
    /// only the memory channel is charged.
    SnoopFlush,
    /// Victim eviction or turn-off: a separate bus transaction is queued.
    Queued,
}

/// Adapter giving one core a view of its L1 and write buffer for a cycle.
struct PortAdapter<'a> {
    now: u64,
    core: usize,
    geom: Geometry,
    l1_hit_latency: u64,
    l1: &'a mut L1Cache,
    wb: &'a mut WriteBuffer,
    read_queue: &'a mut VecDeque<LineAddr>,
    events: &'a mut EventQueue,
}

impl CorePort for PortAdapter<'_> {
    fn try_load(&mut self, addr: u64, id: u64) -> bool {
        let line = self.geom.line_of(addr);
        match self.l1.access_load(line, PendingLoad { id, issued_at: self.now }) {
            L1LoadOutcome::Hit => {
                self.events.push(
                    self.now + self.l1_hit_latency,
                    EvKind::L1Hit { core: self.core, id, issued_at: self.now },
                );
                true
            }
            L1LoadOutcome::MissPrimary => {
                self.read_queue.push_back(line);
                true
            }
            L1LoadOutcome::MissSecondary => true,
            L1LoadOutcome::Refused => false,
        }
    }

    fn try_store(&mut self, addr: u64) -> bool {
        let line = self.geom.line_of(addr);
        if !self.wb.push(line) {
            return false;
        }
        self.l1.access_store(line);
        true
    }
}

/// Snapshot of cumulative counters for interval differencing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Snapshot {
    instructions: u64,
    l1_accesses: u64,
    l2_reads: u64,
    l2_writes: u64,
    bus_transactions: u64,
    bus_bytes: u64,
    mem_bytes: u64,
    decay_events: u64,
}

/// Reusable allocation pools for repeated simulations (e.g. one per
/// sweep worker): the event queue, the side-effect buffers, the
/// per-core queues *and* the multi-MB per-line columns (tag arrays,
/// line-state banks, shadow directories — via the [`BankArena`])
/// survive across runs instead of being reallocated for every grid
/// cell. Pass to [`run_feeds_with_scratch`]; a
/// default-constructed scratch is simply empty pools.
#[derive(Debug, Default)]
pub struct SimScratch {
    events: EventQueue,
    fx: SideEffects,
    read_queues: Vec<VecDeque<LineAddr>>,
    arena: BankArena,
    profile: CycleProfile,
}

impl SimScratch {
    /// Allocation counters of the per-line-state arena (how many column
    /// checkouts were served from the pool vs. freshly allocated).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Push counters of the event queue from the most recently
    /// *completed* run (the queue is handed back on reclaim and its
    /// counters reset when the next run starts).
    pub fn event_queue_stats(&self) -> EventQueueStats {
        self.events.stats()
    }

    /// Cycle-cost attribution counters of the most recently *completed*
    /// run (all zero unless the `cycle-profile` feature is enabled).
    pub fn cycle_profile(&self) -> CycleProfile {
        self.profile
    }
}

/// The simulated CMP, built and run by [`run_feeds_with_scratch`].
struct CmpSystem {
    cfg: CmpConfig,
    now: u64,
    cores: Vec<CoreModel>,
    /// Per-core op streams, enum-dispatched ([`CoreSource`]) so the hot
    /// fetch inlines.
    sources: Vec<CoreSource>,
    l1s: Vec<L1Cache>,
    wbs: Vec<WriteBuffer>,
    l2s: Vec<L2Cache>,
    bus: SharedBus,
    /// The L1 geometry, built once: every tick slices addresses with it.
    l1_geom: Geometry,
    events: EventQueue,
    read_queues: Vec<VecDeque<LineAddr>>,
    fx: SideEffects,
    /// Owns the caches' per-line columns between runs; adopted from the
    /// scratch at construction, handed back (with the columns released)
    /// at reclaim.
    arena: BankArena,
    // accounting
    loads_completed: u64,
    load_latency_sum: u64,
    c2c_transfers: u64,
    upper_invalidations: u64,
    trace: Vec<IntervalActivity>,
    last_snap: Snapshot,
    /// The full scan's per-cycle Σ powered lines over the open interval.
    interval_powered: u64,
    /// The worklist engine's Σ on-cycles of the banks at the open
    /// interval's start ([`CmpSystem::on_line_cycles`]).
    interval_on_at_start: u64,
    interval_start: u64,
    // ---- worklist engine state (see the module docs, "Engines") ----
    /// Whether the configured engine is [`CycleEngine::Worklist`].
    worklist: bool,
    /// One bit per core in the active set. Ground truth for sleep
    /// state; `sleep[c]` is meaningful only while bit `c` is clear.
    awake: u64,
    /// All `n_cores` bits set.
    all_mask: u64,
    /// Deferred accounting of sleeping cores.
    sleep: Vec<CoreSleep>,
    /// Earliest decay deadline over the sleeping cores (`u64::MAX` when
    /// none): reaching it triggers a due-deadline scan so decay ticks
    /// are processed exactly on time. May be stale-low after a wake —
    /// the scan then recomputes it.
    next_core_wake: u64,
    /// Σ lines over all L2s, cached at construction (pure geometry).
    lines_total: u64,
    /// Cycle-cost attribution (no-op unless the `cycle-profile` feature
    /// is on).
    profile: CycleProfile,
    /// Whether this run may still fork a run at its L2s' first larger
    /// shadowed size ([`CmpSystem::fork_before`]): it shadows larger
    /// sizes and has not yet made a fill that found its set full.
    may_fork: bool,
    /// The run forked at the first full-set fill, suspended there.
    fork: Option<Box<CmpSystem>>,
}

impl CmpSystem {
    /// Build a system over per-core [`CoreSource`] feeds, adopting the
    /// reusable pools of `scratch` (emptied, allocations kept);
    /// [`CmpSystem::reclaim_scratch`] returns them when the run
    /// finishes. Each L2 also shadows the per-core sizes
    /// `larger_l2_bytes` ([`L2Cache::shadow_larger_sizes`]).
    fn with_feeds(
        cfg: CmpConfig,
        sources: Vec<CoreSource>,
        larger_l2_bytes: &[usize],
        scratch: &mut SimScratch,
    ) -> Self {
        assert_eq!(sources.len(), cfg.n_cores, "one op source per core");
        cfg.validate();
        let cores =
            (0..cfg.n_cores).map(|_| CoreModel::new(cfg.core, cfg.instructions_per_core)).collect();
        let mut arena = std::mem::take(&mut scratch.arena);
        let l1s = (0..cfg.n_cores).map(|_| L1Cache::new_in(&cfg.l1, &mut arena)).collect();
        let wbs = (0..cfg.n_cores).map(|_| WriteBuffer::new(cfg.l1.write_buffer)).collect();
        let l2s: Vec<L2Cache> = (0..cfg.n_cores)
            .map(|_| {
                let mut l2 = L2Cache::new_in(&cfg.l2, cfg.technique, &mut arena);
                l2.shadow_larger_sizes(larger_l2_bytes, &mut arena);
                l2
            })
            .collect();
        let bus = SharedBus::new(cfg.bus, cfg.mem, cfg.l2.line_bytes);
        let worklist = cfg.engine == CycleEngine::Worklist;
        // `validate` bounds `n_cores` to `1..=MAX_CORES` (64): every core
        // mask is one machine word.
        let all_mask = u64::MAX >> (64 - cfg.n_cores);
        let lines_total = l2s.iter().map(|l| l.geometry().lines() as u64).sum();
        let mut events = std::mem::take(&mut scratch.events);
        events.reset();
        let mut fx = std::mem::take(&mut scratch.fx);
        fx.clear();
        let mut read_queues = std::mem::take(&mut scratch.read_queues);
        read_queues.iter_mut().for_each(VecDeque::clear);
        read_queues.resize_with(cfg.n_cores, VecDeque::new);
        Self {
            now: 0,
            cores,
            sources,
            l1s,
            wbs,
            l2s,
            bus,
            l1_geom: cfg.l1.geometry(),
            events,
            read_queues,
            fx,
            loads_completed: 0,
            load_latency_sum: 0,
            c2c_transfers: 0,
            upper_invalidations: 0,
            trace: Vec::new(),
            last_snap: Snapshot::default(),
            interval_powered: 0,
            interval_on_at_start: 0,
            interval_start: 0,
            worklist,
            awake: all_mask,
            all_mask,
            sleep: vec![CoreSleep::default(); cfg.n_cores],
            next_core_wake: u64::MAX,
            lines_total,
            profile: CycleProfile::default(),
            may_fork: !larger_l2_bytes.is_empty(),
            fork: None,
            arena,
            cfg,
        }
    }

    /// Run to completion (all cores drained, all queues empty) or to the
    /// configured cycle cap.
    fn run_loop(&mut self) {
        // Only the worklist engine has an active set to be empty; the
        // full scan steps every cycle under either kernel.
        let skip = self.cfg.kernel == SimKernel::QuiescenceSkip && self.worklist;
        while !self.done() && self.now < self.cfg.max_cycles {
            if skip && self.awake == 0 {
                let wake = self.next_wake_edge();
                if wake > self.now {
                    self.jump_to(wake);
                    continue;
                }
            }
            self.step_cycle();
        }
    }

    /// Drain check: every core drained, every queue empty, no event
    /// pending, and the bus and memory channel idle.
    fn done(&self) -> bool {
        self.cores.iter().all(|c| c.drained())
            && self.wbs.iter().all(|w| w.is_empty())
            && self.read_queues.iter().all(|q| q.is_empty())
            && self.l1s.iter().all(|l| l.outstanding_misses() == 0)
            && self.l2s.iter().all(|l| !l.busy())
            && self.events.is_empty()
            && self.bus.idle(self.now)
    }

    fn step_cycle(&mut self) {
        if self.worklist {
            self.step_cycle_worklist()
        } else {
            self.step_cycle_scan()
        }
    }

    /// The reference engine, with no shortcut: every stepped cycle
    /// arbitrates the bus, runs every core's L2 phase and tick, and sums
    /// the powered lines of every cache.
    fn step_cycle_scan(&mut self) {
        while let Some(ev) = self.events.pop_due(self.now) {
            self.profile.on_event();
            self.handle_event(ev);
        }
        if self.bus_grant() {
            self.profile.on_grant();
        } else {
            self.profile.on_grant_skip();
        }
        for core in 0..self.cfg.n_cores {
            self.l2_cycle(core);
        }
        for core in 0..self.cfg.n_cores {
            self.tick_core(core);
        }
        self.profile.on_step(self.cfg.n_cores as u64, 0);
        self.sample_cycle();
        self.now += 1;
    }

    /// The worklist engine: phases 3 and 4 visit only the active set.
    /// Bit-identical to [`CmpSystem::step_cycle_scan`] — a core outside
    /// the set would have contributed nothing but its per-cycle window
    /// stalls, which are settled in bulk when it wakes. See the module
    /// docs ("Engines") for the invariants.
    fn step_cycle_worklist(&mut self) {
        // Every event is addressed to one core and mutates only that
        // core's state: wake it (settling its deferred charges) before
        // delivery.
        while let Some(ev) = self.events.pop_due(self.now) {
            self.profile.on_event();
            self.wake(ev.core());
            self.handle_event(ev);
        }
        // A grant wakes no core: nothing it touches is an input of a
        // sleeping core's `sleep_state` (module docs, "Engines").
        if self.bus_grant() {
            self.profile.on_grant();
            self.debug_check_frozen_sleeps();
        } else {
            self.profile.on_grant_skip();
        }
        // Sleeping cores skip their L2 phase, so their decay clocks are
        // processed exactly at the deadline recorded when they slept
        // (frozen while asleep: only own phases and snoops move it).
        if self.now >= self.next_core_wake {
            self.wake_due_decays();
        }
        let mut pending = self.awake;
        while pending != 0 {
            let core = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            self.l2_cycle(core);
        }
        let mut pending = self.awake;
        while pending != 0 {
            let core = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            self.tick_core(core);
        }
        let run = self.awake.count_ones() as u64;
        self.profile.on_step(run, self.cfg.n_cores as u64 - run);
        let mut pending = self.awake;
        while pending != 0 {
            let core = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            self.try_sleep(core);
        }
        if self.now + 1 - self.interval_start >= self.cfg.sample_interval {
            self.close_interval(self.now + 1);
        }
        self.now += 1;
    }

    // ---- worklist engine --------------------------------------------------

    /// Charge a sleeping core the per-cycle statistics its skipped ticks
    /// would have accrued, over every skipped cycle — stepped cycles it
    /// slept through and kernel jumps alike: one window stall per cycle
    /// if it slept window-blocked, nothing if it slept out of budget.
    fn settle_core(&mut self, core: usize) {
        let s = self.sleep[core];
        if s.window {
            self.cores[core].charge_window_stalls(self.now - s.since);
        }
    }

    /// Return `core` to the active set, settling its deferred charges.
    #[inline]
    fn wake(&mut self, core: usize) {
        let bit = 1u64 << core;
        if self.awake & bit == 0 {
            self.settle_core(core);
            self.awake |= bit;
        }
    }

    /// Wake every sleeping core (finalize).
    fn wake_all(&mut self) {
        let mut sleeping = self.all_mask & !self.awake;
        while sleeping != 0 {
            let core = sleeping.trailing_zeros() as usize;
            sleeping &= sleeping - 1;
            self.settle_core(core);
        }
        self.awake = self.all_mask;
        self.next_core_wake = u64::MAX;
    }

    /// Scan sleeping cores for due decay deadlines, wake them, and
    /// recompute the earliest remaining deadline (the stored minimum
    /// may be stale-low after wakes — recomputing here keeps the scan
    /// from re-triggering every cycle).
    #[cold]
    fn wake_due_decays(&mut self) {
        let mut next = u64::MAX;
        let mut sleeping = self.all_mask & !self.awake;
        while sleeping != 0 {
            let core = sleeping.trailing_zeros() as usize;
            sleeping &= sleeping - 1;
            match self.sleep[core].decay_at {
                Some(t) if t <= self.now => self.wake(core),
                Some(t) => next = next.min(t),
                None => {}
            }
        }
        self.next_core_wake = next;
    }

    /// The sleep `core` would record if it left the active set now, or
    /// `None` while its phases can still make progress: out of budget or
    /// window-blocked, with an empty L2 read queue, an empty write
    /// buffer and no deferred turn-off. Each condition is frozen until a
    /// wake edge (own event, decay deadline), so a sleeping core's value
    /// is constant apart from `since`.
    fn sleep_state(&self, core: usize) -> Option<CoreSleep> {
        let window = match self.cores[core].progress_state() {
            ProgressState::Ready => return None,
            ProgressState::Idle => false,
            ProgressState::WindowBlocked => true,
        };
        if !self.read_queues[core].is_empty()
            || !self.wbs[core].is_empty()
            || self.l2s[core].has_deferred_turnoffs()
        {
            return None;
        }
        let decay_at = self.l2s[core].next_decay_deadline();
        Some(CoreSleep { since: self.now + 1, window, decay_at })
    }

    /// Remove `core` from the active set if [`CmpSystem::sleep_state`]
    /// proves its phases no-ops until a wake edge. Evaluated at the end
    /// of a cycle, after the core's phases ran.
    fn try_sleep(&mut self, core: usize) {
        let Some(sleep) = self.sleep_state(core) else {
            return;
        };
        self.sleep[core] = sleep;
        self.awake &= !(1u64 << core);
        if let Some(t) = sleep.decay_at {
            self.next_core_wake = self.next_core_wake.min(t);
        }
    }

    // ---- quiescence skipping ----------------------------------------------

    /// The earliest cycle at which anything can act while every core
    /// sleeps: the next event, the bus's next possible grant, the
    /// sleeping cores' earliest decay deadline, the bus/memory drain
    /// horizon (not an activity source, but `done()` can flip there),
    /// the interval's last cycle (its close runs in a stepped cycle) and
    /// the cycle cap. Every cycle before it would step as a no-op.
    fn next_wake_edge(&self) -> u64 {
        let mut wake = self.events.next_at().unwrap_or(u64::MAX);
        wake = wake.min(self.bus.next_possible_grant());
        wake = wake.min(self.next_core_wake);
        let drain = self.bus.quiesce_at();
        if drain > self.now {
            wake = wake.min(drain);
        }
        wake = wake.min(self.interval_start + self.cfg.sample_interval - 1);
        wake.min(self.cfg.max_cycles)
    }

    /// Debug builds: every sleeping core's [`CmpSystem::sleep_state`]
    /// still equals the sleep it recorded, apart from `since`. Checked
    /// before every kernel jump and after every bus grant, the two
    /// places where sleeping cores stay asleep while time or other
    /// cores' state moves.
    fn debug_check_frozen_sleeps(&self) {
        debug_assert!(
            (0..self.cfg.n_cores).filter(|&c| self.awake & (1u64 << c) == 0).all(|c| {
                let recorded = self.sleep[c];
                self.sleep_state(c).map(|s| CoreSleep { since: recorded.since, ..s })
                    == Some(recorded)
            }),
            "a sleeping core's state moved without a wake edge"
        );
    }

    /// Jump time to `target` with every core asleep. Nothing is charged
    /// here: the cores stay asleep, so [`CmpSystem::settle_core`] charges
    /// the span when they wake.
    fn jump_to(&mut self, target: u64) {
        self.debug_check_frozen_sleeps();
        self.profile.on_skip(target - self.now);
        self.now = target;
    }

    // ---- events -----------------------------------------------------------

    fn handle_event(&mut self, ev: EvKind) {
        match ev {
            EvKind::L1Hit { core, id, issued_at } => {
                self.cores[core].on_load_complete(id);
                self.loads_completed += 1;
                self.load_latency_sum += self.now - issued_at;
            }
            EvKind::L2ReadDone { core, line } => {
                self.deliver_to_l1(core, line);
            }
            EvKind::DataReady { core, line, shared } => {
                // Until this run's first fill to find its set full, a run
                // at a larger size has gone cycle for cycle like it.
                let full_set = (self.may_fork || cfg!(debug_assertions))
                    && self.l2s[core].fill_finds_full_set(line);
                if full_set && self.may_fork {
                    self.fork_before(ev);
                }
                let full_sets_before = self.l2s[core].full_set_fills();
                let mut fx = std::mem::take(&mut self.fx);
                fx.clear();
                let (reads, writes, _installed) =
                    self.l2s[core].fill(line, shared, self.now, &mut fx);
                debug_assert_eq!(
                    self.l2s[core].full_set_fills() - full_sets_before,
                    u64::from(full_set),
                    "the fork trigger mispredicted a full-set fill"
                );
                self.route_fx(core, &mut fx, WbRoute::Queued);
                self.fx = fx;
                if reads > 0 {
                    self.deliver_to_l1(core, line);
                }
                if writes > 0 {
                    // Re-issue the stores of a demoted or doomed fill.
                    // `fill` has just freed this line's MSHR entry, so the
                    // probe finds room; only a copy of the line still in
                    // TC/TD could refuse it. Such a copy entered TC/TD on
                    // a cycle before this fill's bus grant: the grant
                    // found the line absent or no longer Shared, nothing
                    // but this fill installs it, and TC/TD is entered
                    // only by a snoop (one grant per cycle) or a turn-off
                    // (after the bus phase). Its Grant event is due
                    // within `upper_inval_latency` of that cycle, and the
                    // data arrives at least the fastest fill after the
                    // grant; `CmpConfig::validate` keeps the first no
                    // longer than the second. Checked in release builds
                    // too: a refusal here would lose the store.
                    let outcome = self.issue_write_probe(core, line);
                    assert_ne!(
                        outcome,
                        L2WriteOutcome::Retry,
                        "a write re-issued after its fill was refused"
                    );
                }
            }
            EvKind::Grant { core, slot, line } => {
                let mut fx = std::mem::take(&mut self.fx);
                fx.clear();
                self.l2s[core].grant(slot, line, self.now, &mut fx);
                self.route_fx(core, &mut fx, WbRoute::Queued);
                self.fx = fx;
            }
        }
    }

    fn deliver_to_l1(&mut self, core: usize, line: LineAddr) {
        let install = self.l2s[core].holds_valid(line);
        let (waiting, evicted) = if install {
            let r = self.l1s[core].fill(line);
            self.l2s[core].set_in_l1(line, true);
            r
        } else {
            (self.l1s[core].complete_without_install(line), None)
        };
        if let Some(ev) = evicted {
            self.l2s[core].set_in_l1(ev, false);
        }
        for p in waiting {
            self.cores[core].on_load_complete(p.id);
            self.loads_completed += 1;
            self.load_latency_sum += self.now - p.issued_at;
        }
    }

    // ---- bus --------------------------------------------------------------

    fn bus_grant(&mut self) -> bool {
        let Some(req) = self.bus.try_grant(self.now) else {
            return false;
        };
        // Split-transaction conflict rule: a transaction touching a line
        // whose data is in flight to another cache is NACKed and
        // retried, so the in-flight fill installs before being snooped.
        // (Entries merely *queued* behind us do not NACK — they will see
        // our issued entry when their turn comes — so no deadlock.)
        if !matches!(req.kind, BusReqKind::Writeback) {
            let conflict = (0..self.cfg.n_cores)
                .any(|j| j != req.origin && self.l2s[j].pending_issued(req.line));
            if conflict {
                self.bus.push(req);
                return true;
            }
        }
        match req.kind {
            BusReqKind::Writeback => {
                self.bus.memory_writeback(self.now);
            }
            BusReqKind::Upgrade => {
                self.snoop_others(req.origin, req.line, SnoopKind::BusRdX);
                match self.l2s[req.origin].complete_upgrade(req.line, self.now) {
                    UpgradeResult::Done => {}
                    UpgradeResult::ConvertToMiss => {
                        self.start_fill(req.origin, req.line, true);
                    }
                }
            }
            BusReqKind::ReadMiss | BusReqKind::WriteMiss => {
                let exclusive = matches!(req.kind, BusReqKind::WriteMiss)
                    || self.l2s[req.origin].pending_exclusive(req.line);
                self.start_fill(req.origin, req.line, exclusive);
            }
        }
        true
    }

    fn start_fill(&mut self, origin: usize, line: LineAddr, exclusive: bool) {
        self.l2s[origin].mark_issued(line);
        let kind = if exclusive { SnoopKind::BusRdX } else { SnoopKind::BusRd };
        let (shared, supplied) = self.snoop_others(origin, line, kind);
        let ready = if supplied {
            self.c2c_transfers += 1;
            self.bus.c2c_fill(self.now)
        } else {
            self.bus.memory_fill(self.now)
        };
        self.events.push(ready.max(self.now + 1), EvKind::DataReady { core: origin, line, shared });
    }

    fn snoop_others(&mut self, origin: usize, line: LineAddr, kind: SnoopKind) -> (bool, bool) {
        let mut shared = false;
        let mut supplied = false;
        for j in 0..self.cfg.n_cores {
            if j == origin {
                continue;
            }
            let mut fx = std::mem::take(&mut self.fx);
            fx.clear();
            let reply = self.l2s[j].snoop(line, kind, self.now, &mut fx);
            shared |= reply.assert_shared;
            supplied |= reply.supply_data;
            self.route_fx(j, &mut fx, WbRoute::SnoopFlush);
            self.fx = fx;
        }
        (shared, supplied)
    }

    fn route_fx(&mut self, core: usize, fx: &mut SideEffects, route: WbRoute) {
        for line in fx.writebacks.drain(..) {
            match route {
                WbRoute::SnoopFlush => self.bus.memory_writeback(self.now),
                WbRoute::Queued => {
                    self.bus.push(BusReq { origin: core, line, kind: BusReqKind::Writeback })
                }
            }
        }
        for (line, induced) in fx.upper_invals.drain(..) {
            if self.l1s[core].invalidate(line, induced) {
                self.upper_invalidations += 1;
            }
        }
        for (due, slot, line) in fx.grants.drain(..) {
            self.events.push(due.max(self.now + 1), EvKind::Grant { core, slot, line });
        }
    }

    // ---- per-core L2 cycle --------------------------------------------------

    fn l2_cycle(&mut self, core: usize) {
        // Every engine runs this phase no later than the L2's decay
        // deadline, so each tick is processed on its own cycle.
        debug_assert!(
            self.l2s[core].next_decay_deadline().is_none_or(|t| t >= self.now),
            "a decay tick was left past its deadline"
        );
        // Decay clock and turn-off processing.
        for slot in self.l2s[core].take_decayed(self.now) {
            self.try_turn_off(core, slot);
        }
        for slot in self.l2s[core].take_deferred_turnoffs() {
            self.try_turn_off(core, slot);
        }

        // L2 ports: reads (latency-critical) first, then writes. A
        // retried head blocks its queue for the rest of the cycle.
        let mut ops = 0u32;
        while ops < self.cfg.l2.ports {
            let Some(&line) = self.read_queues[core].front() else {
                break;
            };
            match self.l2s[core].probe_read(line) {
                L2ReadOutcome::Hit => {
                    let done = self.now + self.l2s[core].hit_latency();
                    self.events.push(done, EvKind::L2ReadDone { core, line });
                }
                L2ReadOutcome::MissPrimary => {
                    self.bus.push(BusReq { origin: core, line, kind: BusReqKind::ReadMiss });
                }
                L2ReadOutcome::MissSecondary => {}
                L2ReadOutcome::Retry => break,
            }
            self.read_queues[core].pop_front();
            ops += 1;
        }
        while ops < self.cfg.l2.ports {
            let Some(line) = self.wbs[core].head() else {
                break;
            };
            if self.issue_write_probe(core, line) == L2WriteOutcome::Retry {
                break;
            }
            self.wbs[core].pop();
            ops += 1;
        }
    }

    fn try_turn_off(&mut self, core: usize, slot: usize) {
        let Some(line) = self.l2s[core].line_at(slot) else {
            return;
        };
        let pending = self.wbs[core].has_pending(line);
        let mut fx = std::mem::take(&mut self.fx);
        fx.clear();
        self.l2s[core].turn_off(slot, self.now, pending, &mut fx);
        self.route_fx(core, &mut fx, WbRoute::Queued);
        self.fx = fx;
    }

    /// Probe a write and queue the bus transaction it needs.
    fn issue_write_probe(&mut self, core: usize, line: LineAddr) -> L2WriteOutcome {
        let outcome = self.l2s[core].probe_write(line);
        match outcome {
            L2WriteOutcome::Done | L2WriteOutcome::MissSecondary => {}
            L2WriteOutcome::UpgradeIssued => {
                self.bus.push(BusReq { origin: core, line, kind: BusReqKind::Upgrade });
            }
            L2WriteOutcome::MissPrimary => {
                self.bus.push(BusReq { origin: core, line, kind: BusReqKind::WriteMiss });
            }
            L2WriteOutcome::Retry => {}
        }
        outcome
    }

    // ---- cores ------------------------------------------------------------

    /// One core's tick phase: fetch through the core's enum-dispatched
    /// [`CoreSource`] (monomorphized) into a fresh [`PortAdapter`].
    #[inline]
    fn tick_core(&mut self, core: usize) {
        let mut port = PortAdapter {
            now: self.now,
            core,
            geom: self.l1_geom,
            l1_hit_latency: self.cfg.l1.hit_latency,
            l1: &mut self.l1s[core],
            wb: &mut self.wbs[core],
            read_queue: &mut self.read_queues[core],
            events: &mut self.events,
        };
        self.cores[core].tick(&mut self.sources[core], &mut port);
    }

    // ---- sampling -----------------------------------------------------------

    /// Interval snapshot: the cumulative counters, summed over every
    /// core at each interval close.
    fn counters(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for c in &self.cores {
            s.instructions += c.stats().instructions;
        }
        for l in &self.l1s {
            let st = l.stats();
            s.l1_accesses += st.loads + st.stores;
        }
        for l in &self.l2s {
            let st = l.stats();
            s.l2_reads += st.reads;
            s.l2_writes += st.writes;
            let d = l.decay_stats();
            s.decay_events += d.increments + d.resets;
        }
        s.bus_transactions = self.bus.transactions;
        s.bus_bytes = self.bus.bus_bytes;
        s.mem_bytes = self.bus.mem_bytes;
        s
    }

    /// The full scan's powered-lines book: Σ powered lines, every cycle.
    fn sample_cycle(&mut self) {
        self.interval_powered += self.l2s.iter().map(|l| l.powered_lines()).sum::<u64>();
        let elapsed = self.now + 1 - self.interval_start;
        if elapsed >= self.cfg.sample_interval {
            self.close_interval(self.now + 1);
        }
    }

    fn close_interval(&mut self, end: u64) {
        let elapsed = end.saturating_sub(self.interval_start);
        if elapsed == 0 {
            return;
        }
        if cfg!(debug_assertions) {
            self.check_inclusion();
        }
        // The worklist engine reads the interval's powered-line cycles
        // off the banks' on-cycle books; the full scan summed them.
        let powered = if self.worklist {
            let on = self.on_line_cycles(end);
            on - std::mem::replace(&mut self.interval_on_at_start, on)
        } else {
            std::mem::take(&mut self.interval_powered)
        };
        let snap = self.counters();
        let lines_total = self.lines_total;
        self.trace.push(IntervalActivity {
            cycles: elapsed,
            instructions: snap.instructions - self.last_snap.instructions,
            l1_accesses: snap.l1_accesses - self.last_snap.l1_accesses,
            l2_reads: snap.l2_reads - self.last_snap.l2_reads,
            l2_writes: snap.l2_writes - self.last_snap.l2_writes,
            bus_transactions: snap.bus_transactions - self.last_snap.bus_transactions,
            bus_bytes: snap.bus_bytes - self.last_snap.bus_bytes,
            mem_bytes: snap.mem_bytes - self.last_snap.mem_bytes,
            l2_powered_line_cycles: powered,
            l2_total_line_cycles: lines_total * elapsed,
            decay_counter_events: snap.decay_events - self.last_snap.decay_events,
        });
        self.last_snap = snap;
        self.interval_start = end;
    }

    /// L1 ⊆ L2 inclusion, both ways: every valid L1 line is resident in
    /// its L2 with `in_l1` set, and every L2 line with `in_l1` set is
    /// held by its L1. Back-invalidations and eviction notices are
    /// applied on the spot, so this holds after every cycle; debug
    /// builds check it at each interval close.
    fn check_inclusion(&self) {
        for (core, (l1, l2)) in self.l1s.iter().zip(&self.l2s).enumerate() {
            for line in l1.valid_lines() {
                assert!(
                    l2.marks_in_l1(line),
                    "core {core}: L1 holds {line:?}, but its L2 does not mark it in_l1"
                );
            }
            for line in l2.lines_in_l1() {
                assert!(
                    l1.holds(line),
                    "core {core}: L2 marks {line:?} in_l1, but the L1 lacks it"
                );
            }
        }
    }

    /// Σ on-cycles of every L2's lines up to `t` (the banks' books).
    fn on_line_cycles(&self, t: u64) -> u64 {
        self.l2s.iter().map(|l2| l2.finish_on_cycles(t)).sum()
    }

    /// Close the books and assemble the statistics. The caches' storage
    /// stays attached (so this can run before the scratch reclaim that
    /// strips it); the trace is moved out.
    fn finalize(&mut self) -> SimStats {
        if self.worklist {
            // Settle every sleeping core's deferred window stalls before
            // the books close.
            self.wake_all();
        }
        self.close_interval(self.now);
        let now = self.now;
        let on = self.on_line_cycles(now);
        let lines_total = self.lines_total;
        // Under the full scan, two independent books of the same
        // integral: the banks' power on/off stamps, and the per-cycle
        // powered sums. (The worklist engine's trace is read off the
        // banks, so there the check holds by construction.)
        debug_assert_eq!(
            self.trace.iter().map(|iv| iv.l2_powered_line_cycles).sum::<u64>(),
            on,
            "the powered-lines integral and the banks' on-cycle books disagree"
        );
        debug_assert!(on <= lines_total * now, "on-cycles exceed the line-cycle capacity");
        SimStats {
            cycles: now,
            instructions: self.cores.iter().map(|c| c.stats().instructions).sum(),
            cores: self.cores.iter().map(|c| c.stats()).collect(),
            core_workloads: self.sources.iter().map(|s| s.name().to_string()).collect(),
            l1: self.l1s.iter().map(|l| l.stats()).collect(),
            l2: self.l2s.iter().map(|l| l.stats()).collect(),
            l2_on_line_cycles: on,
            l2_line_cycle_capacity: lines_total * now,
            loads_completed: self.loads_completed,
            load_latency_sum: self.load_latency_sum,
            bus_transactions: self.bus.transactions,
            bus_busy_cycles: self.bus.busy_cycles,
            mem_fills: self.bus.mem_fills,
            mem_writebacks: self.bus.mem_writebacks,
            mem_bytes: self.bus.mem_bytes,
            c2c_transfers: self.c2c_transfers,
            upper_invalidations: self.upper_invalidations,
            trace: std::mem::take(&mut self.trace),
        }
    }
}

impl CmpSystem {
    /// Fork a run at the first larger size the L2s shadow, just before
    /// `ev` — the first fill of this run to find its set full — is
    /// handled. Up to here that run has gone cycle for cycle like this
    /// one, so it is this system with every L2 regrown to the larger size
    /// ([`L2Cache::fork_larger`]: the larger shadows move to the fork),
    /// `ev` back at the front of this cycle's events, every `Grant` event
    /// at its line's new slot, and the line-cycle capacity of the closed
    /// intervals — and, when every line is powered (the baseline), their
    /// powered-line integrals and the open interval's — at the larger
    /// line count. Everything else is copied as it is, but for the
    /// diagnostic counters (cycle profile, event pushes), which count
    /// only the work the fork does. The fork's L1 and larger L2 columns
    /// come out of this run's arena. A run with a live feed makes no
    /// fork: a generator cannot be copied.
    #[cold]
    fn fork_before(&mut self, ev: EvKind) {
        self.may_fork = false;
        let Some(sources) = self.sources.iter().map(CoreSource::try_clone).collect() else {
            return;
        };
        let arena = &mut self.arena;
        let Some(l2s) =
            self.l2s.iter_mut().map(|l2| l2.fork_larger(arena)).collect::<Option<Vec<_>>>()
        else {
            return;
        };
        let l1s = self.l1s.iter().map(|l1| l1.clone_in(arena)).collect();
        let mut events = self.events.clone();
        events.pushes = 0;
        events.push_front(self.now, ev);
        for (_, kind) in &mut events.queue {
            if let EvKind::Grant { core, slot, line } = kind {
                // A pending Grant's line waits in TC/TD at its slot.
                *slot = l2s[*core].slot_of(*line).unwrap_or(*slot);
            }
        }
        let lines_total: u64 = l2s.iter().map(|l2| l2.geometry().lines() as u64).sum();
        let every_line_powered = !self.cfg.technique.gates_cold_lines();
        let mut trace = self.trace.clone();
        for iv in &mut trace {
            iv.rescale_to(lines_total, every_line_powered);
        }
        // Every line of a baseline is powered from cycle 0, so its
        // powered-line books scale with the line count.
        let scale = if every_line_powered { lines_total / self.lines_total } else { 1 };
        let mut cfg = self.cfg;
        cfg.l2.size_bytes = l2s[0].geometry().size_bytes;
        let fork = CmpSystem {
            cfg,
            now: self.now,
            cores: self.cores.clone(),
            sources,
            l1s,
            wbs: self.wbs.clone(),
            may_fork: l2s[0].larger_shadows() > 0,
            l2s,
            bus: self.bus.clone(),
            l1_geom: self.l1_geom,
            events,
            read_queues: self.read_queues.clone(),
            fx: SideEffects::default(),
            arena: BankArena::default(),
            loads_completed: self.loads_completed,
            load_latency_sum: self.load_latency_sum,
            c2c_transfers: self.c2c_transfers,
            upper_invalidations: self.upper_invalidations,
            trace,
            last_snap: self.last_snap,
            interval_powered: self.interval_powered * scale,
            interval_on_at_start: self.interval_on_at_start * scale,
            interval_start: self.interval_start,
            worklist: self.worklist,
            awake: self.awake,
            all_mask: self.all_mask,
            sleep: self.sleep.clone(),
            next_core_wake: self.next_core_wake,
            lines_total,
            profile: CycleProfile::default(),
            fork: None,
        };
        if cfg!(debug_assertions) {
            fork.check_inclusion();
            fork.check_grants();
        }
        self.fork = Some(Box::new(fork));
    }

    /// Every pending `Grant` event names the slot where its line waits
    /// in TC/TD (debug builds check it in every fork).
    fn check_grants(&self) {
        for &(_, kind) in &self.events.queue {
            if let EvKind::Grant { core, slot, line } = kind {
                let l2 = &self.l2s[core];
                assert!(
                    l2.slot_of(line) == Some(slot)
                        && l2.state_of(line).is_some_and(|s| !s.is_stationary()),
                    "core {core}: a Grant names slot {slot}, where {line:?} is not in TC/TD"
                );
            }
        }
    }

    /// What the run learned about the larger sizes its L2s shadowed.
    /// Reads the caches' own counters, so it runs before the reclaim.
    fn larger_sizes(&self) -> LargerSizes {
        let sizes = self.l2s.first().map_or(0, L2Cache::larger_shadows);
        LargerSizes {
            full_set_fills: self.l2s.iter().map(L2Cache::full_set_fills).sum(),
            induced_misses: (0..sizes)
                .map(|i| self.l2s.iter().map(|l2| l2.larger_induced_misses(i)).collect())
                .collect(),
        }
    }

    /// Run to the end, close the books and hand the pools back.
    fn run_to_end(
        mut self,
        scratch: &mut SimScratch,
    ) -> (SimStats, LargerSizes, Option<LargerFork>) {
        self.run_loop();
        let stats = self.finalize();
        let larger = self.larger_sizes();
        let fork = self.fork.take().map(|sys| LargerFork { sys });
        self.reclaim_scratch(scratch);
        (stats, larger, fork)
    }

    /// Hand the reusable pools back to `scratch`: the caches release
    /// their per-line columns into the arena, and the arena, event queue
    /// and port queues return for the next run. Must run after
    /// [`CmpSystem::finalize`] (closing the books reads the line-state
    /// banks' on-time sums).
    fn reclaim_scratch(&mut self, scratch: &mut SimScratch) {
        for l2 in &mut self.l2s {
            l2.release_storage(&mut self.arena);
        }
        for l1 in &mut self.l1s {
            l1.release_storage(&mut self.arena);
        }
        scratch.arena = std::mem::take(&mut self.arena);
        scratch.events = std::mem::take(&mut self.events);
        scratch.fx = std::mem::take(&mut self.fx);
        scratch.read_queues = std::mem::take(&mut self.read_queues);
        scratch.profile = self.profile;
    }
}

/// Run a system of live generators, one per core, to completion (or to
/// the configured cycle cap) and return the statistics: a convenience
/// over [`run_feeds_with_scratch`] with fresh pools.
///
/// # Panics
/// Panics unless exactly `cfg.n_cores` workloads are supplied, or if
/// the configuration is invalid.
pub fn run_simulation(cfg: CmpConfig, workloads: Vec<Box<dyn Workload>>) -> SimStats {
    let feeds = workloads.into_iter().map(CoreSource::Live).collect();
    run_feeds_with_scratch(cfg, feeds, &mut SimScratch::default())
}

/// Build and run a system over per-core [`CoreSource`] feeds, borrowing
/// the reusable allocation pools of `scratch` and returning them when
/// the run finishes — callers that run many simulations back to back
/// (sweep workers, benchmarks) keep the event and port queue capacities
/// and the per-line columns warm across runs.
///
/// # Panics
/// Panics unless exactly `cfg.n_cores` feeds are supplied, or if the
/// configuration is invalid.
pub fn run_feeds_with_scratch(
    cfg: CmpConfig,
    feeds: Vec<CoreSource>,
    scratch: &mut SimScratch,
) -> SimStats {
    run_feeds_with_larger(cfg, feeds, &[], scratch).0
}

/// A run at a larger L2 size, forked from a smaller run just before that
/// run's first fill to find its set full and suspended there
/// ([`run_feeds_with_larger`]); [`resume_fork`] runs it to the end.
pub struct LargerFork {
    sys: Box<CmpSystem>,
}

impl LargerFork {
    /// The cycle the fork was made at: the cycles its resumed run does
    /// not simulate again.
    pub fn cycle(&self) -> u64 {
        self.sys.now
    }

    /// The per-core L2 capacity of the forked run, in bytes.
    pub fn l2_bytes(&self) -> usize {
        self.sys.cfg.l2.size_bytes
    }
}

impl std::fmt::Debug for LargerFork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LargerFork")
            .field("cycle", &self.cycle())
            .field("l2_bytes", &self.l2_bytes())
            .finish_non_exhaustive()
    }
}

/// [`run_feeds_with_scratch`] with every L2 also shadowing the larger
/// per-core capacities `larger_l2_bytes` (powers of two above
/// `cfg.l2.size_bytes`, ascending; same line size and associativity).
/// Returns the run's statistics — identical to a run without the
/// shadows — what it learned about each larger size, and a fork at the
/// first larger size:
///
/// * if no L2 ever filled a set that had no invalid way
///   ([`LargerSizes::full_set_fills`] is 0), a run at any larger size is
///   this run cycle for cycle, and [`SimStats::at_larger_size`] gives
///   its statistics exactly;
/// * otherwise, when every feed replays a trace, the run forked a run
///   at the first larger size just before its first such fill, when the
///   two had gone cycle for cycle alike: [`resume_fork`] finishes it,
///   with the shadows of the sizes above it. A live feed cannot be
///   copied, so a run over one makes no fork.
///
/// # Panics
/// As [`run_feeds_with_scratch`], and if a larger size is not a power
/// of two above `cfg.l2.size_bytes`.
pub fn run_feeds_with_larger(
    cfg: CmpConfig,
    feeds: Vec<CoreSource>,
    larger_l2_bytes: &[usize],
    scratch: &mut SimScratch,
) -> (SimStats, LargerSizes, Option<LargerFork>) {
    CmpSystem::with_feeds(cfg, feeds, larger_l2_bytes, scratch).run_to_end(scratch)
}

/// Run a fork to the end, on `scratch`'s allocation pools. It returns
/// what [`run_feeds_with_larger`] returns for a run at the fork's size
/// shadowing the sizes above it — the same statistics as a run from
/// cycle 0 — and may fork again.
pub fn resume_fork(
    fork: LargerFork,
    scratch: &mut SimScratch,
) -> (SimStats, LargerSizes, Option<LargerFork>) {
    let mut sys = *fork.sys;
    sys.arena = std::mem::take(&mut scratch.arena);
    sys.run_to_end(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_CORES;
    use cmpleak_coherence::Technique;
    use cmpleak_cpu::{ReplayWorkload, TraceOp};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn tiny_cfg(technique: Technique) -> CmpConfig {
        let mut cfg = CmpConfig { n_cores: 2, ..CmpConfig::default() };
        cfg.l1.size_bytes = 1024;
        cfg.l2.size_bytes = 64 * 1024;
        cfg.technique = technique;
        cfg.instructions_per_core = 20_000;
        cfg.max_cycles = 10_000_000;
        cfg.sample_interval = 1000;
        cfg
    }

    fn live(workloads: Vec<Box<dyn Workload>>) -> Vec<CoreSource> {
        workloads.into_iter().map(CoreSource::Live).collect()
    }

    fn private_streams() -> Vec<Box<dyn Workload>> {
        // Each core strides over its own 16 KiB segment.
        (0..2)
            .map(|c| {
                let base = (c as u64 + 1) << 20;
                let ops: Vec<TraceOp> = (0..256)
                    .flat_map(|i| {
                        [
                            TraceOp::Exec(3),
                            TraceOp::Load(base + i * 64),
                            TraceOp::Exec(2),
                            TraceOp::Store(base + i * 64 + 8),
                        ]
                    })
                    .collect();
                Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
            })
            .collect()
    }

    fn sharing_streams() -> Vec<Box<dyn Workload>> {
        // Both cores hammer the same 4 KiB: lots of invalidations.
        (0..2)
            .map(|_| {
                let ops: Vec<TraceOp> = (0..64)
                    .flat_map(|i| {
                        [
                            TraceOp::Exec(2),
                            TraceOp::Store(i * 64),
                            TraceOp::Exec(2),
                            TraceOp::Load(i * 64),
                        ]
                    })
                    .collect();
                Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
            })
            .collect()
    }

    #[test]
    fn baseline_run_completes_and_counts_instructions() {
        let stats = run_simulation(tiny_cfg(Technique::Baseline), private_streams());
        assert_eq!(stats.instructions, 40_000);
        assert!(stats.cycles > 0 && stats.cycles < 2_000_000, "cycles = {}", stats.cycles);
        assert!((stats.occupation_rate() - 1.0).abs() < 1e-12, "baseline is always on");
        assert!(stats.ipc() > 0.1);
    }

    #[test]
    fn private_streams_have_no_coherence_traffic() {
        let stats = run_simulation(tiny_cfg(Technique::Baseline), private_streams());
        let invals: u64 = stats.l2.iter().map(|s| s.snoop_invalidations).sum();
        assert_eq!(invals, 0);
        assert_eq!(stats.c2c_transfers, 0);
    }

    #[test]
    fn sharing_streams_invalidate_and_supply_cache_to_cache() {
        let stats = run_simulation(tiny_cfg(Technique::Baseline), sharing_streams());
        let invals: u64 = stats.l2.iter().map(|s| s.snoop_invalidations).sum();
        assert!(invals > 0, "write sharing must invalidate");
        assert!(stats.c2c_transfers > 0, "M owners must supply data");
    }

    #[test]
    fn protocol_gates_cold_and_invalidated_lines() {
        let stats = run_simulation(tiny_cfg(Technique::Protocol), sharing_streams());
        let occ = stats.occupation_rate();
        assert!(occ < 0.5, "small working set: most lines stay cold, occ = {occ}");
        let gated: u64 = stats.l2.iter().map(|s| s.turnoffs_protocol).sum();
        assert!(gated > 0, "protocol must gate invalidated lines");
    }

    #[test]
    fn protocol_does_not_change_cycle_count_much() {
        let base = run_simulation(tiny_cfg(Technique::Baseline), private_streams());
        let prot = run_simulation(tiny_cfg(Technique::Protocol), private_streams());
        assert_eq!(base.instructions, prot.instructions);
        let loss = 1.0 - base.cycles as f64 / prot.cycles as f64;
        assert!(loss.abs() < 0.01, "protocol IPC loss should be ~0, got {loss}");
    }

    #[test]
    fn decay_reduces_occupation_at_a_performance_cost() {
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 2048 });
        cfg.instructions_per_core = 60_000;
        let base_cfg = {
            let mut c = cfg;
            c.technique = Technique::Baseline;
            c
        };
        // Workload with dead lines: touch a big footprint once, then loop
        // in a small hot set.
        let wl = || -> Vec<Box<dyn Workload>> {
            (0..2)
                .map(|c| {
                    let base = (c as u64 + 1) << 20;
                    let mut ops = Vec::new();
                    for i in 0..512u64 {
                        ops.push(TraceOp::Load(base + i * 64));
                        ops.push(TraceOp::Exec(2));
                    }
                    let hot: Vec<TraceOp> = (0..16u64)
                        .flat_map(|i| [TraceOp::Exec(3), TraceOp::Load(base + i * 64)])
                        .collect();
                    ops.extend(std::iter::repeat_n(hot, 400).flatten());
                    Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
                })
                .collect()
        };
        let base = run_simulation(base_cfg, wl());
        let decay = run_simulation(cfg, wl());
        assert!(decay.occupation_rate() < 0.4, "decay occupation = {}", decay.occupation_rate());
        assert!(base.occupation_rate() == 1.0);
        let turnoffs: u64 = decay.l2.iter().map(|s| s.turnoffs_decay).sum();
        assert!(turnoffs > 0);
    }

    #[test]
    fn trace_integrates_to_totals() {
        let stats = run_simulation(tiny_cfg(Technique::Protocol), sharing_streams());
        let trace_cycles: u64 = stats.trace.iter().map(|t| t.cycles).sum();
        assert_eq!(trace_cycles, stats.cycles);
        let trace_on: u64 = stats.trace.iter().map(|t| t.l2_powered_line_cycles).sum();
        assert_eq!(
            trace_on, stats.l2_on_line_cycles,
            "trace must integrate to the occupancy total"
        );
        let trace_instr: u64 = stats.trace.iter().map(|t| t.instructions).sum();
        assert_eq!(trace_instr, stats.instructions);
        let trace_mem: u64 = stats.trace.iter().map(|t| t.mem_bytes).sum();
        assert_eq!(trace_mem, stats.mem_bytes);
    }

    #[test]
    fn determinism_same_config_same_stats() {
        let a =
            run_simulation(tiny_cfg(Technique::Decay { decay_cycles: 4096 }), sharing_streams());
        let b =
            run_simulation(tiny_cfg(Technique::Decay { decay_cycles: 4096 }), sharing_streams());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem_bytes, b.mem_bytes);
        assert_eq!(a.l2_on_line_cycles, b.l2_on_line_cycles);
    }

    fn run_both_kernels(mut cfg: CmpConfig, wl: impl Fn() -> Vec<Box<dyn Workload>>) -> SimStats {
        cfg.kernel = crate::config::SimKernel::PerCycle;
        let reference = run_simulation(cfg, wl());
        cfg.kernel = crate::config::SimKernel::QuiescenceSkip;
        let skipping = run_simulation(cfg, wl());
        assert_eq!(reference, skipping, "kernels must be bit-identical");
        skipping
    }

    /// Run the full kernel × engine matrix and assert all four cells
    /// agree bit for bit.
    fn run_engine_matrix(cfg: CmpConfig, wl: impl Fn() -> Vec<Box<dyn Workload>>) -> SimStats {
        let mut out = Vec::new();
        for kernel in [SimKernel::PerCycle, SimKernel::QuiescenceSkip] {
            for engine in [CycleEngine::FullScan, CycleEngine::Worklist] {
                let mut c = cfg;
                c.kernel = kernel;
                c.engine = engine;
                out.push((kernel, engine, run_simulation(c, wl())));
            }
        }
        let (_, _, reference) = out[0].clone();
        for (kernel, engine, stats) in &out[1..] {
            assert_eq!(&reference, stats, "{kernel:?} × {engine:?} diverged from the reference");
        }
        reference
    }

    #[test]
    fn engines_bit_identical_on_private_and_sharing_streams() {
        for technique in [
            Technique::Baseline,
            Technique::Protocol,
            Technique::Decay { decay_cycles: 2048 },
            Technique::SelectiveDecay { decay_cycles: 4096 },
        ] {
            run_engine_matrix(tiny_cfg(technique), private_streams);
            run_engine_matrix(tiny_cfg(technique), sharing_streams);
        }
    }

    #[test]
    fn engines_bit_identical_with_idle_cores_and_memory_stalls() {
        // Core 0 drains early (long Idle sleeps in the worklist
        // engine); core 1 streams loads (window-blocked sleeps).
        let wl = || -> Vec<Box<dyn Workload>> {
            vec![
                Box::new(ReplayWorkload::cycle(vec![TraceOp::Exec(64), TraceOp::Load(1 << 21)])),
                Box::new(ReplayWorkload::cycle(
                    (0..2048u64).map(|i| TraceOp::Load((2 << 20) + i * 64)).collect(),
                )),
            ]
        };
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 2048 });
        cfg.instructions_per_core = 10_000;
        let stats = run_engine_matrix(cfg, wl);
        assert!(stats.cores[1].window_stall_cycles > 0, "stalls must occur to be settled");
    }

    #[test]
    fn engines_bit_identical_through_blocked_write_bursts() {
        // Retry-storm: write buffers fill, drains jam on a saturated L2
        // MSHR, cores spin on refused stores. Those cores never sleep
        // (a retried store is `Ready`, and their write buffers are
        // full), so the worklist engine steps them like the reference
        // and must charge the same reject stalls and L2 retries.
        let wl = || -> Vec<Box<dyn Workload>> {
            (0..2)
                .map(|c| {
                    let base = (c as u64 + 1) << 21;
                    let ops: Vec<TraceOp> =
                        (0..4096u64).map(|i| TraceOp::Store(base + i * 64)).collect();
                    Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
                })
                .collect()
        };
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 2048 });
        cfg.instructions_per_core = 6_000;
        cfg.mem.latency = 1_000;
        let stats = run_engine_matrix(cfg, wl);
        let rejects: u64 = stats.cores.iter().map(|c| c.reject_stall_cycles).sum();
        assert!(rejects > 0, "cores must actually block on refused stores");
    }

    #[test]
    fn engines_bit_identical_through_blocked_read_bursts() {
        // The L1 MSHRs outpace the L2 MSHRs behind a slow memory, so
        // the L2 read queues jam on a retried head. A core with a
        // non-empty read queue never sleeps: the worklist engine steps
        // it like the reference and must charge the same L2 retries.
        let wl = || -> Vec<Box<dyn Workload>> {
            (0..2)
                .map(|c| {
                    let base = (c as u64 + 1) << 21;
                    let ops: Vec<TraceOp> =
                        (0..4096u64).map(|i| TraceOp::Load(base + i * 64)).collect();
                    Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
                })
                .collect()
        };
        let mut cfg = tiny_cfg(Technique::Protocol);
        cfg.instructions_per_core = 6_000;
        cfg.mem.latency = 1_000;
        cfg.l1.mshr_entries = 16;
        cfg.l2.mshr_entries = 2;
        cfg.core.max_outstanding_loads = 16;
        let stats = run_engine_matrix(cfg, wl);
        let retries: u64 = stats.l2.iter().map(|s| s.retries).sum();
        assert!(retries > 0, "the blocked read head must accrue L2 retries");
    }

    #[test]
    fn engines_bit_identical_at_cycle_cap_and_single_core() {
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 1024 });
        cfg.max_cycles = 7_777; // cut mid-run, also mid-interval
        let stats = run_engine_matrix(cfg, private_streams);
        assert_eq!(stats.cycles, 7_777);

        let mut cfg = tiny_cfg(Technique::SelectiveDecay { decay_cycles: 2048 });
        cfg.n_cores = 1;
        let one = || private_streams().drain(..1).collect::<Vec<_>>();
        run_engine_matrix(cfg, one);
    }

    #[test]
    fn sixty_four_cores_complete_every_instruction() {
        // Core 63 owns the top bit of every core mask.
        let mut cfg = tiny_cfg(Technique::Protocol);
        cfg.n_cores = MAX_CORES;
        cfg.instructions_per_core = 2_000;
        let wl = || -> Vec<Box<dyn Workload>> {
            (0..MAX_CORES as u64)
                .map(|c| {
                    let base = (c + 1) << 20;
                    let ops: Vec<TraceOp> = (0..64)
                        .flat_map(|i| [TraceOp::Exec(3), TraceOp::Load(base + i * 64)])
                        .collect();
                    Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
                })
                .collect()
        };
        let stats = run_simulation(cfg, wl());
        assert_eq!(stats.instructions, 64 * 2_000);
        assert!(stats.cycles < cfg.max_cycles);
        let mut reference = cfg;
        reference.kernel = SimKernel::PerCycle;
        reference.engine = CycleEngine::FullScan;
        assert_eq!(run_simulation(reference, wl()), stats);
    }

    /// Two cores loading, then storing, the same 64 lines: upgrades race
    /// invalidations, so fills arrive doomed or demoted and their stores
    /// are re-issued from the fill path.
    fn load_store_loops() -> Vec<Box<dyn Workload>> {
        (0..2)
            .map(|_| {
                let ops: Vec<TraceOp> = (0..64)
                    .flat_map(|i| {
                        [
                            TraceOp::Load(i * 64),
                            TraceOp::Exec(1),
                            TraceOp::Store(i * 64),
                            TraceOp::Exec(1),
                        ]
                    })
                    .collect();
                Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "upper_inval_latency = 2000 exceeds the shortest fill (12 cycles)")]
    fn upper_invalidations_slower_than_a_fill_are_refused() {
        // On the default bus this loop re-issued a store into a line
        // still in TC/TD (lost in a release build): refused up front.
        let mut cfg = tiny_cfg(Technique::Baseline);
        cfg.l2.upper_inval_latency = 2_000;
        run_simulation(cfg, load_store_loops());
    }

    #[test]
    fn upper_invalidations_no_slower_than_a_fill_are_accepted() {
        // The same latency with fills as slow: every store re-issued
        // after its fill passes the fill path's debug assertion.
        let mut cfg = tiny_cfg(Technique::Baseline);
        cfg.l2.upper_inval_latency = 2_000;
        cfg.bus.c2c_latency = 2_000;
        cfg.mem.latency = 2_000;
        let stats = run_simulation(cfg, load_store_loops());
        assert_eq!(stats.instructions, 2 * cfg.instructions_per_core);
    }

    #[cfg(feature = "cycle-profile")]
    #[test]
    fn skip_kernel_jumps_only_over_an_empty_active_set() {
        // Core 0 drains early and core 1 waits on memory: quiet spans
        // with every core blocked.
        let wl = || -> Vec<Box<dyn Workload>> {
            vec![
                Box::new(ReplayWorkload::cycle(vec![TraceOp::Exec(64), TraceOp::Load(1 << 21)])),
                Box::new(ReplayWorkload::cycle(
                    (0..2048u64).map(|i| TraceOp::Load((2 << 20) + i * 64)).collect(),
                )),
            ]
        };
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 2048 });
        cfg.instructions_per_core = 10_000;
        let mut scratch = SimScratch::default();

        let scan = CmpConfig { engine: CycleEngine::FullScan, ..cfg };
        assert_eq!(scan.kernel, SimKernel::QuiescenceSkip);
        let stats = run_feeds_with_scratch(scan, live(wl()), &mut scratch);
        let p = scratch.cycle_profile();
        assert_eq!(p.cycles_skipped, 0, "the full scan has no active set to empty");
        assert_eq!(p.cycles_stepped, stats.cycles);
        assert_eq!(p.port_loops_skipped, 0, "every awake core runs its L2 phase");

        let stats = run_feeds_with_scratch(cfg, live(wl()), &mut scratch);
        let p = scratch.cycle_profile();
        assert!(p.cycles_skipped > 0, "every core sleeps through the memory stalls");
        assert_eq!(p.port_loops_skipped, 0, "every awake core runs its L2 phase");
        assert_eq!(p.cycles_batched, 0);
        assert_eq!(p.cycles_stepped + p.cycles_skipped, stats.cycles);
    }

    #[test]
    fn feeds_match_boxed_sources_bit_for_bit() {
        // The enum-dispatched feed path must be invisible: a recording
        // replayed through `CoreSource::Trace` runs exactly like the
        // boxed generators it was recorded from.
        let cfg = tiny_cfg(Technique::Decay { decay_cycles: 2048 });
        let boxed = run_simulation(cfg, sharing_streams());
        let feeds = run_feeds_with_scratch(
            cfg,
            replayed(&cfg, sharing_streams()),
            &mut SimScratch::default(),
        );
        assert_eq!(boxed, feeds);
    }

    /// `streams` recorded into one trace, one replay cursor per core.
    fn replayed(cfg: &CmpConfig, streams: Vec<Box<dyn Workload>>) -> Vec<CoreSource> {
        let mut trace = cmpleak_trace::MemTrace::new("replayed", 0);
        for mut wl in streams {
            trace.record_core_in(wl.as_mut(), cfg.instructions_per_core, Vec::new());
        }
        let trace = std::sync::Arc::new(trace);
        (0..cfg.n_cores).map(|c| CoreSource::Trace(trace.cursor(c))).collect()
    }

    #[test]
    fn kernels_bit_identical_on_private_and_sharing_streams() {
        for technique in [
            Technique::Baseline,
            Technique::Protocol,
            Technique::Decay { decay_cycles: 2048 },
            Technique::SelectiveDecay { decay_cycles: 4096 },
        ] {
            run_both_kernels(tiny_cfg(technique), private_streams);
            run_both_kernels(tiny_cfg(technique), sharing_streams);
        }
    }

    #[test]
    fn kernels_bit_identical_with_idle_cores_and_memory_stalls() {
        // Core 0 is compute-heavy and drains early (Idle spans); core 1
        // pointer-chases a large footprint (window-blocked memory
        // stalls): both classes of quiet span in one run.
        let wl = || -> Vec<Box<dyn Workload>> {
            vec![
                Box::new(ReplayWorkload::cycle(vec![TraceOp::Exec(64), TraceOp::Load(1 << 21)])),
                Box::new(ReplayWorkload::cycle(
                    (0..2048u64).map(|i| TraceOp::Load((2 << 20) + i * 64)).collect(),
                )),
            ]
        };
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 2048 });
        cfg.instructions_per_core = 10_000;
        let stats = run_both_kernels(cfg, wl);
        assert!(stats.cores[1].window_stall_cycles > 0, "stalls must occur to be skipped");
    }

    #[test]
    fn kernels_bit_identical_with_memory_latency_beyond_event_window() {
        // DataReady events land 48 K cycles out, far behind the L1-hit
        // and L2-response traffic: pushes insert ahead of far fills on
        // the hot path of both kernels, and long quiet spans end on them.
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 4096 });
        cfg.mem.latency = 49_152;
        cfg.instructions_per_core = 5_000;
        run_both_kernels(cfg, private_streams);
    }

    #[test]
    fn event_queue_counts_ring_hits_and_overflow_spills() {
        // One tier: every push counts in `ring_pushes`, however far
        // ahead, and `overflow_pushes` stays 0.
        let mut q = EventQueue::default();
        let ev = |core: usize| EvKind::L1Hit { core, id: 0, issued_at: 0 };
        q.push(3, ev(0));
        q.push(5 * 16 * 1024, ev(1));
        q.push(900, ev(2));
        assert_eq!(q.stats(), EventQueueStats { ring_pushes: 3, overflow_pushes: 0 });
        while q.pop_due(6 * 16 * 1024).is_some() {}
        assert_eq!(q.stats().ring_pushes, 3, "pops do not move the counters");
        // A fresh run resets the counters.
        q.reset();
        assert_eq!(q.stats(), EventQueueStats::default());
    }

    #[test]
    fn scratch_exposes_event_queue_stats_after_run() {
        let mut scratch = SimScratch::default();
        let mut cfg = tiny_cfg(Technique::Baseline);
        // Fills 32 K cycles out are ordinary pushes too.
        cfg.mem.latency = 2 * 16 * 1024;
        let stats = run_feeds_with_scratch(cfg, live(private_streams()), &mut scratch);
        let s = scratch.event_queue_stats();
        assert!(s.ring_pushes > stats.mem_fills, "every fill and every L1 hit is a push");
        assert_eq!(s.overflow_pushes, 0, "the queue has one tier");
        // The counters restart with each run: an identical second run
        // reports the same counts, not twice them.
        run_feeds_with_scratch(cfg, live(private_streams()), &mut scratch);
        assert_eq!(scratch.event_queue_stats(), s);
    }

    #[test]
    fn kernels_bit_identical_through_blocked_write_bursts() {
        // Store bursts to distinct lines: the write buffer fills, its
        // drain jams on a full L2 MSHR behind slow memory, and the cores
        // spin on refused stores. Those cores stay awake (a retried
        // store is `Ready`, and the write buffer is not empty), so the
        // skip kernel steps these spans cycle by cycle; only the spans
        // where every core sleeps with empty queues are jumped, and the
        // reject stalls and L2 retries must match the reference.
        let wl = || -> Vec<Box<dyn Workload>> {
            (0..2)
                .map(|c| {
                    let base = (c as u64 + 1) << 21;
                    let ops: Vec<TraceOp> =
                        (0..4096u64).map(|i| TraceOp::Store(base + i * 64)).collect();
                    Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
                })
                .collect()
        };
        for technique in
            [Technique::Baseline, Technique::Protocol, Technique::Decay { decay_cycles: 2048 }]
        {
            let mut cfg = tiny_cfg(technique);
            cfg.instructions_per_core = 6_000;
            cfg.mem.latency = 1_000; // long fills keep the MSHR saturated
            let stats = run_both_kernels(cfg, wl);
            let rejects: u64 = stats.cores.iter().map(|c| c.reject_stall_cycles).sum();
            assert!(rejects > 0, "cores must actually block on refused stores");
            let retries: u64 = stats.l2.iter().map(|s| s.retries).sum();
            assert!(retries > 0, "the blocked drain head must accrue L2 retries");
        }
    }

    #[test]
    fn kernels_bit_identical_through_blocked_read_bursts() {
        // Load bursts to distinct lines: the L1 MSHRs outpace the L2
        // MSHRs behind a slow memory, so the L2 read queues jam on a
        // retried head. A core with a non-empty read queue stays awake,
        // so the skip kernel steps these spans cycle by cycle; the window
        // stalls settled after the queues drain and the read head's L2
        // retries must match the reference.
        let wl = || -> Vec<Box<dyn Workload>> {
            (0..2)
                .map(|c| {
                    let base = (c as u64 + 1) << 21;
                    let ops: Vec<TraceOp> =
                        (0..4096u64).map(|i| TraceOp::Load(base + i * 64)).collect();
                    Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
                })
                .collect()
        };
        for technique in
            [Technique::Baseline, Technique::Protocol, Technique::Decay { decay_cycles: 2048 }]
        {
            let mut cfg = tiny_cfg(technique);
            cfg.instructions_per_core = 6_000;
            cfg.mem.latency = 1_000; // long fills keep the L2 MSHR saturated
            cfg.l1.mshr_entries = 16; // the L1 feeds faster than the L2 drains
            cfg.l2.mshr_entries = 2;
            cfg.core.max_outstanding_loads = 16;
            let stats = run_both_kernels(cfg, wl);
            let retries: u64 = stats.l2.iter().map(|s| s.retries).sum();
            assert!(retries > 0, "the blocked read head must accrue L2 retries");
            let stalls: u64 = stats.cores.iter().map(|c| c.window_stall_cycles).sum();
            assert!(stalls > 0, "cores must actually block behind the jammed reads");
        }
    }

    #[test]
    fn kernels_bit_identical_at_cycle_cap() {
        let mut cfg = tiny_cfg(Technique::Decay { decay_cycles: 1024 });
        cfg.max_cycles = 7_777; // cut mid-run, also mid-interval
        let stats = run_both_kernels(cfg, private_streams);
        assert_eq!(stats.cycles, 7_777);
    }

    #[test]
    fn event_queue_orders_like_a_heap_across_overflow() {
        let mut q = EventQueue::default();
        let ev = |core: usize| EvKind::L1Hit { core, id: 0, issued_at: 0 };
        // Far-future events (overflow), then near ones, interleaved on
        // the same cycle to exercise FIFO-per-cycle across migration.
        q.push(5000, ev(0));
        q.push(3, ev(1));
        q.push(3, ev(2));
        q.push(5000, ev(3));
        q.push(1500, ev(4));
        assert_eq!(q.next_at(), Some(3));
        assert!(q.pop_due(2).is_none());
        assert_eq!(q.pop_due(3), Some(ev(1)));
        assert_eq!(q.pop_due(3), Some(ev(2)));
        assert!(q.pop_due(3).is_none());
        assert_eq!(q.next_at(), Some(1500));
        // Jump far ahead: both the in-window and the overflow events
        // drain in time order with FIFO ties.
        assert_eq!(q.pop_due(6000), Some(ev(4)));
        assert_eq!(q.pop_due(6000), Some(ev(0)));
        assert_eq!(q.pop_due(6000), Some(ev(3)));
        assert!(q.pop_due(6000).is_none());
        assert!(q.is_empty());
    }

    /// One step of the event-queue property test.
    #[derive(Debug, Clone, Copy)]
    enum QueueOp {
        /// Push an event this many cycles after the current cycle.
        Push(u64),
        /// Advance the current cycle by this many cycles, then pop once.
        Pop(u64),
    }

    fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
        proptest::collection::vec(
            prop_oneof![
                // Near pushes: many same-cycle ties.
                (0u64..4).prop_map(QueueOp::Push),
                // Far pushes on a coarse grid: ties far behind the front.
                (0u64..64).prop_map(|k| QueueOp::Push(k * 1024)),
                (0u64..4 * 16 * 1024).prop_map(QueueOp::Push),
                (0u64..3).prop_map(QueueOp::Pop),
                (0u64..4 * 16 * 1024).prop_map(QueueOp::Pop),
            ],
            1..400,
        )
    }

    proptest! {
        /// The deque pops exactly like a heap keyed by `(cycle, push
        /// sequence)`: cycle order, FIFO within a cycle.
        #[test]
        fn event_queue_pops_like_a_cycle_seq_heap(ops in queue_ops()) {
            let mut q = EventQueue::default();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut now, mut pushes) = (0u64, 0u64);
            for op in ops {
                match op {
                    QueueOp::Push(ahead) => {
                        let at = now + ahead;
                        q.push(at, EvKind::L1Hit { core: 0, id: pushes, issued_at: now });
                        model.push(Reverse((at, pushes)));
                        pushes += 1;
                    }
                    QueueOp::Pop(step) => {
                        now += step;
                        let want = match model.peek() {
                            Some(&Reverse((at, _))) if at <= now => {
                                model.pop().map(|Reverse((_, seq))| seq)
                            }
                            _ => None,
                        };
                        let got = q.pop_due(now).map(|ev| match ev {
                            EvKind::L1Hit { id, .. } => id,
                            other => panic!("only L1 hits were pushed, popped {other:?}"),
                        });
                        prop_assert_eq!(got, want, "pop at cycle {}", now);
                    }
                }
                prop_assert_eq!(q.next_at(), model.peek().map(|&Reverse((at, _))| at));
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.stats().ring_pushes, pushes);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let mut scratch = SimScratch::default();
        let a = run_feeds_with_scratch(
            tiny_cfg(Technique::Protocol),
            live(sharing_streams()),
            &mut scratch,
        );
        // Second run adopts the warmed pools; results must not change.
        let b = run_feeds_with_scratch(
            tiny_cfg(Technique::Protocol),
            live(sharing_streams()),
            &mut scratch,
        );
        let fresh = run_simulation(tiny_cfg(Technique::Protocol), sharing_streams());
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn amat_reflects_l1_hits_mostly() {
        let stats = run_simulation(tiny_cfg(Technique::Baseline), private_streams());
        let amat = stats.amat();
        assert!(amat >= 2.0, "amat {amat} must be at least the L1 hit latency");
        assert!(amat < 60.0, "private strided loads should mostly hit, amat {amat}");
    }

    /// Two cores over 16 KiB L2s (32 sets × 8 ways, 1 KiB L1s): each
    /// core's 96 private lines, 32 lines both cores write and 32 lines
    /// it only stores to, five lines per set, visited in passes that
    /// store to every third line and end in an idle span longer than the
    /// decay interval. Decaying lines turn off clean and dirty, through
    /// TC/TD while the L1 holds a copy, and some turn-offs wait behind a
    /// buffered store. `spill` adds nine lines of core 0 in one set,
    /// which cannot all fit.
    fn ladder_cfg(technique: Technique, l2_bytes: usize) -> CmpConfig {
        let mut cfg = tiny_cfg(technique);
        cfg.l2.size_bytes = l2_bytes;
        cfg.instructions_per_core = 60_000;
        cfg
    }

    fn ladder_streams(spill: bool) -> Vec<Box<dyn Workload>> {
        (0..2u64)
            .map(|c| {
                let private = (c + 1) << 20;
                let shared = 3 << 20;
                let mut ops = Vec::new();
                for pass in 0..4u64 {
                    for i in 0..96u64 {
                        let a = private + i * 64;
                        ops.push(TraceOp::Load(a));
                        ops.push(TraceOp::Exec(1 + ((i * 7 + pass * 13) % 5) as u32));
                        if (i + pass) % 3 == 0 {
                            ops.push(TraceOp::Store(a + 8));
                        }
                    }
                    for i in 0..32u64 {
                        let a = shared + i * 64;
                        ops.push(if (i + c + pass) % 2 == 0 {
                            TraceOp::Store(a)
                        } else {
                            TraceOp::Load(a)
                        });
                        ops.push(TraceOp::Exec(3));
                    }
                    if spill && c == 0 {
                        ops.extend((0..9u64).map(|k| TraceOp::Load((5 << 20) + k * 32 * 64)));
                    }
                    // About a decay interval after the loads above: a
                    // burst of store misses fills the MSHR, and the
                    // stores to private lines queue behind it while
                    // their lines decay.
                    ops.push(TraceOp::Exec(2_400 + 400 * pass as u32));
                    ops.extend((0..32u64).map(|i| TraceOp::Store(private + (4 << 16) + i * 64)));
                    ops.extend((0..96u64).step_by(2).map(|i| TraceOp::Store(private + i * 64)));
                    ops.push(TraceOp::Exec(4_000 * (pass as u32 + 1)));
                }
                Box::new(ReplayWorkload::cycle(ops)) as Box<dyn Workload>
            })
            .collect()
    }

    const LADDER_TECHNIQUES: [Technique; 6] = [
        Technique::Baseline,
        Technique::Protocol,
        Technique::Decay { decay_cycles: 1024 },
        Technique::Decay { decay_cycles: 4096 },
        Technique::SelectiveDecay { decay_cycles: 1024 },
        Technique::SelectiveDecay { decay_cycles: 4096 },
    ];

    #[test]
    fn larger_sizes_derived_from_a_run_that_never_filled_a_set_equal_plain_runs() {
        let small = 16 * 1024;
        let larger = [2 * small, 4 * small];
        let mut scratch = SimScratch::default();
        for technique in LADDER_TECHNIQUES {
            let (stats, sizes, fork) = run_feeds_with_larger(
                ladder_cfg(technique, small),
                live(ladder_streams(false)),
                &larger,
                &mut scratch,
            );
            assert!(sizes.derivable(), "{technique}: {} full-set fills", sizes.full_set_fills);
            assert!(fork.is_none(), "{technique}: a run that never filled a set forked");
            let plain = run_simulation(ladder_cfg(technique, small), ladder_streams(false));
            assert_eq!(stats, plain, "{technique}: the larger shadows changed the run");
            if technique.has_decay_logic() {
                let sum =
                    |f: fn(&crate::stats::L2Stats) -> u64| stats.l2.iter().map(f).sum::<u64>();
                assert!(sum(|l| l.turnoffs_decay) > 0, "{technique}: no decay turn-off");
                // Selective Decay never decays a Modified line.
                let dirty = sum(|l| l.dirty_decay_turnoffs);
                assert_eq!(
                    dirty > 0,
                    matches!(technique, Technique::Decay { .. }),
                    "{technique}: {dirty} dirty turn-offs"
                );
                let grants: u64 = stats.l1.iter().map(|l| l.technique_back_invalidations).sum();
                assert!(grants > 0, "{technique}: no turn-off went through TC/TD");
            }
            for (i, &bytes) in larger.iter().enumerate() {
                let lines = (bytes / 64) as u64;
                let derived = stats.at_larger_size(
                    lines,
                    &sizes.induced_misses[i],
                    !technique.gates_cold_lines(),
                );
                let plain = run_simulation(ladder_cfg(technique, bytes), ladder_streams(false));
                assert_eq!(derived, plain, "{technique} at {bytes} B per core");
            }
        }
    }

    #[test]
    fn a_run_that_fills_a_set_cannot_be_derived() {
        for technique in LADDER_TECHNIQUES {
            let (stats, sizes, fork) = run_feeds_with_larger(
                ladder_cfg(technique, 16 * 1024),
                live(ladder_streams(true)),
                &[32 * 1024],
                &mut SimScratch::default(),
            );
            assert!(!sizes.derivable(), "{technique}: nine lines share an 8-way set");
            assert!(fork.is_none(), "{technique}: a run over live feeds forked");
            let evictions: u64 = stats.l2.iter().map(|l| l.evictions).sum();
            assert!(sizes.full_set_fills >= evictions && evictions > 0, "{technique}");
        }
    }

    /// Climb the per-core L2 sizes `sizes` (ascending) as a sweep ladder
    /// does, over replayed traces of `streams`: run the smallest with
    /// shadows of the rest; derive every larger size from a run that
    /// never filled a set, and otherwise resume the run's fork at the
    /// next size. Every size's statistics must equal a plain run's at
    /// that size. Returns the cycle each resumed size was forked at.
    fn climb(
        cfg: impl Fn(usize) -> CmpConfig,
        sizes: &[usize],
        streams: impl Fn() -> Vec<Box<dyn Workload>>,
    ) -> Vec<u64> {
        let technique = cfg(sizes[0]).technique;
        let plain = |bytes| run_simulation(cfg(bytes), streams());
        let mut scratch = SimScratch::default();
        let (mut stats, mut larger, mut fork) = run_feeds_with_larger(
            cfg(sizes[0]),
            replayed(&cfg(sizes[0]), streams()),
            &sizes[1..],
            &mut scratch,
        );
        let mut resumed = Vec::new();
        for (i, &bytes) in sizes.iter().enumerate() {
            assert_eq!(stats, plain(bytes), "{technique} at {bytes} B per core");
            let above = &sizes[i + 1..];
            if larger.derivable() || above.is_empty() {
                assert!(fork.is_none(), "{technique} at {bytes} B: a fork without a full set");
                for (&size, induced) in above.iter().zip(&larger.induced_misses) {
                    let lines = (size / 64) as u64;
                    let derived =
                        stats.at_larger_size(lines, induced, !technique.gates_cold_lines());
                    assert_eq!(derived, plain(size), "{technique} at {size} B, derived");
                }
                break;
            }
            let next = fork.take().expect("a replayed run that fills a set forks");
            assert_eq!(next.l2_bytes(), above[0], "{technique}: the fork runs the next size");
            resumed.push(next.cycle());
            (stats, larger, fork) = resume_fork(next, &mut scratch);
        }
        resumed
    }

    #[test]
    fn forks_resumed_at_2x_and_4x_equal_plain_runs() {
        let small = 16 * 1024;
        for technique in LADDER_TECHNIQUES {
            let cfg = |bytes| ladder_cfg(technique, bytes);
            // Nine spill lines share one set at 1×, and five of them one
            // set at 2× beside four other lines. Under plain decay those
            // four have decayed by then, so the 2× fork never fills a set
            // and 4× is derived from it; every other technique forks
            // again at 2×.
            let resumed = climb(cfg, &[small, 2 * small, 4 * small], || ladder_streams(true));
            let forks = if matches!(technique, Technique::Decay { .. }) { 1 } else { 2 };
            assert_eq!(resumed.len(), forks, "{technique}: resumed at {resumed:?}");
            // A 1× run shadowing only 4× forks straight at 4×.
            let direct = climb(cfg, &[small, 4 * small], || ladder_streams(true));
            assert_eq!(direct, &resumed[..1], "{technique}: forks at the first full-set fill");
        }
    }

    /// The full scan sums powered lines every cycle and the per-cycle
    /// kernel steps every cycle: a fork carries both books over exactly,
    /// the baseline's scaled to its larger line count.
    #[test]
    fn forks_resume_exactly_under_every_kernel_and_engine() {
        let small = 16 * 1024;
        for technique in [Technique::Baseline, Technique::SelectiveDecay { decay_cycles: 1024 }] {
            for kernel in [SimKernel::PerCycle, SimKernel::QuiescenceSkip] {
                for engine in [CycleEngine::FullScan, CycleEngine::Worklist] {
                    let cfg = |bytes| CmpConfig { kernel, engine, ..ladder_cfg(technique, bytes) };
                    let resumed =
                        climb(cfg, &[small, 2 * small, 4 * small], || ladder_streams(true));
                    assert_eq!(resumed.len(), 2, "{technique}, {kernel:?} × {engine:?}");
                }
            }
        }
    }

    /// Core 0 loads eight lines of one L2 set into its fully associative
    /// L1, and a ninth line of that set once they have decayed: the
    /// eight turn off together through TC, so while their L1 copies are
    /// invalidated the ninth fill finds every way transient.
    fn transient_set_streams() -> Vec<Box<dyn Workload>> {
        let set = 5u64 << 20;
        let mut ops = vec![TraceOp::Exec(200)];
        ops.extend((0..8u64).map(|k| TraceOp::Load(set + k * 32 * 64)));
        ops.push(TraceOp::Exec(2_528));
        ops.push(TraceOp::Load(set + 8 * 32 * 64));
        ops.push(TraceOp::Exec(1_000_000));
        vec![
            Box::new(ReplayWorkload::cycle(ops)),
            Box::new(ReplayWorkload::cycle(vec![TraceOp::Exec(1_000_000)])),
        ]
    }

    fn transient_set_cfg(technique: Technique, l2_bytes: usize) -> CmpConfig {
        let mut cfg = ladder_cfg(technique, l2_bytes);
        cfg.l1.assoc = 16;
        cfg.instructions_per_core = 12_000;
        cfg
    }

    #[test]
    fn a_fill_refused_because_every_way_is_transient_forks_exactly() {
        let technique = Technique::Decay { decay_cycles: 1024 };
        let cfg = |bytes| transient_set_cfg(technique, bytes);
        let small = 16 * 1024;
        let (stats, sizes, fork) = run_feeds_with_larger(
            cfg(small),
            replayed(&cfg(small), transient_set_streams()),
            &[2 * small],
            &mut SimScratch::default(),
        );
        let evictions: u64 = stats.l2.iter().map(|l| l.evictions).sum();
        assert_eq!((sizes.full_set_fills, evictions), (1, 0), "the one full-set fill is refused");
        assert!(fork.is_some());
        assert_eq!(climb(cfg, &[small, 2 * small], transient_set_streams).len(), 1);
    }

    /// Core 1 stores a line of core 0's set and then loops over lines of
    /// its own; core 0 fills that set and reads the line, which core 1
    /// supplies. The supplied fill evicts, and it lands on the cycle a
    /// memory fill of core 1, granted earlier, arrives: it is the second
    /// event of its cycle.
    fn second_event_streams() -> Vec<Box<dyn Workload>> {
        let set = 5u64 << 20;
        let supplied = set + 8 * 32 * 64;
        let mut ops = (0..8u64).map(|k| TraceOp::Load(set + k * 32 * 64)).collect::<Vec<_>>();
        ops.push(TraceOp::Exec(312));
        ops.push(TraceOp::Load(supplied));
        ops.push(TraceOp::Exec(1_000_000));
        let mut hits = vec![TraceOp::Store(supplied)];
        for _ in 0..40 {
            for i in 0..32u64 {
                hits.push(TraceOp::Load((2 << 20) + i * 64));
                hits.push(TraceOp::Exec(1));
            }
        }
        hits.push(TraceOp::Exec(1_000_000));
        vec![Box::new(ReplayWorkload::cycle(ops)), Box::new(ReplayWorkload::cycle(hits))]
    }

    #[test]
    fn a_fork_at_the_second_event_of_its_cycle_resumes_exactly() {
        let small = 16 * 1024;
        for technique in [
            Technique::Protocol,
            Technique::Decay { decay_cycles: 4096 },
            Technique::SelectiveDecay { decay_cycles: 4096 },
        ] {
            let cfg = |bytes| transient_set_cfg(technique, bytes);
            let (_, _, fork) = run_feeds_with_larger(
                cfg(small),
                replayed(&cfg(small), second_event_streams()),
                &[2 * small],
                &mut SimScratch::default(),
            );
            let fork = fork.expect("the supplied fill fills a set");
            let at = fork.cycle();
            let pending = fork.sys.events.queue.front().copied();
            assert!(
                matches!(pending, Some((t, EvKind::DataReady { core: 0, .. })) if t == at),
                "{technique}: the fork resumes with the fill at the front: {pending:?}"
            );
            // The same run stopped just before that cycle holds its events
            // in the order they pop: the fill is the cycle's second.
            let mut capped = cfg(small);
            capped.max_cycles = at;
            let mut sys = CmpSystem::with_feeds(
                capped,
                replayed(&capped, second_event_streams()),
                &[2 * small],
                &mut SimScratch::default(),
            );
            sys.run_loop();
            let due: Vec<(u64, EvKind)> =
                sys.events.queue.iter().copied().filter(|&(t, _)| t == at).collect();
            assert_eq!(due.iter().position(|&e| Some(e) == pending), Some(1), "{technique}");
            assert_eq!(climb(cfg, &[small, 2 * small], second_event_streams), [at]);
        }
    }
}
