//! The interval-style superscalar core model.
//!
//! # Timing semantics
//!
//! * Up to [`CoreConfig::width`] instructions dispatch per cycle.
//! * `Exec(n)` ops dispatch `width` instructions per cycle and never
//!   touch memory.
//! * A **load** is handed to the memory hierarchy through [`CorePort`];
//!   the core keeps dispatching younger instructions while the load is
//!   outstanding, up to [`CoreConfig::window`] instructions past the
//!   *oldest* incomplete load (the re-order buffer fills), and at most
//!   [`CoreConfig::max_outstanding_loads`] loads may be in flight (the
//!   load queue fills). Either limit stalls dispatch — this is the
//!   OoO-latency-tolerance abstraction.
//! * A **store** is handed to the port (the L1 is write-through with a
//!   write buffer, so stores retire immediately unless the hierarchy
//!   refuses them, e.g. the write buffer is full).
//! * A refused load/store is retried every cycle until accepted.
//!
//! The model is passive: `cmpleak-system` calls [`CoreModel::tick`] once
//! per cycle with the core's workload and an adapter implementing
//! [`CorePort`], and reports completions via
//! [`CoreModel::on_load_complete`].

use crate::trace::{TraceOp, Workload};
use std::collections::VecDeque;

/// Static configuration of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch width (instructions/cycle). The paper's 21264-class core
    /// is 4-wide.
    pub width: u32,
    /// How many instructions may dispatch past the oldest incomplete
    /// load before the core stalls (ROB-size abstraction).
    pub window: u64,
    /// Maximum loads in flight (load-queue / core-MSHR abstraction).
    pub max_outstanding_loads: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self { width: 4, window: 64, max_outstanding_loads: 8 }
    }
}

/// The memory hierarchy as seen by one core for one cycle.
///
/// Implementations may refuse a request (return `false`/`None`) when a
/// structural resource is exhausted; the core retries next cycle.
pub trait CorePort {
    /// Issue a load for `addr` tagged with `id`; completion arrives later
    /// via [`CoreModel::on_load_complete`]. Returns `false` to refuse.
    fn try_load(&mut self, addr: u64, id: u64) -> bool;
    /// Issue a (write-through) store for `addr`. Returns `false` to
    /// refuse.
    fn try_store(&mut self, addr: u64) -> bool;
}

/// What a core can do on its next tick — the worklist engine lets a core
/// sleep only in one of the two blocked states.
///
/// The contract with [`CoreModel::tick`]: in a blocked state a tick
/// performs **no** workload or port call; an `Idle` tick mutates
/// nothing, and a `WindowBlocked` tick mutates exactly the statistics
/// that [`CoreModel::charge_window_stalls`] charges, so `k` blocked
/// ticks can be replaced by one bulk charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressState {
    /// Budget exhausted and no retry pending: a tick is a strict no-op
    /// (loads may still be outstanding; their completion is event-driven).
    Idle,
    /// Dispatch is blocked behind the oldest incomplete load (ROB window
    /// full, or the load queue is full with a load waiting to issue).
    /// Each tick charges one active + one window-stall cycle; only a
    /// load completion can unblock it.
    WindowBlocked,
    /// The core can dispatch, must attempt a workload fetch whose
    /// outcome the core cannot predict, or must re-present a refused
    /// load or store to the port: it must be ticked. A tick that
    /// dispatches nothing charges one active cycle and exactly one
    /// reject or window stall.
    Ready,
}

/// Runtime statistics of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions dispatched (= retired at drain; the model does not
    /// speculate).
    pub instructions: u64,
    /// Cycles ticked while the instruction budget was not yet reached.
    pub active_cycles: u64,
    /// Cycles in which nothing dispatched because the window was full
    /// behind an incomplete load.
    pub window_stall_cycles: u64,
    /// Cycles in which a memory op was refused by the hierarchy.
    pub reject_stall_cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
}

/// One simulated core.
#[derive(Debug)]
pub struct CoreModel {
    cfg: CoreConfig,
    stats: CoreStats,
    /// Remaining ALU instructions of the `Exec` op being dispatched.
    pending_exec: u32,
    /// A memory op that was refused and must retry.
    retry: Option<TraceOp>,
    /// Instruction indices at which outstanding loads were dispatched,
    /// oldest first, keyed by load id.
    outstanding: VecDeque<(u64, u64)>,
    /// Instruction count at which the window fills: the oldest
    /// outstanding load's dispatch index plus `window`, or `u64::MAX`
    /// with no load outstanding. Updated whenever the front of
    /// `outstanding` changes.
    window_limit: u64,
    next_load_id: u64,
    /// Instruction budget; the core stops fetching once reached.
    budget: u64,
}

impl CoreModel {
    /// A core that will dispatch `budget` instructions and then idle.
    pub fn new(cfg: CoreConfig, budget: u64) -> Self {
        assert!(cfg.width >= 1 && cfg.window >= 1 && cfg.max_outstanding_loads >= 1);
        Self {
            cfg,
            stats: CoreStats::default(),
            pending_exec: 0,
            retry: None,
            outstanding: VecDeque::new(),
            window_limit: u64::MAX,
            next_load_id: 0,
            budget,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// All budgeted instructions dispatched and no load in flight.
    pub fn drained(&self) -> bool {
        self.stats.instructions >= self.budget
            && self.outstanding.is_empty()
            && self.retry.is_none()
    }

    /// A load issued earlier completed.
    pub fn on_load_complete(&mut self, id: u64) {
        if let Some(pos) = self.outstanding.iter().position(|&(lid, _)| lid == id) {
            self.outstanding.remove(pos);
            if pos == 0 {
                self.refresh_window_limit();
            }
        }
    }

    fn refresh_window_limit(&mut self) {
        self.window_limit = match self.outstanding.front() {
            Some(&(_, dispatched_at)) => dispatched_at.saturating_add(self.cfg.window),
            None => u64::MAX,
        };
    }

    /// Loads currently in flight.
    pub fn outstanding_loads(&self) -> usize {
        self.outstanding.len()
    }

    /// Classify what the next [`CoreModel::tick`] would do, mirroring its
    /// dispatch gates exactly (budget/retry, window, load queue) without
    /// mutating anything. See [`ProgressState`].
    pub fn progress_state(&self) -> ProgressState {
        if self.stats.instructions >= self.budget && self.retry.is_none() {
            return ProgressState::Idle;
        }
        // A retried load meets a full load queue before the port is
        // consulted (counted as a window stall, exactly as `tick` does).
        if self.window_full()
            || (matches!(self.retry, Some(TraceOp::Load(_)))
                && self.outstanding.len() >= self.cfg.max_outstanding_loads)
        {
            return ProgressState::WindowBlocked;
        }
        ProgressState::Ready
    }

    /// Account `cycles` window-blocked ticks in one step: the exact
    /// statistics `cycles` calls to [`CoreModel::tick`] would have
    /// accrued in [`ProgressState::WindowBlocked`].
    pub fn charge_window_stalls(&mut self, cycles: u64) {
        self.stats.active_cycles += cycles;
        self.stats.window_stall_cycles += cycles;
    }

    #[inline]
    fn window_full(&self) -> bool {
        self.stats.instructions >= self.window_limit
    }

    /// Advance one cycle: dispatch up to `width` instructions, fetching
    /// ops from `src` as dispatch consumes them.
    ///
    /// Fetches follow the budget-cursor contract documented on
    /// [`Workload`]: `src.next_op()` is called only while
    /// `instructions < budget`, so a finite stream covering the budget
    /// covers the whole run.
    ///
    /// Returns the number of instructions dispatched this cycle (0 when
    /// stalled or finished).
    ///
    /// Generic over the stream so the simulator's enum-dispatched
    /// per-core feeds monomorphize the fetch path; `&mut dyn Workload`
    /// callers resolve to the dynamic instantiation unchanged.
    pub fn tick<S: Workload + ?Sized>(&mut self, src: &mut S, port: &mut dyn CorePort) -> u32 {
        if self.stats.instructions >= self.budget && self.retry.is_none() {
            return 0;
        }
        self.stats.active_cycles += 1;

        let mut dispatched = 0u32;
        // Dispatch is strictly in order, so a pending retry implies the
        // instruction count has not reached the budget yet.
        while dispatched < self.cfg.width
            && (self.stats.instructions < self.budget || self.retry.is_some())
        {
            // Window stall applies to every instruction class: dispatch
            // is in order even though loads complete out of order.
            if self.window_full() {
                if dispatched == 0 {
                    self.stats.window_stall_cycles += 1;
                }
                break;
            }
            // Continue a partially dispatched Exec op first, clamped to
            // the budget so every run dispatches exactly `budget`
            // instructions (fixed-work comparisons depend on it).
            if self.pending_exec > 0 {
                let room = (self.budget - self.stats.instructions).min(u32::MAX as u64) as u32;
                let n = self.pending_exec.min(self.cfg.width - dispatched).min(room);
                if n == 0 {
                    self.pending_exec = 0; // budget cut mid-burst: drop the tail
                    break;
                }
                self.pending_exec -= n;
                dispatched += n;
                self.stats.instructions += n as u64;
                continue;
            }
            let op = match self.retry.take() {
                Some(op) => op,
                None => src.next_op(),
            };
            match op {
                TraceOp::Exec(n) => {
                    self.pending_exec = n;
                    if n == 0 {
                        continue; // tolerate empty exec bursts
                    }
                }
                TraceOp::Load(addr) => {
                    if self.outstanding.len() >= self.cfg.max_outstanding_loads {
                        self.retry = Some(op);
                        if dispatched == 0 {
                            self.stats.window_stall_cycles += 1;
                        }
                        break;
                    }
                    let id = self.next_load_id;
                    if !port.try_load(addr, id) {
                        self.retry = Some(op);
                        if dispatched == 0 {
                            self.stats.reject_stall_cycles += 1;
                        }
                        break;
                    }
                    self.next_load_id += 1;
                    self.outstanding.push_back((id, self.stats.instructions));
                    if self.outstanding.len() == 1 {
                        self.refresh_window_limit();
                    }
                    self.stats.instructions += 1;
                    self.stats.loads += 1;
                    dispatched += 1;
                }
                TraceOp::Store(addr) => {
                    if !port.try_store(addr) {
                        self.retry = Some(op);
                        if dispatched == 0 {
                            self.stats.reject_stall_cycles += 1;
                        }
                        break;
                    }
                    self.stats.instructions += 1;
                    self.stats.stores += 1;
                    dispatched += 1;
                }
            }
        }
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ReplayWorkload, TraceOp};

    /// A port with configurable acceptance and scripted load latencies.
    struct TestPort {
        accept_loads: bool,
        accept_stores: bool,
        issued_loads: Vec<(u64, u64)>,
        issued_stores: Vec<u64>,
    }

    impl TestPort {
        fn open() -> Self {
            Self {
                accept_loads: true,
                accept_stores: true,
                issued_loads: vec![],
                issued_stores: vec![],
            }
        }
    }

    impl CorePort for TestPort {
        fn try_load(&mut self, addr: u64, id: u64) -> bool {
            if self.accept_loads {
                self.issued_loads.push((addr, id));
            }
            self.accept_loads
        }
        fn try_store(&mut self, addr: u64) -> bool {
            if self.accept_stores {
                self.issued_stores.push(addr);
            }
            self.accept_stores
        }
    }

    #[test]
    fn exec_ops_dispatch_at_width() {
        let mut core =
            CoreModel::new(CoreConfig { width: 4, window: 64, max_outstanding_loads: 8 }, 16);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Exec(16)]);
        let mut port = TestPort::open();
        let mut cycles = 0;
        while !core.drained() {
            core.tick(&mut wl, &mut port);
            cycles += 1;
            assert!(cycles < 100);
        }
        assert_eq!(cycles, 4, "16 instructions at width 4");
        assert_eq!(core.stats().instructions, 16);
    }

    #[test]
    fn loads_overlap_within_the_window() {
        let mut core =
            CoreModel::new(CoreConfig { width: 1, window: 100, max_outstanding_loads: 8 }, 4);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Load(0)]);
        let mut port = TestPort::open();
        core.tick(&mut wl, &mut port);
        core.tick(&mut wl, &mut port);
        core.tick(&mut wl, &mut port);
        assert_eq!(core.outstanding_loads(), 3, "window permits overlap");
    }

    #[test]
    fn window_fills_behind_oldest_incomplete_load() {
        let mut core =
            CoreModel::new(CoreConfig { width: 4, window: 8, max_outstanding_loads: 8 }, 1000);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Load(0), TraceOp::Exec(100)]);
        let mut port = TestPort::open();
        // First cycle: load + 3 exec dispatch.
        core.tick(&mut wl, &mut port);
        // Keep ticking without completing the load: dispatch must stop at
        // window=8 instructions past the load.
        for _ in 0..10 {
            core.tick(&mut wl, &mut port);
        }
        assert!(core.stats().instructions <= 1 + 8);
        assert!(core.stats().window_stall_cycles > 0);
        // Completing the load reopens the window.
        let before = core.stats().instructions;
        core.on_load_complete(0);
        core.tick(&mut wl, &mut port);
        assert!(core.stats().instructions > before);
    }

    #[test]
    fn window_follows_the_oldest_load_through_out_of_order_completion() {
        let mut core =
            CoreModel::new(CoreConfig { width: 1, window: 4, max_outstanding_loads: 8 }, 1000);
        let loads = [TraceOp::Load(0), TraceOp::Load(64), TraceOp::Load(128)];
        let mut wl = ReplayWorkload::cycle([&loads[..], &[TraceOp::Exec(100)]].concat());
        let mut port = TestPort::open();
        for _ in 0..6 {
            core.tick(&mut wl, &mut port);
        }
        assert_eq!(core.stats().instructions, 4, "window full 4 past load 0");
        core.on_load_complete(1);
        core.tick(&mut wl, &mut port);
        assert_eq!(core.stats().instructions, 4, "a younger completion leaves it full");
        core.on_load_complete(0);
        for _ in 0..4 {
            core.tick(&mut wl, &mut port);
        }
        assert_eq!(core.stats().instructions, 6, "window now ends 4 past load 2");
    }

    #[test]
    fn load_queue_capacity_limits_flight() {
        let mut core =
            CoreModel::new(CoreConfig { width: 4, window: 1000, max_outstanding_loads: 2 }, 1000);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Load(0)]);
        let mut port = TestPort::open();
        for _ in 0..5 {
            core.tick(&mut wl, &mut port);
        }
        assert_eq!(core.outstanding_loads(), 2);
    }

    #[test]
    fn refused_ops_retry_and_count_stalls() {
        let mut core = CoreModel::new(CoreConfig::default(), 10);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Store(64)]);
        let mut port = TestPort::open();
        port.accept_stores = false;
        core.tick(&mut wl, &mut port);
        core.tick(&mut wl, &mut port);
        assert_eq!(core.stats().stores, 0);
        assert_eq!(core.stats().reject_stall_cycles, 2);
        port.accept_stores = true;
        core.tick(&mut wl, &mut port);
        assert!(core.stats().stores > 0, "retried store must eventually issue");
        // The op was consumed from the workload exactly once.
        assert_eq!(port.issued_stores.len() as u64, core.stats().stores);
    }

    #[test]
    fn budget_stops_dispatch_and_drain_waits_for_loads() {
        let mut core =
            CoreModel::new(CoreConfig { width: 1, window: 64, max_outstanding_loads: 8 }, 1);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Load(0)]);
        let mut port = TestPort::open();
        core.tick(&mut wl, &mut port);
        assert_eq!(core.stats().instructions, 1);
        assert!(!core.drained(), "load still outstanding");
        for _ in 0..3 {
            core.tick(&mut wl, &mut port);
        }
        assert_eq!(core.stats().instructions, 1, "budget respected");
        core.on_load_complete(0);
        assert!(core.drained());
    }

    #[test]
    fn ipc_of_pure_exec_equals_width() {
        let cfg = CoreConfig { width: 4, window: 64, max_outstanding_loads: 8 };
        let mut core = CoreModel::new(cfg, 4000);
        let mut wl = ReplayWorkload::cycle(vec![TraceOp::Exec(1000)]);
        let mut port = TestPort::open();
        let mut cycles = 0u64;
        while !core.drained() {
            core.tick(&mut wl, &mut port);
            cycles += 1;
        }
        let ipc = core.stats().instructions as f64 / cycles as f64;
        assert!((ipc - 4.0).abs() < 1e-9);
    }
}
