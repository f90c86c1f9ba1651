//! Property-based tests of the core timing model: for arbitrary
//! workloads and port behaviours, the model must dispatch exactly its
//! budget, never exceed its structural limits, and always drain.

use cmpleak_cpu::{CoreConfig, CoreModel, CorePort, ReplayWorkload, TraceOp};
use proptest::prelude::*;

/// A port that accepts requests according to a scripted pattern and
/// completes loads after a fixed delay.
struct ScriptedPort {
    accept_pattern: Vec<bool>,
    i: usize,
    inflight: Vec<(u64, u64)>, // (id, complete_at)
    now: u64,
    latency: u64,
}

impl ScriptedPort {
    fn new(pattern: Vec<bool>, latency: u64) -> Self {
        Self { accept_pattern: pattern, i: 0, inflight: vec![], now: 0, latency }
    }

    fn accept(&mut self) -> bool {
        let a = self.accept_pattern[self.i % self.accept_pattern.len()];
        self.i += 1;
        a
    }

    fn tick(&mut self, core: &mut CoreModel) {
        self.now += 1;
        let now = self.now;
        let (done, rest): (Vec<_>, Vec<_>) = self.inflight.drain(..).partition(|&(_, t)| t <= now);
        self.inflight = rest;
        for (id, _) in done {
            core.on_load_complete(id);
        }
    }
}

impl CorePort for ScriptedPort {
    fn try_load(&mut self, _addr: u64, id: u64) -> bool {
        if self.accept() {
            self.inflight.push((id, self.now + self.latency));
            true
        } else {
            false
        }
    }
    fn try_store(&mut self, _addr: u64) -> bool {
        self.accept()
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<TraceOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u32..12).prop_map(TraceOp::Exec),
            (0u64..1024).prop_map(|a| TraceOp::Load(a * 8)),
            (0u64..1024).prop_map(|a| TraceOp::Store(a * 8)),
        ],
        1..40,
    )
}

proptest! {
    /// Whatever the workload and acceptance pattern, the core dispatches
    /// exactly `budget` instructions and drains.
    #[test]
    fn budget_is_exact_and_model_drains(
        ops in arb_ops(),
        pattern in proptest::collection::vec(any::<bool>(), 1..8),
        budget in 1u64..3000,
        width in 1u32..8,
        window in 1u64..128,
        latency in 1u64..50,
    ) {
        // Guarantee progress: at least one accepting slot in the pattern.
        let mut pattern = pattern;
        pattern.push(true);
        let cfg = CoreConfig { width, window, max_outstanding_loads: 4 };
        let mut core = CoreModel::new(cfg, budget);
        let mut wl = ReplayWorkload::cycle(ops);
        let mut port = ScriptedPort::new(pattern, latency);
        let mut guard = 0u64;
        while !core.drained() {
            port.tick(&mut core);
            core.tick(&mut wl, &mut port);
            guard += 1;
            prop_assert!(guard < 2_000_000, "model failed to drain");
        }
        prop_assert_eq!(core.stats().instructions, budget);
        prop_assert_eq!(core.outstanding_loads(), 0);
    }

    /// IPC never exceeds the dispatch width, and per-cycle dispatch is
    /// bounded by it too.
    #[test]
    fn dispatch_bounded_by_width(
        ops in arb_ops(),
        width in 1u32..8,
    ) {
        let cfg = CoreConfig { width, window: 64, max_outstanding_loads: 8 };
        let mut core = CoreModel::new(cfg, 2000);
        let mut wl = ReplayWorkload::cycle(ops);
        let mut port = ScriptedPort::new(vec![true], 3);
        let mut cycles = 0u64;
        while !core.drained() && cycles < 1_000_000 {
            port.tick(&mut core);
            let d = core.tick(&mut wl, &mut port);
            prop_assert!(d <= width);
            cycles += 1;
        }
        let ipc = core.stats().instructions as f64 / cycles as f64;
        prop_assert!(ipc <= width as f64 + 1e-9);
    }

    /// `progress_state()` honours its contract with `tick()`: a
    /// `WindowBlocked` tick must change exactly the statistics
    /// `charge_window_stalls` would charge (and dispatch nothing); `Idle`
    /// ticks must change nothing at all; a `Ready` tick that dispatches
    /// nothing (a refused retry, or a load meeting a full queue) charges
    /// one active cycle and exactly one reject or window stall.
    #[test]
    fn progress_state_predicts_tick_deltas(
        ops in arb_ops(),
        pattern in proptest::collection::vec(any::<bool>(), 1..8),
        budget in 1u64..2000,
        width in 1u32..8,
        window in 1u64..64,
        latency in 1u64..60,
    ) {
        use cmpleak_cpu::ProgressState;
        let mut pattern = pattern;
        pattern.push(true);
        let cfg = CoreConfig { width, window, max_outstanding_loads: 3 };
        let mut core = CoreModel::new(cfg, budget);
        let mut wl = ReplayWorkload::cycle(ops);
        let mut port = ScriptedPort::new(pattern, latency);
        let mut guard = 0u64;
        loop {
            port.tick(&mut core);
            let state = core.progress_state();
            let before = core.stats();
            let dispatched = core.tick(&mut wl, &mut port);
            let after = core.stats();
            match state {
                ProgressState::Idle => {
                    prop_assert_eq!(dispatched, 0);
                    prop_assert_eq!(before, after, "idle ticks must be strict no-ops");
                }
                ProgressState::WindowBlocked => {
                    prop_assert_eq!(dispatched, 0);
                    prop_assert_eq!(after.instructions, before.instructions);
                    prop_assert_eq!(after.active_cycles, before.active_cycles + 1);
                    prop_assert_eq!(after.window_stall_cycles, before.window_stall_cycles + 1);
                    prop_assert_eq!(after.reject_stall_cycles, before.reject_stall_cycles);
                }
                ProgressState::Ready => {
                    // The port may accept this time; when nothing
                    // dispatches, the delta is one active cycle and one
                    // stall of exactly one kind.
                    if dispatched == 0 {
                        prop_assert_eq!(after.active_cycles, before.active_cycles + 1);
                        let stalls = |s: cmpleak_cpu::CoreStats| {
                            s.reject_stall_cycles + s.window_stall_cycles
                        };
                        prop_assert_eq!(stalls(after), stalls(before) + 1);
                    }
                }
            }
            if core.drained() {
                break;
            }
            guard += 1;
            prop_assert!(guard < 2_000_000, "model failed to drain");
        }
    }

    /// The outstanding-load count never exceeds the configured queue.
    #[test]
    fn load_queue_respected(
        ops in arb_ops(),
        maxq in 1usize..6,
        latency in 5u64..80,
    ) {
        let cfg = CoreConfig { width: 4, window: 256, max_outstanding_loads: maxq };
        let mut core = CoreModel::new(cfg, 1500);
        let mut wl = ReplayWorkload::cycle(ops);
        let mut port = ScriptedPort::new(vec![true], latency);
        let mut guard = 0u64;
        while !core.drained() && guard < 1_000_000 {
            port.tick(&mut core);
            core.tick(&mut wl, &mut port);
            prop_assert!(core.outstanding_loads() <= maxq);
            guard += 1;
        }
    }
}
