//! What runs on the cores of one experiment.
//!
//! A [`Scenario`] names the workload side of an experiment cell and
//! builds its per-core op streams:
//!
//! * [`Scenario::Homogeneous`] — the paper's configuration: every core
//!   runs the same [`WorkloadSpec`];
//! * [`Scenario::Mix`] — a heterogeneous multiprogrammed
//!   [`ScenarioSpec`], one spec per core;
//! * [`Scenario::SharedStream`] — replay a [`MemTrace`], shared (via
//!   `Arc`) across every experiment cell that consumes it: a sweep's
//!   in-memory recording of another scenario (same label, so its cells
//!   are indistinguishable from the live ones), or a `.cmpt` file loaded
//!   by [`Scenario::from_trace`] (labelled `<label>@trace`).
//!
//! Experiments consume a scenario through [`Scenario::build_feeds`];
//! [`Scenario::build_sources`] is the same streams as plain boxed
//! [`Workload`]s, for recording and differential tooling.

use cmpleak_cpu::Workload;
use cmpleak_system::CoreSource;
use cmpleak_trace::MemTrace;
use cmpleak_workloads::{ScenarioSpec, WorkloadSpec};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The workload half of an experiment configuration.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// Every core runs `spec` (the paper's homogeneous setup).
    Homogeneous(WorkloadSpec),
    /// Heterogeneous multiprogrammed mix.
    Mix(ScenarioSpec),
    /// Replay the per-core streams of a recording. A sweep's recording
    /// keeps the *recorded* scenario's label, so a shared-stream cell is
    /// indistinguishable (in reports, sweep cells and golden snapshots)
    /// from the live-generation cell it stands in for — which is the
    /// point: record once, replay across every cell of the group,
    /// bit-identically.
    SharedStream {
        /// The shared recording; clones and cursors alias one buffer.
        trace: Arc<MemTrace>,
    },
}

impl Scenario {
    /// Load and validate a trace file and replay it, labelled
    /// `<label>@trace`. A damaged file is an
    /// [`io::ErrorKind::InvalidData`] error here, never a panic mid-run.
    pub fn from_trace(path: impl AsRef<Path>) -> io::Result<Scenario> {
        MemTrace::open(path).map(Scenario::replaying)
    }

    /// Replay a loaded trace file, labelled `<label>@trace`.
    pub fn replaying(trace: MemTrace) -> Scenario {
        let label = format!("{}@trace", trace.label());
        Scenario::SharedStream { trace: Arc::new(trace.with_label(label)) }
    }

    /// Resolve a benchmark or curated-mix name (`FMM`, `mpeg2dec`,
    /// `mix_bursty_idle`, …).
    pub fn by_name(name: &str) -> Option<Scenario> {
        WorkloadSpec::by_name(name)
            .map(Scenario::Homogeneous)
            .or_else(|| ScenarioSpec::by_name(name).map(Scenario::Mix))
    }

    /// Every name [`Scenario::by_name`] resolves, for CLI help.
    pub fn known_names() -> Vec<String> {
        WorkloadSpec::extended_suite()
            .iter()
            .map(|s| s.name.to_string())
            .chain(ScenarioSpec::paper_mixes().into_iter().map(|m| m.name))
            .collect()
    }

    /// The label used for sweep cells, figures and trace headers.
    pub fn label(&self) -> String {
        match self {
            Scenario::Homogeneous(spec) => spec.name.to_string(),
            Scenario::Mix(mix) => mix.name.clone(),
            Scenario::SharedStream { trace } => trace.label().to_string(),
        }
    }

    /// Whether this scenario generates its streams live — i.e. whether a
    /// sweep gains anything from recording it once into a shared stream
    /// (a shared stream already shares one buffer across cells).
    pub fn generates_live(&self) -> bool {
        !matches!(self, Scenario::SharedStream { .. })
    }

    /// Record this scenario's streams, each covering
    /// `instructions_per_core` instructions. (Recording a shared stream
    /// re-encodes the replayed streams.)
    pub fn record(&self, n_cores: usize, seed: u64, instructions_per_core: u64) -> MemTrace {
        let hint = MemTrace::stream_capacity_hint(instructions_per_core);
        let buffers = (0..n_cores).map(|_| Vec::with_capacity(hint)).collect();
        self.record_into(n_cores, seed, instructions_per_core, buffers)
    }

    /// Record this scenario's streams once into caller-provided stream
    /// buffers, one per core (each cleared before use), and wrap the
    /// recording as a [`Scenario::SharedStream`]. Every experiment run
    /// from the returned scenario with the same `(n_cores, seed)` and a
    /// budget `≤ instructions_per_core` is bit-identical to running
    /// `self` live — the contract pinned by `tests/stream_sharing.rs`.
    ///
    /// # Panics
    /// Panics if `buffers.len() != n_cores`.
    pub fn record_shared_in(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
        buffers: Vec<Vec<u8>>,
    ) -> Scenario {
        let trace = self.record_into(n_cores, seed, instructions_per_core, buffers);
        Scenario::SharedStream { trace: Arc::new(trace) }
    }

    fn record_into(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
        buffers: Vec<Vec<u8>>,
    ) -> MemTrace {
        assert_eq!(buffers.len(), n_cores, "one recording buffer per core");
        let mut trace = MemTrace::new(self.label(), seed);
        for (mut src, buf) in
            self.build_sources(n_cores, seed, instructions_per_core).into_iter().zip(buffers)
        {
            trace.record_core_in(src.as_mut(), instructions_per_core, buf);
        }
        trace
    }

    /// Canonical byte encoding of everything about this scenario that
    /// determines simulation results — the scenario half of a result
    /// store content address ([`crate::store_key`]). Every field is
    /// length- or width-delimited, so distinct scenarios cannot alias.
    ///
    /// A [`Scenario::SharedStream`] encodes its label, seed, per-core
    /// metadata and every encoded stream byte.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_str(out: &mut Vec<u8>, s: &str) {
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        fn put_spec(out: &mut Vec<u8>, spec: &WorkloadSpec) {
            put_str(out, spec.name);
            out.push(match spec.class {
                cmpleak_workloads::BenchClass::Scientific => 0,
                cmpleak_workloads::BenchClass::Multimedia => 1,
            });
            put_u64(out, spec.pool_regions as u64);
            put_u64(out, spec.region_bytes as u64);
            put_u64(out, spec.hot_regions as u64);
            put_u64(out, u64::from(spec.generation_bursts));
            put_u64(out, u64::from(spec.burst_lines));
            put_u64(out, u64::from(spec.accesses_per_line));
            put_u64(out, u64::from(spec.exec_gap.0));
            put_u64(out, u64::from(spec.exec_gap.1));
            put_u64(out, spec.store_lines.to_bits());
            put_u64(out, spec.write_fraction.to_bits());
            put_u64(out, spec.shared_fraction.to_bits());
            put_u64(out, spec.shared_regions as u64);
            put_u64(out, spec.share_epoch_ops);
            out.push(u8::from(spec.revisit));
        }
        match self {
            Scenario::Homogeneous(spec) => {
                out.push(1);
                put_spec(out, spec);
            }
            Scenario::Mix(mix) => {
                out.push(2);
                put_str(out, &mix.name);
                put_u64(out, mix.assignments.len() as u64);
                for spec in &mix.assignments {
                    put_spec(out, spec);
                }
            }
            Scenario::SharedStream { trace } => {
                out.push(4);
                put_str(out, trace.label());
                put_u64(out, trace.seed());
                put_u64(out, trace.n_cores() as u64);
                for core in 0..trace.n_cores() {
                    let info = trace.core_info(core);
                    put_str(out, &info.name);
                    put_u64(out, info.ops);
                    put_u64(out, info.instructions);
                    let stream = trace.stream(core);
                    put_u64(out, stream.len() as u64);
                    out.extend_from_slice(stream);
                }
            }
        }
    }

    /// Build the per-core op streams as boxed [`Workload`]s: live
    /// generators, or replay cursors over the recorded streams.
    ///
    /// # Panics
    /// For a [`Scenario::SharedStream`], panics if the recording covers
    /// a different core count or seed, or fewer instructions per core
    /// than `instructions_per_core` (replaying past the recorded budget
    /// would silently diverge from the live run).
    pub fn build_sources(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
    ) -> Vec<Box<dyn Workload>> {
        self.build_feeds(n_cores, seed, instructions_per_core)
            .into_iter()
            .map(|feed| match feed {
                CoreSource::Live(w) => w,
                CoreSource::Trace(cursor) => Box::new(cursor) as Box<dyn Workload>,
            })
            .collect()
    }

    /// Build the per-core feeds for the simulator's devirtualized hot
    /// path: live generators ride in [`CoreSource::Live`], replay
    /// cursors in [`CoreSource::Trace`], so `CoreModel::tick` dispatches
    /// by enum match and inlines the replay fetch. Op-for-op identical to
    /// [`Scenario::build_sources`].
    ///
    /// # Panics
    /// As [`Scenario::build_sources`].
    pub fn build_feeds(
        &self,
        n_cores: usize,
        seed: u64,
        instructions_per_core: u64,
    ) -> Vec<CoreSource> {
        let live = |mix: &ScenarioSpec| {
            mix.build_workloads(n_cores, seed).into_iter().map(CoreSource::Live).collect()
        };
        match self {
            Scenario::Homogeneous(spec) => live(&ScenarioSpec::new(spec.name, vec![*spec])),
            Scenario::Mix(mix) => live(mix),
            Scenario::SharedStream { trace } => {
                Self::check_shared(trace, n_cores, seed, instructions_per_core);
                (0..n_cores).map(|c| CoreSource::Trace(trace.cursor(c))).collect()
            }
        }
    }

    /// Reject mismatched shared-stream replays up front: a wrong seed or
    /// an uncovered budget would silently diverge from live generation.
    fn check_shared(trace: &MemTrace, n_cores: usize, seed: u64, instructions_per_core: u64) {
        assert_eq!(
            trace.n_cores(),
            n_cores,
            "shared stream '{}' records {} cores, experiment wants {n_cores}",
            trace.label(),
            trace.n_cores()
        );
        assert_eq!(
            trace.seed(),
            seed,
            "shared stream '{}' was recorded under seed {}, experiment wants {seed}",
            trace.label(),
            trace.seed()
        );
        assert!(
            trace.min_core_instructions() >= instructions_per_core,
            "shared stream '{}' covers {} instructions/core, experiment wants {}",
            trace.label(),
            trace.min_core_instructions(),
            instructions_per_core
        );
    }
}

impl From<WorkloadSpec> for Scenario {
    fn from(spec: WorkloadSpec) -> Self {
        Scenario::Homogeneous(spec)
    }
}

impl From<ScenarioSpec> for Scenario {
    fn from(mix: ScenarioSpec) -> Self {
        Scenario::Mix(mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_trace(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("cmpleak_core_scenario_{tag}_{}.cmpt", std::process::id()))
    }

    #[test]
    fn labels_and_lookup() {
        assert_eq!(Scenario::Homogeneous(WorkloadSpec::fmm()).label(), "FMM");
        assert_eq!(Scenario::Mix(ScenarioSpec::bursty_idle()).label(), "mix_bursty_idle");
        assert!(Scenario::by_name("water-ns").is_some());
        assert!(Scenario::by_name("mix_producer_share").is_some());
        assert!(Scenario::by_name("nonesuch").is_none());
        assert!(Scenario::known_names().len() >= 9);
    }

    #[test]
    fn homogeneous_build_matches_direct_generators() {
        use cmpleak_workloads::GenerationalWorkload;
        let spec = WorkloadSpec::volrend();
        let mut built = Scenario::Homogeneous(spec).build_sources(2, 5, 1000);
        let mut direct = GenerationalWorkload::new(spec, 1, 2, 5);
        for _ in 0..2000 {
            assert_eq!(built[1].next_op(), Workload::next_op(&mut direct));
        }
    }

    #[test]
    fn record_then_replay_streams_are_identical() {
        let scenario = Scenario::Mix(ScenarioSpec::stream_revisit());
        let path = temp_trace("replay");
        scenario.record(4, 42, 5_000).save(&path).unwrap();

        let replay = Scenario::from_trace(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.label(), "mix_stream_revisit@trace");
        assert!(!replay.generates_live());
        let Scenario::SharedStream { trace } = &replay else { unreachable!() };
        let mut replayed = replay.build_sources(4, 42, 5_000);
        let mut live = scenario.build_sources(4, 42, 5_000);
        for core in 0..4 {
            assert_eq!(replayed[core].name(), live[core].name());
            for _ in 0..trace.core_info(core).ops {
                assert_eq!(replayed[core].next_op(), live[core].next_op(), "core {core}");
            }
        }
    }

    #[test]
    fn trace_file_scenarios_feed_every_core_from_the_trace() {
        let path = temp_trace("feeds");
        Scenario::Homogeneous(WorkloadSpec::fmm()).record(3, 42, 2_000).save(&path).unwrap();
        let replay = Scenario::from_trace(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let feeds = replay.build_feeds(3, 42, 2_000);
        assert_eq!(feeds.len(), 3);
        assert!(feeds.iter().all(|f| matches!(f, CoreSource::Trace(_))), "{feeds:?}");
    }

    #[test]
    fn shared_stream_replays_bit_identically_to_live_generation() {
        let live = Scenario::Mix(ScenarioSpec::producer_sharing());
        let shared = live.record_shared_in(4, 42, 5_000, vec![Vec::new(); 4]);
        assert_eq!(shared.label(), live.label(), "shared cells keep the scenario label");
        assert!(!shared.generates_live());
        let mut a = live.build_sources(4, 42, 5_000);
        let mut b = shared.build_sources(4, 42, 5_000);
        for core in 0..4 {
            assert_eq!(a[core].name(), b[core].name());
            let Scenario::SharedStream { trace } = &shared else { unreachable!() };
            for _ in 0..trace.core_info(core).ops {
                assert_eq!(a[core].next_op(), b[core].next_op(), "core {core}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn shared_stream_rejects_a_mismatched_seed() {
        let live = Scenario::Homogeneous(WorkloadSpec::fmm());
        let shared = live.record_shared_in(2, 7, 1_000, vec![Vec::new(); 2]);
        let _ = shared.build_sources(2, 8, 1_000);
    }

    #[test]
    #[should_panic(expected = "instructions/core")]
    fn oversized_budget_is_rejected_up_front() {
        let scenario = Scenario::Homogeneous(WorkloadSpec::facerec());
        let path = temp_trace("small");
        scenario.record(2, 1, 1_000).save(&path).unwrap();
        let replay = Scenario::from_trace(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let _ = replay.build_sources(2, 1, 100_000);
    }
}
