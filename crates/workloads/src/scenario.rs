//! Heterogeneous multiprogrammed scenarios.
//!
//! The paper evaluates homogeneous runs (every core executes the same
//! benchmark); real CMP workloads are multiprogrammed mixes whose cores
//! stress the leakage techniques differently — a streaming core leaves
//! dead lines everywhere while its revisiting neighbour pays for every
//! premature turn-off. A [`ScenarioSpec`] assigns one [`WorkloadSpec`]
//! per core (wrapping modulo the assignment list for larger systems) and
//! builds the per-core generator set.
//!
//! Three curated mixes ship with the crate ([`ScenarioSpec::paper_mixes`]):
//!
//! * [`mix_stream_revisit`](ScenarioSpec::stream_revisit) — streaming
//!   multimedia (mpeg2enc) interleaved with revisiting scientific
//!   (WATER-NS): decay-friendly and decay-hostile cores side by side;
//! * [`mix_producer_share`](ScenarioSpec::producer_sharing) — two
//!   producer-exchange kernels against mpeg2dec and FMM: maximal
//!   ownership migration, the Protocol technique's best case;
//! * [`mix_bursty_idle`](ScenarioSpec::bursty_idle) — revisiting
//!   scientific cores next to nearly idle bursty cores whose banks are
//!   mostly dead capacity.

use crate::generator::GenerationalWorkload;
use crate::spec::WorkloadSpec;
use cmpleak_cpu::Workload;

/// A named per-core benchmark assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario label, used wherever benchmark names appear (sweep
    /// cells, figures, trace headers).
    pub name: String,
    /// Per-core specs; core `c` runs `assignments[c % len]`.
    pub assignments: Vec<WorkloadSpec>,
}

impl ScenarioSpec {
    /// A scenario running `assignments[c % len]` on core `c`.
    ///
    /// # Panics
    /// Panics if `assignments` is empty.
    pub fn new(name: impl Into<String>, assignments: Vec<WorkloadSpec>) -> Self {
        assert!(!assignments.is_empty(), "a scenario needs at least one assignment");
        Self { name: name.into(), assignments }
    }

    /// The spec core `core` runs.
    pub fn spec_for_core(&self, core: usize) -> WorkloadSpec {
        self.assignments[core % self.assignments.len()]
    }

    /// Build one generator per core. Deterministic in `(self, n_cores,
    /// seed)` like the homogeneous constructors.
    pub fn build_workloads(&self, n_cores: usize, seed: u64) -> Vec<Box<dyn Workload>> {
        (0..n_cores)
            .map(|c| {
                Box::new(GenerationalWorkload::new(self.spec_for_core(c), c, n_cores, seed))
                    as Box<dyn Workload>
            })
            .collect()
    }

    /// Streaming + revisiting mix: mpeg2enc / WATER-NS alternating.
    pub fn stream_revisit() -> ScenarioSpec {
        Self::new(
            "mix_stream_revisit",
            vec![
                WorkloadSpec::mpeg2enc(),
                WorkloadSpec::water_ns(),
                WorkloadSpec::mpeg2enc(),
                WorkloadSpec::water_ns(),
            ],
        )
    }

    /// Producer-heavy sharing mix: two producer-exchange kernels plus
    /// mpeg2dec and FMM consumers.
    pub fn producer_sharing() -> ScenarioSpec {
        Self::new(
            "mix_producer_share",
            vec![
                WorkloadSpec::producer_exchange(),
                WorkloadSpec::producer_exchange(),
                WorkloadSpec::mpeg2dec(),
                WorkloadSpec::fmm(),
            ],
        )
    }

    /// Busy scientific cores next to nearly idle bursty cores.
    pub fn bursty_idle() -> ScenarioSpec {
        Self::new(
            "mix_bursty_idle",
            vec![
                WorkloadSpec::water_ns(),
                WorkloadSpec::idle_bursty(),
                WorkloadSpec::volrend(),
                WorkloadSpec::idle_bursty(),
            ],
        )
    }

    /// The three curated heterogeneous mixes.
    pub fn paper_mixes() -> Vec<ScenarioSpec> {
        vec![Self::stream_revisit(), Self::producer_sharing(), Self::bursty_idle()]
    }

    /// Look a curated mix up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<ScenarioSpec> {
        Self::paper_mixes().into_iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpleak_cpu::TraceOp;

    #[test]
    fn mixes_are_named_and_heterogeneous() {
        let mixes = ScenarioSpec::paper_mixes();
        assert_eq!(mixes.len(), 3);
        for m in &mixes {
            assert!(m.name.starts_with("mix_"));
            let names: std::collections::BTreeSet<&str> =
                m.assignments.iter().map(|s| s.name).collect();
            assert!(names.len() >= 2, "{} must mix at least two specs", m.name);
        }
    }

    #[test]
    fn assignment_wraps_modulo() {
        let s = ScenarioSpec::stream_revisit();
        assert_eq!(s.spec_for_core(0).name, "mpeg2enc");
        assert_eq!(s.spec_for_core(1).name, "WATER-NS");
        assert_eq!(s.spec_for_core(4).name, "mpeg2enc");
        assert_eq!(s.spec_for_core(7).name, "WATER-NS");
    }

    #[test]
    fn build_is_deterministic_and_per_core_labelled() {
        let s = ScenarioSpec::producer_sharing();
        let mut a = s.build_workloads(4, 42);
        let mut b = s.build_workloads(4, 42);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            assert_eq!(x.name(), y.name());
            for _ in 0..2000 {
                assert_eq!(x.next_op(), y.next_op());
            }
        }
        assert_eq!(a[0].name(), "producer");
        assert_eq!(a[2].name(), "mpeg2dec");
        assert_eq!(a[3].name(), "FMM");
    }

    #[test]
    fn bursty_core_is_memory_light() {
        let s = ScenarioSpec::bursty_idle();
        let mut busy = s.build_workloads(4, 7).remove(0);
        let mut idle = s.build_workloads(4, 7).remove(1);
        let intensity = |w: &mut Box<dyn Workload>| {
            let mut instr = 0u64;
            let mut mem = 0u64;
            for _ in 0..50_000 {
                let op = w.next_op();
                instr += op.instructions();
                if op.is_mem() {
                    mem += 1;
                }
            }
            mem as f64 / instr as f64
        };
        let busy_i = intensity(&mut busy);
        let idle_i = intensity(&mut idle);
        assert!(
            idle_i * 3.0 < busy_i,
            "bursty core must be far less memory-intensive: busy {busy_i:.3}, idle {idle_i:.3}"
        );
    }

    #[test]
    fn by_name_finds_mixes() {
        assert!(ScenarioSpec::by_name("MIX_BURSTY_IDLE").is_some());
        assert!(ScenarioSpec::by_name("nonesuch").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one assignment")]
    fn empty_assignment_rejected() {
        ScenarioSpec::new("empty", vec![]);
    }

    #[test]
    fn shared_segment_is_common_across_specs() {
        // Heterogeneous cores still meet in the shared segment: the mix
        // produces cross-spec coherence traffic.
        let s = ScenarioSpec::producer_sharing();
        let mut wls = s.build_workloads(4, 11);
        let shared_base = 1u64 << 44;
        let mut sharers = 0;
        for w in wls.iter_mut() {
            let mut touches_shared = false;
            for _ in 0..100_000 {
                match w.next_op() {
                    TraceOp::Load(a) | TraceOp::Store(a) if a >= shared_base => {
                        touches_shared = true;
                        break;
                    }
                    _ => {}
                }
            }
            sharers += usize::from(touches_shared);
        }
        assert!(sharers >= 3, "most cores must touch the shared segment, saw {sharers}");
    }
}
