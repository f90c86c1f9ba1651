//! Property-based differentials for the op-stream boundary.
//!
//! The sweep planner's shared-stream optimization rests on one claim:
//! an op prefix recorded into a `MemTrace` and served back through
//! per-core cursors is **op-for-op identical** to the live generator
//! stream it was recorded from, for any workload spec, seed, core
//! count and instruction budget. These properties pin that claim at the
//! [`Workload`] boundary itself (the end-to-end `SimStats` differential
//! lives in `tests/stream_sharing.rs` at the workspace root), plus the
//! encode/decode round-trip of the in-memory CMPT streams against both
//! the cursor path and the file image.

use cmpleak_cpu::{ReplayWorkload, TraceOp, Workload};
use cmpleak_trace::MemTrace;
use cmpleak_workloads::{GenerationalWorkload, WorkloadSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0..WorkloadSpec::extended_suite().len()).prop_map(|i| WorkloadSpec::extended_suite()[i])
}

fn arb_ops() -> impl Strategy<Value = Vec<TraceOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..40).prop_map(TraceOp::Exec),
            (0u64..1 << 20).prop_map(|a| TraceOp::Load(a * 8)),
            (0u64..1 << 20).prop_map(|a| TraceOp::Store(a * 8)),
        ],
        1..60,
    )
}

/// Record one stream per workload (core order), each covering
/// `min_instructions`.
fn record(
    label: &str,
    seed: u64,
    workloads: Vec<Box<dyn Workload>>,
    min_instructions: u64,
) -> Arc<MemTrace> {
    let mut trace = MemTrace::new(label, seed);
    for mut wl in workloads {
        trace.record_core_in(wl.as_mut(), min_instructions, Vec::new());
    }
    Arc::new(trace)
}

proptest! {
    /// Any op prefix served via `MemTrace` cursors equals the live
    /// generator stream op-for-op — over every workload spec, random seeds, core
    /// counts and budgets — and the recording covers at least the
    /// budget on every core.
    #[test]
    fn mem_trace_cursors_match_live_gen_streams(
        spec in arb_spec(),
        seed in 0u64..10_000,
        budget in 500u64..20_000,
        n_cores in 1usize..5,
    ) {
        let gens = || -> Vec<Box<dyn Workload>> {
            (0..n_cores)
                .map(|c| {
                    Box::new(GenerationalWorkload::new(spec, c, n_cores, seed))
                        as Box<dyn Workload>
                })
                .collect()
        };
        let trace = record(spec.name, seed, gens(), budget);
        prop_assert!(trace.min_core_instructions() >= budget, "recording must cover the budget");

        for (core, mut live) in gens().into_iter().enumerate() {
            let mut cursor = trace.cursor(core);
            prop_assert_eq!(live.name(), cursor.name(), "core {}", core);
            // The bare generator is the reference; count what it serves.
            let (mut ops_served, mut instructions_served, mut before_last) = (0u64, 0u64, 0u64);
            for i in 0..cursor.total_ops() {
                let recorded = cursor.next_op();
                let generated = live.next_op();
                prop_assert_eq!(recorded, generated, "core {} op {}", core, i);
                ops_served += 1;
                before_last = instructions_served;
                instructions_served += generated.instructions();
            }
            // The budget cursors agree: the recorded prefix is exactly
            // the live prefix whose instruction count first covers the
            // budget.
            prop_assert_eq!(instructions_served, cursor.total_instructions());
            prop_assert_eq!(ops_served, cursor.total_ops());
            prop_assert!(instructions_served >= budget);
            prop_assert!(before_last < budget, "the prefix ends at the first covering op");
        }
    }

    /// `MemTrace` encode/decode round-trip: arbitrary op sequences come
    /// back bit-identically through a cursor, through rewind, and
    /// through the CMPT file image loaded back by `from_file_bytes`.
    #[test]
    fn mem_trace_roundtrips_arbitrary_ops(
        ops in arb_ops(),
        seed in 0u64..1000,
    ) {
        // The replay workload cycles; record a prefix covering a few
        // full cycles so wrap-around delta state is exercised too.
        let cycle_instr: u64 = ops.iter().map(|o| o.instructions()).sum::<u64>().max(1);
        let budget = cycle_instr * 3;
        let trace = record("rt", seed, vec![Box::new(ReplayWorkload::named("rt", ops.clone()))], budget);

        let mut cursor = trace.cursor(0);
        let mut reference = ReplayWorkload::named("rt", ops);
        let total = cursor.total_ops();
        let decoded: Vec<TraceOp> =
            (0..total).map(|_| Workload::next_op(&mut cursor)).collect();
        let expected: Vec<TraceOp> =
            (0..total).map(|_| Workload::next_op(&mut reference)).collect();
        prop_assert_eq!(&decoded, &expected, "cursor decode diverged from the encoded ops");
        prop_assert!(cursor.try_next_op().is_none(), "cursor must end exactly at the prefix");

        // Seekable: rewinding replays the identical stream.
        cursor.rewind();
        let again: Vec<TraceOp> = (0..total).map(|_| Workload::next_op(&mut cursor)).collect();
        prop_assert_eq!(&again, &decoded);

        // The in-memory streams are CMPT v1: the file image loads back
        // and replays the same ops.
        let loaded = MemTrace::from_file_bytes(&trace.to_file_bytes()).expect("valid CMPT image");
        let mut file_replay = Arc::new(loaded).cursor(0);
        let from_file: Vec<TraceOp> =
            (0..total).map(|_| Workload::next_op(&mut file_replay)).collect();
        prop_assert_eq!(&from_file, &decoded, "file image diverged from the in-memory streams");
        prop_assert!(file_replay.try_next_op().is_none());
    }
}
