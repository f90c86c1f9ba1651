//! The op-delivery boundary of the core model.
//!
//! [`CoreModel`](crate::CoreModel) used to speak directly to a
//! [`Workload`] — the *generation* contract (infinite, deterministic
//! streams). Every other way of feeding a core — file trace replay,
//! in-memory trace cursors shared across a sweep — had to masquerade as
//! a generator. [`OpSource`] names the delivery contract the core
//! actually relies on, which is weaker than `Workload` in one direction
//! and stronger in another:
//!
//! * a source need not be infinite — it must only cover every op the
//!   core will fetch, and the core fetches ops **only while its
//!   dispatched-instruction count is below its budget** (the budget
//!   cursor; a refused op is re-presented from the core's own retry
//!   slot, never re-fetched). A source covering the budget therefore
//!   covers the run, independent of technique, cache size or timing —
//!   the property the trace subsystem's bit-identical replay rests on;
//! * a source must be *consumable exactly once, in order*: there is no
//!   rewind at this boundary (cursors over shared traces are created
//!   per run instead).
//!
//! Every [`Workload`] is an `OpSource` (blanket impl). [`LiveGen`]
//! adapts a boxed generator and additionally tracks the budget cursor —
//! ops and instructions served — which the recording and differential
//! test layers use to compare live generation against trace replay
//! op-for-op.

use crate::trace::{TraceOp, Workload};

/// A per-core op delivery channel.
///
/// See the module docs for the contract; the short form: `next_op` is
/// called only while the consuming core's instruction budget is not yet
/// covered, so finite backends sized to the budget never run dry.
pub trait OpSource {
    /// Produce the next op of the stream.
    ///
    /// # Panics
    /// Finite backends panic (with a diagnostic) when driven past the
    /// budget they cover — silently looping or fabricating ops would
    /// diverge from the stream they stand in for.
    fn next_op(&mut self) -> TraceOp;

    /// A short name for per-core statistics and reports.
    fn name(&self) -> &str {
        "ops"
    }
}

/// Every workload generator is an op source (live generation).
impl<W: Workload> OpSource for W {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        Workload::next_op(self)
    }

    fn name(&self) -> &str {
        Workload::name(self)
    }
}

/// Live-generation backend over a boxed [`Workload`], with a budget
/// cursor.
///
/// The cursor (ops and instructions served so far) is what the trace
/// layer's differentials compare against: a recorded stream replayed
/// through a cursor must match the `LiveGen` stream op-for-op up to any
/// instruction budget the recording covers.
pub struct LiveGen {
    inner: Box<dyn Workload>,
    ops_served: u64,
    instructions_served: u64,
}

impl std::fmt::Debug for LiveGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveGen")
            .field("name", &self.inner.name())
            .field("ops_served", &self.ops_served)
            .field("instructions_served", &self.instructions_served)
            .finish()
    }
}

impl LiveGen {
    /// Wrap a boxed generator.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        Self { inner, ops_served: 0, instructions_served: 0 }
    }

    /// Wrap and box in one step (the shape the simulator consumes).
    pub fn boxed(inner: Box<dyn Workload>) -> Box<dyn OpSource> {
        Box::new(Self::new(inner))
    }

    /// Ops served so far.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// Σ `op.instructions()` over the served prefix — the budget cursor:
    /// once this reaches a core's instruction budget, that core will
    /// never fetch again.
    pub fn instructions_served(&self) -> u64 {
        self.instructions_served
    }
}

impl OpSource for LiveGen {
    #[inline]
    fn next_op(&mut self) -> TraceOp {
        let op = self.inner.next_op();
        self.ops_served += 1;
        self.instructions_served += op.instructions();
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ReplayWorkload;

    #[test]
    fn workloads_are_op_sources() {
        let mut w = ReplayWorkload::named("n", vec![TraceOp::Exec(2), TraceOp::Load(64)]);
        let src: &mut dyn OpSource = &mut w;
        assert_eq!(src.next_op(), TraceOp::Exec(2));
        assert_eq!(src.name(), "n");
    }

    #[test]
    fn live_gen_tracks_the_budget_cursor() {
        let wl = ReplayWorkload::cycle(vec![TraceOp::Exec(3), TraceOp::Store(8)]);
        let mut src = LiveGen::new(Box::new(wl));
        assert_eq!(src.name(), "replay");
        assert_eq!(src.next_op(), TraceOp::Exec(3));
        assert_eq!(src.next_op(), TraceOp::Store(8));
        assert_eq!(src.ops_served(), 2);
        assert_eq!(src.instructions_served(), 4, "3 exec + 1 store");
    }
}
