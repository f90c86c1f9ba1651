//! Private, inclusive, snoopy-MESI L2 cache with the Gated-Vdd turn-off
//! mechanism.
//!
//! This is where the paper's §III/§IV machinery comes together:
//!
//! * coherence state per line via [`cmpleak_coherence::mesi`], including
//!   the TC/TD transient states while the L1 copy of a departing line is
//!   invalidated;
//! * power gating per line (`powered` / on-cycle accounting for the
//!   occupation-rate metric), driven by the configured
//!   [`Technique`]: cold lines, protocol invalidations, decay;
//! * the hierarchical decay counter bank, with Selective Decay's
//!   arm/disarm-on-transition rules;
//! * the MSHR with in-flight race handling (a snooped `BusRd` demotes an
//!   in-flight fill to Shared, a snooped `BusRdX` dooms it), and
//! * the always-on shadow directory classifying technique-induced
//!   misses.
//!
//! The cache is passive: `cmpleak-system` drives it and routes the
//! [`SideEffects`] each call emits (write-backs to the bus, upper-level
//! invalidations to the L1, Grant timers to the event queue).

use crate::config::L2Config;
use crate::stats::L2Stats;
use cmpleak_coherence::mesi::{
    fill_state, step, Event, MesiState, PendingInval, SnoopContext, Transition,
};
use cmpleak_coherence::{bus::SnoopKind, DecayArming, Technique};
use cmpleak_mem::{
    BankArena, DecayBank, DecayConfig, Geometry, LineAddr, LineStateBank, LookupOutcome, Mshr,
    MshrAlloc, SetAssocArray, ShadowTags,
};

/// Per-line metadata.
#[derive(Debug, Clone, Copy)]
pub struct L2Meta {
    /// MESI(+TC/TD) state.
    pub state: MesiState,
    /// Whether the upper-level L1 holds a copy (inclusion bookkeeping).
    pub in_l1: bool,
}

impl Default for L2Meta {
    fn default() -> Self {
        Self { state: MesiState::Invalid, in_l1: false }
    }
}

impl cmpleak_mem::array::LineMeta for L2Meta {
    fn is_valid(&self) -> bool {
        self.state.is_valid()
    }

    /// MESI(+TC/TD with reason) in the low three bits, `in_l1` in bit 3.
    fn to_byte(&self) -> u8 {
        let state = match self.state {
            MesiState::Invalid => 0u8,
            MesiState::Shared => 1,
            MesiState::Exclusive => 2,
            MesiState::Modified => 3,
            MesiState::TransientClean(PendingInval::SnoopRdX) => 4,
            MesiState::TransientClean(PendingInval::TurnOff) => 5,
            MesiState::TransientDirty(PendingInval::SnoopRdX) => 6,
            MesiState::TransientDirty(PendingInval::TurnOff) => 7,
        };
        state | (u8::from(self.in_l1) << 3)
    }

    fn from_byte(b: u8) -> Self {
        let state = match b & 0b111 {
            0 => MesiState::Invalid,
            1 => MesiState::Shared,
            2 => MesiState::Exclusive,
            3 => MesiState::Modified,
            4 => MesiState::TransientClean(PendingInval::SnoopRdX),
            5 => MesiState::TransientClean(PendingInval::TurnOff),
            6 => MesiState::TransientDirty(PendingInval::SnoopRdX),
            _ => MesiState::TransientDirty(PendingInval::TurnOff),
        };
        Self { state, in_l1: b & 0b1000 != 0 }
    }
}

/// What an in-flight miss is waiting to do once the line arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Target {
    /// An L1 read miss: deliver the line upward.
    Read,
    /// A drained store: apply it (the line must be Modified).
    Write,
}

/// Race flags attached to an in-flight miss by snoops that passed on the
/// bus between our request's grant and its data return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MissFlags {
    /// A BusRd passed: fill must demote to Shared.
    fill_shared: bool,
    /// A BusRdX passed: the fill is stale — complete waiting reads but do
    /// not install; re-issue writes.
    doomed: bool,
}

/// Outcome of a read probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2ReadOutcome {
    /// Line resident: respond after the hit latency.
    Hit,
    /// Primary miss: the system must issue a bus request.
    MissPrimary,
    /// Merged into an in-flight miss.
    MissSecondary,
    /// Transient line or MSHR full: retry next cycle.
    Retry,
}

/// Outcome of a write (write-buffer drain) probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2WriteOutcome {
    /// Store applied (line was M, or E silently upgraded).
    Done,
    /// Line resident Shared: an Upgrade bus request was allocated.
    UpgradeIssued,
    /// Primary write miss: the system must issue a BusRdX.
    MissPrimary,
    /// Merged into an in-flight miss (promoting it to exclusive).
    MissSecondary,
    /// Transient line or MSHR full: retry next cycle.
    Retry,
}

/// Result of completing an Upgrade transaction on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeResult {
    /// Line was still Shared: now Modified, stores applied.
    Done,
    /// Line vanished before the grant: the transaction must proceed as a
    /// write miss (fetch data).
    ConvertToMiss,
}

/// A snooping cache's reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnoopReply {
    /// Drives the shared wire: the requester fills S instead of E.
    pub assert_shared: bool,
    /// This cache supplies the line (it was the M owner).
    pub supply_data: bool,
}

/// Side effects of one L2 call, routed by the system.
#[derive(Debug, Default)]
pub struct SideEffects {
    /// Dirty lines to push to memory. The caller decides the transport:
    /// snoop flushes ride the current bus transaction; evictions and
    /// turn-offs queue their own write-back transaction.
    pub writebacks: Vec<LineAddr>,
    /// Upper-level invalidations `(line, technique_induced)`.
    pub upper_invals: Vec<(LineAddr, bool)>,
    /// Grant timers to schedule: `(due_cycle, slot, line)`.
    pub grants: Vec<(u64, usize, LineAddr)>,
}

impl SideEffects {
    /// True when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.writebacks.is_empty() && self.upper_invals.is_empty() && self.grants.is_empty()
    }

    /// Reset for reuse.
    pub fn clear(&mut self) {
        self.writebacks.clear();
        self.upper_invals.clear();
        self.grants.clear();
    }
}

/// One private L2 cache.
#[derive(Debug)]
pub struct L2Cache {
    cfg: L2Config,
    technique: Technique,
    tags: SetAssocArray<L2Meta>,
    mshr: Mshr<L2Target>,
    flags: Vec<(LineAddr, MissFlags)>,
    /// Global decay clock + tick policy (per-line state lives in
    /// [`L2Cache::state`]).
    decay: Option<DecayBank>,
    /// Baseline-equivalent tag directory for induced-miss classification.
    shadow: ShadowTags,
    /// Columnar per-line state: powered/armed/live bitsets, decay
    /// counters, on-time accounting — one arena-backed bank.
    state: LineStateBank,
    /// Turn-offs that had to wait (transient line / pending write).
    deferred_turnoffs: Vec<usize>,
    stats: L2Stats,
    decay_scratch: Vec<usize>,
}

impl L2Cache {
    /// Build one private L2 under `technique`, allocating fresh storage.
    pub fn new(cfg: &L2Config, technique: Technique) -> Self {
        Self::new_in(cfg, technique, &mut BankArena::default())
    }

    /// Like [`L2Cache::new`], with every per-line column (line-state
    /// bank, tag array, shadow directory) checked out of `arena` so
    /// back-to-back simulations reuse the multi-MB allocations.
    pub fn new_in(cfg: &L2Config, technique: Technique, arena: &mut BankArena) -> Self {
        let geom = cfg.geometry();
        let lines = geom.lines();
        let decay = technique.decay_cycles().map(|d| {
            DecayBank::new(DecayConfig { decay_cycles: d, counter_bits: cfg.decay_counter_bits })
        });
        let mut state = LineStateBank::new_in(lines, arena);
        if !technique.gates_cold_lines() {
            state.power_all_on();
        }
        Self {
            cfg: *cfg,
            technique,
            tags: SetAssocArray::new_in(geom, arena),
            mshr: Mshr::new(cfg.mshr_entries, cfg.mshr_entries * 4),
            flags: Vec::new(),
            decay,
            shadow: ShadowTags::new_in(geom, arena),
            state,
            deferred_turnoffs: Vec::new(),
            stats: L2Stats::default(),
            decay_scratch: Vec::new(),
        }
    }

    /// Hand the per-line columns back to `arena`. The cache must not be
    /// used afterwards (statistics remain readable).
    pub fn release_storage(&mut self, arena: &mut BankArena) {
        self.state.release_into(arena);
        self.tags.release_into(arena);
        self.shadow.release_into(arena);
    }

    /// Geometry of the tag array.
    pub fn geometry(&self) -> Geometry {
        self.tags.geometry()
    }

    /// Statistics so far.
    pub fn stats(&self) -> L2Stats {
        self.stats
    }

    /// Effective hit latency (configured + technique access penalty).
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency + self.technique.access_penalty_cycles()
    }

    /// Lines currently powered (for the interval activity trace).
    pub fn powered_lines(&self) -> u64 {
        self.state.powered_count()
    }

    /// Whether the line is resident in a stationary valid state.
    pub fn holds_valid(&self, line: LineAddr) -> bool {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) => self.tags.slot(slot).meta.state.is_stationary(),
            LookupOutcome::Miss => false,
        }
    }

    /// MESI state of `line` if resident (tests/examples).
    pub fn state_of(&self, line: LineAddr) -> Option<MesiState> {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) => Some(self.tags.slot(slot).meta.state),
            LookupOutcome::Miss => None,
        }
    }

    /// Whether an in-flight miss for `line` exists.
    pub fn miss_pending(&self, line: LineAddr) -> bool {
        self.mshr.pending(line)
    }

    /// Whether the in-flight miss for `line` requires exclusivity (the
    /// system checks at bus-grant time, because a store may have merged
    /// after the request was queued).
    pub fn pending_exclusive(&self, line: LineAddr) -> bool {
        self.mshr.get(line).map(|e| e.exclusive).unwrap_or(false)
    }

    /// Whether a miss for `line` has been granted the bus and its data is
    /// in flight. The bus NACKs (retries) any new transaction touching
    /// such a line — the standard split-transaction conflict rule — so
    /// the first requester installs before the second snoops it.
    pub fn pending_issued(&self, line: LineAddr) -> bool {
        self.mshr.get(line).map(|e| e.issued).unwrap_or(false)
    }

    /// Mark the miss for `line` as granted/in-flight.
    pub fn mark_issued(&mut self, line: LineAddr) {
        if let Some(e) = self.mshr.get_mut(line) {
            e.issued = true;
        }
    }

    /// Outstanding work that must drain before the simulation ends.
    pub fn busy(&self) -> bool {
        !self.mshr.is_empty()
    }

    /// Aggregate decay-counter activity (dynamic-energy accounting).
    pub fn decay_stats(&self) -> cmpleak_mem::DecayStats {
        self.decay.as_ref().map(|d| d.stats()).unwrap_or_default()
    }

    /// Whether `line` is resident with its `in_l1` bit set (the inclusion
    /// check's L2 side).
    pub(crate) fn marks_in_l1(&self, line: LineAddr) -> bool {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) => self.tags.meta(slot).in_l1,
            LookupOutcome::Miss => false,
        }
    }

    /// Lines whose `in_l1` bit is set (an invalidated slot's metadata is
    /// reset, so only resident lines carry it).
    pub(crate) fn lines_in_l1(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags.iter().filter(|(_, l)| l.meta.in_l1).map(|(_, l)| l.tag)
    }

    /// The L1 filled/evicted `line`: keep the inclusion bit exact.
    pub fn set_in_l1(&mut self, line: LineAddr, val: bool) {
        if let LookupOutcome::Hit(slot) = self.tags.probe(line) {
            self.tags.update_meta(slot, |m| m.in_l1 = val);
        }
    }

    // ---- gating ---------------------------------------------------------

    fn power_on(&mut self, slot: usize, now: u64) {
        self.state.power_on(slot, now);
    }

    fn power_off(&mut self, slot: usize, now: u64) {
        self.state.power_off(slot, now);
    }

    /// Close the books at `now`: Σ on-cycles over all slots (O(1), from
    /// the line-state bank's running sums).
    pub fn finish_on_cycles(&self, now: u64) -> u64 {
        self.state.finish_on_cycles(now)
    }

    // ---- decay hooks ----------------------------------------------------

    fn decay_access(&mut self, slot: usize) {
        if let Some(d) = self.decay.as_mut() {
            d.on_access(&mut self.state, slot);
        }
    }

    fn apply_arming(&mut self, slot: usize, state: MesiState) {
        if self.decay.is_some() {
            match self.technique.arming_on_enter(state) {
                DecayArming::Arm => self.state.arm(slot),
                DecayArming::Disarm => self.state.disarm(slot),
                DecayArming::Unchanged => {}
            }
        }
    }

    /// Advance the decay clock to `now`, returning slots whose lines
    /// decayed this call. The system feeds them to [`L2Cache::turn_off`]
    /// with the pending-write context. The system calls this on every
    /// tick's own cycle, so a call performs at most one tick; a caller
    /// that advances by hand over several ticks gets them in order
    /// ([`DecayBank::advance`]).
    pub fn take_decayed(&mut self, now: u64) -> Vec<usize> {
        self.decay_scratch.clear();
        if let Some(d) = self.decay.as_mut() {
            d.advance(&mut self.state, now, &mut self.decay_scratch);
        }
        std::mem::take(&mut self.decay_scratch)
    }

    /// Cycle of the next global decay tick, if this cache decays at all.
    /// A wakeup source for the quiescence-skipping kernel: between ticks
    /// an otherwise-idle cache has no decay activity to simulate.
    pub fn next_decay_deadline(&self) -> Option<u64> {
        self.decay.as_ref().map(|d| d.next_tick_at())
    }

    /// Whether deferred turn-offs are waiting to be retried (they retry
    /// every cycle, so the kernel must not skip while any are pending).
    pub fn has_deferred_turnoffs(&self) -> bool {
        !self.deferred_turnoffs.is_empty()
    }

    /// Deferred turn-offs to retry (drains the internal list).
    pub fn take_deferred_turnoffs(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.deferred_turnoffs)
    }

    /// Line address currently held by `slot`, if valid.
    pub fn line_at(&self, slot: usize) -> Option<LineAddr> {
        let l = self.tags.slot(slot);
        l.meta.state.is_valid().then_some(l.tag)
    }

    // ---- transition plumbing --------------------------------------------

    /// Apply an FSM transition to `slot` (holding `line`).
    fn apply_transition(
        &mut self,
        slot: usize,
        line: LineAddr,
        t: &Transition,
        now: u64,
        technique_induced: bool,
        fx: &mut SideEffects,
    ) {
        if t.writeback {
            fx.writebacks.push(line);
            self.stats.writebacks += 1;
        }
        if t.invalidate_upper {
            self.tags.update_meta(slot, |m| m.in_l1 = false);
            fx.upper_invals.push((line, technique_induced));
            fx.grants.push((now + self.cfg.upper_inval_latency, slot, line));
        }
        if let Some(next) = t.next {
            if next == MesiState::Invalid {
                self.tags.invalidate(slot);
                if let Some(d) = self.decay.as_mut() {
                    d.on_line_off(&mut self.state, slot);
                }
                if t.protocol_invalidation {
                    self.stats.snoop_invalidations += 1;
                    // Baseline would experience this invalidation too.
                    self.shadow.invalidate(line);
                    if self.technique.gates_on_protocol_invalidation() {
                        self.stats.turnoffs_protocol += 1;
                        self.power_off(slot, now);
                    }
                }
                if t.gate {
                    self.stats.turnoffs_decay += 1;
                    self.power_off(slot, now);
                }
            } else {
                self.tags.update_meta(slot, |m| m.state = next);
                self.apply_arming(slot, next);
            }
        }
    }

    // ---- processor-side probes -------------------------------------------

    /// An L1 read miss probes this cache.
    pub fn probe_read(&mut self, line: LineAddr) -> L2ReadOutcome {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) => {
                if !self.tags.slot(slot).meta.state.is_stationary() {
                    self.stats.retries += 1;
                    return L2ReadOutcome::Retry;
                }
                self.tags.touch(slot);
                self.decay_access(slot);
                self.shadow.access(line);
                self.stats.reads += 1;
                self.stats.read_hits += 1;
                L2ReadOutcome::Hit
            }
            LookupOutcome::Miss => match self.mshr.allocate(line, L2Target::Read, false) {
                MshrAlloc::Primary => {
                    self.stats.reads += 1;
                    self.note_miss(line);
                    L2ReadOutcome::MissPrimary
                }
                MshrAlloc::Secondary => {
                    self.stats.reads += 1;
                    self.shadow.access(line);
                    L2ReadOutcome::MissSecondary
                }
                MshrAlloc::Full => {
                    self.stats.retries += 1;
                    L2ReadOutcome::Retry
                }
            },
        }
    }

    /// A drained store probes this cache (write-through traffic).
    pub fn probe_write(&mut self, line: LineAddr) -> L2WriteOutcome {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) => {
                let state = self.tags.slot(slot).meta.state;
                if !state.is_stationary() {
                    self.stats.retries += 1;
                    return L2WriteOutcome::Retry;
                }
                match state {
                    MesiState::Modified => {
                        self.tags.touch(slot);
                        self.decay_access(slot);
                        self.shadow.access(line);
                        self.stats.writes += 1;
                        self.stats.write_hits += 1;
                        L2WriteOutcome::Done
                    }
                    MesiState::Exclusive => {
                        // Silent E -> M upgrade.
                        self.tags.touch(slot);
                        self.tags.update_meta(slot, |m| m.state = MesiState::Modified);
                        self.apply_arming(slot, MesiState::Modified);
                        self.decay_access(slot);
                        self.shadow.access(line);
                        self.stats.writes += 1;
                        self.stats.write_hits += 1;
                        L2WriteOutcome::Done
                    }
                    MesiState::Shared => match self.mshr.allocate(line, L2Target::Write, true) {
                        MshrAlloc::Primary => {
                            self.tags.touch(slot);
                            self.decay_access(slot);
                            self.shadow.access(line);
                            self.stats.writes += 1;
                            self.stats.write_hits += 1;
                            L2WriteOutcome::UpgradeIssued
                        }
                        MshrAlloc::Secondary => {
                            self.stats.writes += 1;
                            self.shadow.access(line);
                            L2WriteOutcome::MissSecondary
                        }
                        MshrAlloc::Full => {
                            self.stats.retries += 1;
                            L2WriteOutcome::Retry
                        }
                    },
                    // audit:allow(unwrap-in-lib, the Invalid arm is excluded by the stationary-state check directly above)
                    _ => unreachable!("stationary check above"),
                }
            }
            LookupOutcome::Miss => match self.mshr.allocate(line, L2Target::Write, true) {
                MshrAlloc::Primary => {
                    self.stats.writes += 1;
                    self.note_miss(line);
                    L2WriteOutcome::MissPrimary
                }
                MshrAlloc::Secondary => {
                    self.stats.writes += 1;
                    self.shadow.access(line);
                    L2WriteOutcome::MissSecondary
                }
                MshrAlloc::Full => {
                    self.stats.retries += 1;
                    L2WriteOutcome::Retry
                }
            },
        }
    }

    /// Account a primary miss, classifying it against the shadow
    /// directory *before* updating it.
    fn note_miss(&mut self, line: LineAddr) {
        self.stats.misses += 1;
        if self.shadow.would_hit(line) {
            self.stats.induced_misses += 1;
        }
        self.shadow.access(line);
    }

    // ---- bus-side ---------------------------------------------------------

    /// Another cache's transaction is snooped.
    pub fn snoop(
        &mut self,
        line: LineAddr,
        kind: SnoopKind,
        now: u64,
        fx: &mut SideEffects,
    ) -> SnoopReply {
        let mut reply = SnoopReply::default();
        // Race handling for our own in-flight miss on this line.
        if self.mshr.pending(line) {
            match kind {
                SnoopKind::BusRd => {
                    reply.assert_shared = true;
                    self.flag_mut(line).fill_shared = true;
                }
                SnoopKind::BusRdX => {
                    self.flag_mut(line).doomed = true;
                }
            }
        }
        if let LookupOutcome::Hit(slot) = self.tags.probe(line) {
            let meta = self.tags.slot(slot).meta;
            if !meta.state.is_stationary() {
                // Transient lines are logically dead (all bus-visible
                // effects were emitted on entry); nothing to do.
                return reply;
            }
            let ctx = SnoopContext { upper_has_copy: meta.in_l1, pending_write: false };
            let t = step(meta.state, Event::Snoop(kind), ctx);
            reply.assert_shared |= t.assert_shared;
            reply.supply_data |= t.supply_data;
            self.apply_transition(slot, line, &t, now, false, fx);
        }
        reply
    }

    /// The leakage machinery requests turning off `slot`.
    ///
    /// `pending_write` reflects the core's write buffer (Table I: the
    /// turn-off must wait for pending writes); such turn-offs are
    /// *deferred* rather than forced, and dropped if the line is touched
    /// in the meantime.
    pub fn turn_off(&mut self, slot: usize, now: u64, pending_write: bool, fx: &mut SideEffects) {
        let l = self.tags.slot(slot);
        let line = l.tag;
        let state = l.meta.state;
        if state == MesiState::Invalid {
            return; // raced with an invalidation: nothing left to do
        }
        if !state.is_stationary() || pending_write {
            self.deferred_turnoffs.push(slot);
            return;
        }
        // A deferred turn-off may have been overtaken by an access that
        // reset the decay counter — drop it then.
        if self.decay.is_some() && self.state.is_live(slot) {
            return;
        }
        let ctx = SnoopContext { upper_has_copy: l.meta.in_l1, pending_write: false };
        if state == MesiState::Modified {
            self.stats.dirty_decay_turnoffs += 1;
        }
        let t = step(state, Event::TurnOff, ctx);
        self.apply_transition(slot, line, &t, now, true, fx);
    }

    /// An upper-level invalidation completed (TC/TD Grant).
    pub fn grant(&mut self, slot: usize, line: LineAddr, now: u64, fx: &mut SideEffects) {
        let l = self.tags.slot(slot);
        if l.tag != line || l.meta.state.is_stationary() {
            return; // stale timer (line already moved on)
        }
        let t = step(l.meta.state, Event::Grant, SnoopContext::default());
        self.apply_transition(slot, line, &t, now, true, fx);
    }

    /// Complete an Upgrade transaction at bus grant.
    pub fn complete_upgrade(&mut self, line: LineAddr, now: u64) -> UpgradeResult {
        match self.tags.probe(line) {
            LookupOutcome::Hit(slot) if self.tags.slot(slot).meta.state == MesiState::Shared => {
                self.tags.update_meta(slot, |m| m.state = MesiState::Modified);
                self.apply_arming(slot, MesiState::Modified);
                self.decay_access(slot);
                self.tags.touch(slot);
                let _ = now;
                // Entry done: waiting stores are satisfied by ownership.
                self.mshr.complete(line);
                self.clear_flags(line);
                UpgradeResult::Done
            }
            _ => UpgradeResult::ConvertToMiss,
        }
    }

    /// The data for an in-flight miss arrived. Installs the line (unless
    /// doomed), completes the MSHR entry and returns
    /// `(read_targets, write_targets_to_reissue, installed)`.
    ///
    /// `shared_wire` is the OR of the shared asserts observed at grant
    /// time; a `fill_shared` race flag also forces Shared.
    pub fn fill(
        &mut self,
        line: LineAddr,
        shared_wire: bool,
        now: u64,
        fx: &mut SideEffects,
    ) -> (u32, u32, bool) {
        let Some(entry) = self.mshr.complete(line) else {
            return (0, 0, false);
        };
        let flags = self.take_flags(line);
        let mut reads = 0u32;
        let mut writes = 0u32;
        for t in &entry.targets {
            match t {
                L2Target::Read => reads += 1,
                L2Target::Write => writes += 1,
            }
        }
        if flags.doomed {
            // Bus order put an invalidating transaction after our grant:
            // the arriving data must not be cached. Reads complete with
            // the forwarded data; writes must re-acquire ownership.
            return (reads, writes, false);
        }
        let demoted = shared_wire || flags.fill_shared;
        let state = if entry.exclusive && !demoted {
            fill_state(false, true)
        } else {
            fill_state(demoted, false)
        };
        let Some(victim) = self.pick_victim(line) else {
            // Every way is transient (pathological): treat like doomed —
            // forward data without caching. Writes re-acquire.
            self.stats.retries += 1;
            return (reads, writes, false);
        };
        self.install(victim, line, state, now, fx);
        if entry.exclusive && demoted {
            // We wanted M but a concurrent reader demoted us: the stores
            // must upgrade after install; the caller re-issues them.
            return (reads, writes, true);
        }
        (reads, if state == MesiState::Modified { 0 } else { writes }, true)
    }

    /// Victim slot among stationary lines (invalid first, then LRU);
    /// `None` if the whole set is transient.
    fn pick_victim(&self, line: LineAddr) -> Option<usize> {
        let mut best: Option<(usize, u8)> = None;
        for slot in self.tags.set_slots(line) {
            let l = self.tags.slot(slot);
            if !l.meta.state.is_valid() {
                return Some(slot);
            }
            if !l.meta.state.is_stationary() {
                continue;
            }
            if best.map(|(_, lru)| l.lru < lru).unwrap_or(true) {
                best = Some((slot, l.lru));
            }
        }
        best.map(|(s, _)| s)
    }

    fn install(
        &mut self,
        slot: usize,
        line: LineAddr,
        state: MesiState,
        now: u64,
        fx: &mut SideEffects,
    ) {
        let victim = self.tags.slot(slot);
        if victim.meta.state.is_valid() {
            let vline = victim.tag;
            let vmeta = victim.meta;
            self.stats.evictions += 1;
            if vmeta.state.is_dirty() {
                fx.writebacks.push(vline);
                self.stats.writebacks += 1;
            }
            if vmeta.in_l1 {
                // Inclusion: the L1 copy must go. This is a baseline
                // cost, not a technique cost.
                fx.upper_invals.push((vline, false));
            }
            // The shadow evicts by its own LRU: divergence between the
            // two is exactly what the induced metric measures.
        }
        self.tags.fill(slot, line, L2Meta { state, in_l1: false });
        self.power_on(slot, now);
        self.decay_access(slot);
        self.apply_arming(slot, state);
        self.stats.fills += 1;
    }

    // ---- miss-flag bookkeeping -------------------------------------------

    fn flag_mut(&mut self, line: LineAddr) -> &mut MissFlags {
        let pos = match self.flags.iter().position(|(l, _)| *l == line) {
            Some(pos) => pos,
            None => {
                self.flags.push((line, MissFlags::default()));
                self.flags.len() - 1
            }
        };
        &mut self.flags[pos].1
    }

    fn take_flags(&mut self, line: LineAddr) -> MissFlags {
        if let Some(pos) = self.flags.iter().position(|(l, _)| *l == line) {
            self.flags.swap_remove(pos).1
        } else {
            MissFlags::default()
        }
    }

    fn clear_flags(&mut self, line: LineAddr) {
        self.take_flags(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> L2Config {
        L2Config {
            size_bytes: 4096, // 8 sets x 8 ways x 64B
            line_bytes: 64,
            assoc: 8,
            hit_latency: 12,
            mshr_entries: 4,
            upper_inval_latency: 4,
            ports: 2,
            decay_counter_bits: 2,
        }
    }

    fn l2(technique: Technique) -> L2Cache {
        L2Cache::new(&cfg(), technique)
    }

    fn fill_line(c: &mut L2Cache, line: LineAddr, exclusive: bool, now: u64) {
        let fx = &mut SideEffects::default();
        if exclusive {
            assert_eq!(c.probe_write(line), L2WriteOutcome::MissPrimary);
        } else {
            assert_eq!(c.probe_read(line), L2ReadOutcome::MissPrimary);
        }
        let (_, _, installed) = c.fill(line, false, now, fx);
        assert!(installed);
    }

    const L: LineAddr = LineAddr(0x100);

    #[test]
    fn read_miss_fill_hit() {
        let mut c = l2(Technique::Baseline);
        assert_eq!(c.probe_read(L), L2ReadOutcome::MissPrimary);
        assert_eq!(c.probe_read(L), L2ReadOutcome::MissSecondary);
        let fx = &mut SideEffects::default();
        let (reads, writes, installed) = c.fill(L, false, 10, fx);
        assert_eq!((reads, writes, installed), (2, 0, true));
        assert_eq!(c.state_of(L), Some(MesiState::Exclusive));
        assert_eq!(c.probe_read(L), L2ReadOutcome::Hit);
    }

    #[test]
    fn shared_wire_fills_shared() {
        let mut c = l2(Technique::Baseline);
        c.probe_read(L);
        let fx = &mut SideEffects::default();
        c.fill(L, true, 10, fx);
        assert_eq!(c.state_of(L), Some(MesiState::Shared));
    }

    #[test]
    fn write_miss_fills_modified_and_absorbs_stores() {
        let mut c = l2(Technique::Baseline);
        assert_eq!(c.probe_write(L), L2WriteOutcome::MissPrimary);
        let fx = &mut SideEffects::default();
        let (r, w, installed) = c.fill(L, false, 10, fx);
        assert_eq!((r, w, installed), (0, 0, true), "writes satisfied by M fill");
        assert_eq!(c.state_of(L), Some(MesiState::Modified));
        assert_eq!(c.probe_write(L), L2WriteOutcome::Done);
    }

    #[test]
    fn silent_e_to_m_upgrade_on_write_hit() {
        let mut c = l2(Technique::Baseline);
        fill_line(&mut c, L, false, 0);
        assert_eq!(c.state_of(L), Some(MesiState::Exclusive));
        assert_eq!(c.probe_write(L), L2WriteOutcome::Done);
        assert_eq!(c.state_of(L), Some(MesiState::Modified));
    }

    #[test]
    fn shared_write_hit_issues_upgrade() {
        let mut c = l2(Technique::Baseline);
        c.probe_read(L);
        let fx = &mut SideEffects::default();
        c.fill(L, true, 0, fx); // Shared
        assert_eq!(c.probe_write(L), L2WriteOutcome::UpgradeIssued);
        assert!(c.pending_exclusive(L));
        assert_eq!(c.complete_upgrade(L, 5), UpgradeResult::Done);
        assert_eq!(c.state_of(L), Some(MesiState::Modified));
        assert!(!c.busy());
    }

    #[test]
    fn upgrade_converts_to_miss_if_line_stolen() {
        let mut c = l2(Technique::Baseline);
        c.probe_read(L);
        let fx = &mut SideEffects::default();
        c.fill(L, true, 0, fx);
        assert_eq!(c.probe_write(L), L2WriteOutcome::UpgradeIssued);
        // Another core's BusRdX lands first.
        c.snoop(L, SnoopKind::BusRdX, 3, fx);
        assert_eq!(c.state_of(L), None);
        assert_eq!(c.complete_upgrade(L, 5), UpgradeResult::ConvertToMiss);
        assert!(c.miss_pending(L), "entry stays for the converted miss");
    }

    #[test]
    fn snoop_busrd_on_modified_flushes_and_shares() {
        let mut c = l2(Technique::Baseline);
        fill_line(&mut c, L, true, 0);
        let fx = &mut SideEffects::default();
        let reply = c.snoop(L, SnoopKind::BusRd, 5, fx);
        assert!(reply.supply_data && reply.assert_shared);
        assert_eq!(c.state_of(L), Some(MesiState::Shared));
        assert_eq!(fx.writebacks, vec![L]);
    }

    #[test]
    fn snoop_busrdx_with_l1_copy_detours_through_td() {
        let mut c = l2(Technique::Protocol);
        fill_line(&mut c, L, true, 0);
        c.set_in_l1(L, true);
        let fx = &mut SideEffects::default();
        let reply = c.snoop(L, SnoopKind::BusRdX, 5, fx);
        assert!(reply.supply_data);
        assert_eq!(fx.upper_invals, vec![(L, false)]);
        assert_eq!(fx.grants.len(), 1);
        assert!(!c.holds_valid(L), "transient line is not valid for probes");
        // Grant completes the invalidation; Protocol gates the line.
        let (due, slot, line) = fx.grants[0];
        let fx2 = &mut SideEffects::default();
        c.grant(slot, line, due, fx2);
        assert_eq!(c.state_of(L), None);
        assert_eq!(c.stats().turnoffs_protocol, 1);
    }

    #[test]
    fn protocol_gating_counts_on_direct_invalidation() {
        let mut c = l2(Technique::Protocol);
        fill_line(&mut c, L, false, 0);
        let fx = &mut SideEffects::default();
        c.snoop(L, SnoopKind::BusRdX, 5, fx);
        assert_eq!(c.stats().snoop_invalidations, 1);
        assert_eq!(c.stats().turnoffs_protocol, 1);
        assert_eq!(c.powered_lines(), 0, "protocol cache gates invalidated lines");
    }

    #[test]
    fn baseline_keeps_invalidated_lines_powered() {
        let mut c = l2(Technique::Baseline);
        let total = c.geometry().lines() as u64;
        fill_line(&mut c, L, false, 0);
        let fx = &mut SideEffects::default();
        c.snoop(L, SnoopKind::BusRdX, 5, fx);
        assert_eq!(c.powered_lines(), total, "baseline never gates");
    }

    #[test]
    fn cold_lines_start_gated_under_techniques() {
        let c = l2(Technique::Decay { decay_cycles: 1024 });
        assert_eq!(c.powered_lines(), 0);
        let b = l2(Technique::Baseline);
        assert_eq!(b.powered_lines(), b.geometry().lines() as u64);
    }

    #[test]
    fn decay_turns_off_idle_clean_line() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, false, 0);
        assert_eq!(c.powered_lines(), 1);
        let decayed = c.take_decayed(1024);
        assert_eq!(decayed.len(), 1);
        let fx = &mut SideEffects::default();
        c.turn_off(decayed[0], 1024, false, fx);
        assert_eq!(c.state_of(L), None);
        assert_eq!(c.powered_lines(), 0);
        assert_eq!(c.stats().turnoffs_decay, 1);
        assert!(fx.writebacks.is_empty(), "clean turn-off is free");
    }

    #[test]
    fn decay_of_modified_line_writes_back() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, true, 0);
        let decayed = c.take_decayed(1024);
        let fx = &mut SideEffects::default();
        c.turn_off(decayed[0], 1024, false, fx);
        assert_eq!(fx.writebacks, vec![L]);
        assert_eq!(c.stats().dirty_decay_turnoffs, 1);
        assert_eq!(c.powered_lines(), 0);
    }

    #[test]
    fn decay_of_modified_line_with_l1_copy_invalidates_upward() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, true, 0);
        c.set_in_l1(L, true);
        let decayed = c.take_decayed(1024);
        let fx = &mut SideEffects::default();
        c.turn_off(decayed[0], 1024, false, fx);
        assert_eq!(fx.upper_invals, vec![(L, true)], "technique-induced L1 invalidation");
        assert_eq!(fx.grants.len(), 1);
        assert_eq!(c.powered_lines(), 1, "gating waits for the grant");
        let (due, slot, line) = fx.grants[0];
        let fx2 = &mut SideEffects::default();
        c.grant(slot, line, due, fx2);
        assert_eq!(c.powered_lines(), 0);
    }

    #[test]
    fn selective_decay_never_decays_modified_lines() {
        let mut c = l2(Technique::SelectiveDecay { decay_cycles: 1024 });
        fill_line(&mut c, L, true, 0); // fills Modified -> disarmed
        assert!(c.take_decayed(100 * 1024).is_empty(), "M lines are disarmed");
        // A snoop read demotes to Shared -> rearmed.
        let fx = &mut SideEffects::default();
        c.snoop(L, SnoopKind::BusRd, 200 * 1024, fx);
        assert_eq!(c.state_of(L), Some(MesiState::Shared));
        let decayed = c.take_decayed(202 * 1024);
        assert_eq!(decayed.len(), 1, "S line decays after rearm");
    }

    #[test]
    fn pending_write_defers_turn_off() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, false, 0);
        let decayed = c.take_decayed(1024);
        let fx = &mut SideEffects::default();
        c.turn_off(decayed[0], 1024, true, fx);
        assert!(fx.is_empty());
        assert!(c.holds_valid(L), "line survives while a write is pending");
        let deferred = c.take_deferred_turnoffs();
        assert_eq!(deferred.len(), 1);
        // Retry without the pending write: now it gates.
        c.turn_off(deferred[0], 1100, false, fx);
        assert_eq!(c.state_of(L), None);
    }

    #[test]
    fn deferred_turn_off_dropped_after_reaccess() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, false, 0);
        let decayed = c.take_decayed(1024);
        let fx = &mut SideEffects::default();
        c.turn_off(decayed[0], 1024, true, fx); // deferred
        assert_eq!(c.probe_read(L), L2ReadOutcome::Hit); // reset counter
        let deferred = c.take_deferred_turnoffs();
        c.turn_off(deferred[0], 1100, false, fx);
        assert!(c.holds_valid(L), "re-accessed line must not be gated");
    }

    #[test]
    fn inflight_busrd_demotes_fill_to_shared() {
        let mut c = l2(Technique::Baseline);
        c.probe_read(L);
        let fx = &mut SideEffects::default();
        let reply = c.snoop(L, SnoopKind::BusRd, 2, fx);
        assert!(reply.assert_shared, "in-flight line must assert shared");
        let (_, _, installed) = c.fill(L, false, 10, fx);
        assert!(installed);
        assert_eq!(c.state_of(L), Some(MesiState::Shared));
    }

    #[test]
    fn inflight_busrdx_dooms_fill() {
        let mut c = l2(Technique::Baseline);
        c.probe_read(L);
        let fx = &mut SideEffects::default();
        c.snoop(L, SnoopKind::BusRdX, 2, fx);
        let (reads, _, installed) = c.fill(L, false, 10, fx);
        assert_eq!(reads, 1);
        assert!(!installed, "doomed fill must not cache the line");
        assert_eq!(c.state_of(L), None);
    }

    #[test]
    fn exclusive_fill_demoted_by_reader_reissues_writes() {
        let mut c = l2(Technique::Baseline);
        assert_eq!(c.probe_write(L), L2WriteOutcome::MissPrimary);
        let fx = &mut SideEffects::default();
        c.snoop(L, SnoopKind::BusRd, 2, fx); // concurrent reader
        let (_, writes, installed) = c.fill(L, false, 10, fx);
        assert!(installed);
        assert_eq!(c.state_of(L), Some(MesiState::Shared));
        assert_eq!(writes, 1, "store must be re-issued as an upgrade");
    }

    #[test]
    fn eviction_of_dirty_line_writes_back_and_back_invalidates() {
        let mut c = l2(Technique::Baseline);
        let geom = c.geometry();
        let sets = geom.sets() as u64;
        // Fill all 8 ways of set 0 with dirty lines, L1 copies present.
        for i in 0..8u64 {
            let line = LineAddr(i * sets);
            fill_line(&mut c, line, true, 0);
            c.set_in_l1(line, true);
        }
        // Ninth line in the same set evicts the LRU one.
        let newline = LineAddr(8 * sets);
        assert_eq!(c.probe_read(newline), L2ReadOutcome::MissPrimary);
        let fx = &mut SideEffects::default();
        c.fill(newline, false, 100, fx);
        assert_eq!(fx.writebacks.len(), 1, "dirty victim written back");
        assert_eq!(fx.upper_invals.len(), 1, "inclusion back-invalidation");
        assert!(!fx.upper_invals[0].1, "eviction is a baseline cost");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn occupation_accounting_integrates_on_time() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, false, 100);
        let decayed = c.take_decayed(1024 + 100);
        let fx = &mut SideEffects::default();
        for slot in decayed {
            c.turn_off(slot, 1124, false, fx);
        }
        let on = c.finish_on_cycles(5000);
        assert_eq!(on, 1024, "line was powered from 100 to 1124");
    }

    #[test]
    fn induced_misses_detected_via_shadow() {
        let mut c = l2(Technique::Decay { decay_cycles: 1024 });
        fill_line(&mut c, L, false, 0);
        let decayed = c.take_decayed(1024);
        let fx = &mut SideEffects::default();
        for slot in decayed {
            c.turn_off(slot, 1024, false, fx);
        }
        // Re-access: the baseline would have hit.
        assert_eq!(c.probe_read(L), L2ReadOutcome::MissPrimary);
        assert_eq!(c.stats().induced_misses, 1);
        assert_eq!(c.stats().misses, 2, "cold miss + induced miss");
    }

    #[test]
    fn hit_latency_includes_decay_penalty() {
        let base = l2(Technique::Baseline);
        let dec = l2(Technique::Decay { decay_cycles: 1024 });
        assert_eq!(dec.hit_latency(), base.hit_latency() + 1);
    }
}
