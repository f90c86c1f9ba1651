//! The paper's leakage-saving techniques (§IV), expressed as policy
//! decisions layered over the turn-off mechanism of [`crate::mesi`].
//!
//! A technique answers four questions for the cache controller:
//!
//! 1. do *cold* (never-allocated) lines stay gated? — yes for every
//!    technique, no for the always-on baseline;
//! 2. is a line gated when the protocol invalidates it? — yes for every
//!    technique ("a line is turned off either because a line is
//!    invalidated or a turn-off signal is generated by the decay
//!    logic"), no for the baseline;
//! 3. does decay logic exist, and with what interval? — only for *Decay*
//!    and *Selective Decay*;
//! 4. when is a line's decay counter **armed**? — always for *Decay*;
//!    only on transitions into Shared/Exclusive for *Selective Decay*
//!    (transitions into Modified disarm it, so M lines never decay and
//!    never pay the write-back + upper-invalidate turn-off cost).

use crate::mesi::MesiState;
use std::fmt;

/// A leakage-management technique for the private L2 caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Unoptimized cache: every line powered for the whole run. The
    /// reference all figures normalise against.
    Baseline,
    /// *Turn off on Protocol Invalidation*: gate lines the coherence
    /// protocol invalidates anyway (plus cold lines). Zero performance
    /// cost by construction.
    Protocol,
    /// Fixed-interval cache decay (Kaxiras et al.) on top of the turn-off
    /// mechanism; `decay_cycles` is the nominal interval.
    Decay {
        /// Nominal decay interval in cycles.
        decay_cycles: u64,
    },
    /// Performance-optimised decay: lines decay only while clean, so a
    /// decay never triggers the costly Modified turn-off path.
    SelectiveDecay {
        /// Nominal decay interval in cycles.
        decay_cycles: u64,
    },
}

/// What the decay-arming hook decided after a state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecayArming {
    /// Counter keeps running (or there is no decay logic at all).
    Unchanged,
    /// Counter armed: the line is allowed to decay.
    Arm,
    /// Counter disarmed: the line must not decay while in this state.
    Disarm,
}

impl Technique {
    /// The decay interval, if this technique uses decay logic.
    #[inline]
    pub fn decay_cycles(&self) -> Option<u64> {
        match self {
            Technique::Decay { decay_cycles } | Technique::SelectiveDecay { decay_cycles } => {
                Some(*decay_cycles)
            }
            _ => None,
        }
    }

    /// Whether never-used lines start (and stay) gated.
    #[inline]
    pub fn gates_cold_lines(&self) -> bool {
        !matches!(self, Technique::Baseline)
    }

    /// Whether a protocol invalidation gates the line.
    #[inline]
    pub fn gates_on_protocol_invalidation(&self) -> bool {
        !matches!(self, Technique::Baseline)
    }

    /// Whether the decay side-structures (counters, global tick) exist —
    /// used both for behaviour and for the energy overhead accounting.
    #[inline]
    pub fn has_decay_logic(&self) -> bool {
        self.decay_cycles().is_some()
    }

    /// Whether a run under this technique is **cycle-for-cycle identical**
    /// to the baseline run of the same workload, differing only in power
    /// bookkeeping (which lines are gated when). True exactly for
    /// *Protocol*: it pays no access-time penalty and only ever gates
    /// lines that are cold or that the coherence protocol invalidated
    /// anyway, so no access, miss, bus transaction or stall can differ —
    /// "zero performance cost by construction" (§IV). Decay techniques
    /// add the 1-cycle array penalty and turn off *valid* lines, both of
    /// which perturb timing. The sweep uses this to derive the baseline
    /// cell from the technique run instead of simulating it twice; the
    /// claim is pinned cell-for-cell by `tests/sweep_memoization.rs` and
    /// the golden snapshot.
    #[inline]
    pub fn timing_identical_to_baseline(&self) -> bool {
        !matches!(self, Technique::Baseline) && !self.has_decay_logic()
    }

    /// Whether the cache pays the 1-cycle access-time penalty the paper
    /// attributes to decay-capable arrays (§V, following Powell et al.).
    #[inline]
    pub fn access_penalty_cycles(&self) -> u64 {
        if self.has_decay_logic() {
            1
        } else {
            0
        }
    }

    /// Decide arming after a line *enters* `state` (fill or transition).
    ///
    /// *Decay* arms on any valid state. *Selective Decay* arms only on
    /// transitions leading to Shared or Exclusive and disarms on
    /// transitions into Modified (§IV).
    pub fn arming_on_enter(&self, state: MesiState) -> DecayArming {
        match self {
            Technique::Baseline | Technique::Protocol => DecayArming::Unchanged,
            Technique::Decay { .. } => match state {
                MesiState::Invalid => DecayArming::Unchanged,
                _ => DecayArming::Arm,
            },
            Technique::SelectiveDecay { .. } => match state {
                MesiState::Shared | MesiState::Exclusive => DecayArming::Arm,
                MesiState::Modified => DecayArming::Disarm,
                _ => DecayArming::Unchanged,
            },
        }
    }

    /// Canonical short name used in figures and the CLI, mirroring the
    /// paper's labels (`protocol`, `decay512K`, `sel_decay64K`, ...).
    /// The [`Display`](fmt::Display) form, which writes it without
    /// allocating.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// The seven configurations evaluated in every figure of the paper:
    /// `protocol`, `decay` and `sel_decay` at 512K/128K/64K-cycle decay
    /// intervals.
    pub fn paper_set() -> Vec<Technique> {
        let mut v = vec![Technique::Protocol];
        for &d in &[512, 128, 64] {
            v.push(Technique::Decay { decay_cycles: d * 1024 });
        }
        for &d in &[512, 128, 64] {
            v.push(Technique::SelectiveDecay { decay_cycles: d * 1024 });
        }
        v
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (family, cycles) = match *self {
            Technique::Baseline => return f.write_str("baseline"),
            Technique::Protocol => return f.write_str("protocol"),
            Technique::Decay { decay_cycles } => ("decay", decay_cycles),
            Technique::SelectiveDecay { decay_cycles } => ("sel_decay", decay_cycles),
        };
        if cycles.is_multiple_of(1024) {
            write!(f, "{family}{}K", cycles / 1024)
        } else {
            write!(f, "{family}{cycles}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_gates_nothing() {
        let b = Technique::Baseline;
        assert!(!b.gates_cold_lines());
        assert!(!b.gates_on_protocol_invalidation());
        assert!(!b.has_decay_logic());
        assert_eq!(b.access_penalty_cycles(), 0);
    }

    #[test]
    fn protocol_gates_invalidations_but_has_no_decay() {
        let p = Technique::Protocol;
        assert!(p.gates_cold_lines());
        assert!(p.gates_on_protocol_invalidation());
        assert!(!p.has_decay_logic());
        assert_eq!(p.access_penalty_cycles(), 0);
    }

    #[test]
    fn only_protocol_is_timing_identical_to_baseline() {
        assert!(Technique::Protocol.timing_identical_to_baseline());
        assert!(!Technique::Baseline.timing_identical_to_baseline(), "baseline is not a *twin*");
        assert!(!Technique::Decay { decay_cycles: 1024 }.timing_identical_to_baseline());
        assert!(!Technique::SelectiveDecay { decay_cycles: 1024 }.timing_identical_to_baseline());
    }

    #[test]
    fn decay_arms_everywhere_valid() {
        let d = Technique::Decay { decay_cycles: 1000 };
        assert_eq!(d.arming_on_enter(MesiState::Modified), DecayArming::Arm);
        assert_eq!(d.arming_on_enter(MesiState::Shared), DecayArming::Arm);
        assert_eq!(d.arming_on_enter(MesiState::Exclusive), DecayArming::Arm);
        assert_eq!(d.arming_on_enter(MesiState::Invalid), DecayArming::Unchanged);
        assert_eq!(d.access_penalty_cycles(), 1);
    }

    #[test]
    fn selective_decay_never_lets_modified_decay() {
        let sd = Technique::SelectiveDecay { decay_cycles: 1000 };
        assert_eq!(sd.arming_on_enter(MesiState::Shared), DecayArming::Arm);
        assert_eq!(sd.arming_on_enter(MesiState::Exclusive), DecayArming::Arm);
        assert_eq!(sd.arming_on_enter(MesiState::Modified), DecayArming::Disarm);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Technique::Protocol.name(), "protocol");
        assert_eq!(Technique::Decay { decay_cycles: 512 * 1024 }.name(), "decay512K");
        assert_eq!(Technique::SelectiveDecay { decay_cycles: 64 * 1024 }.name(), "sel_decay64K");
        assert_eq!(Technique::Decay { decay_cycles: 1000 }.name(), "decay1000");
        assert_eq!(Technique::Baseline.name(), "baseline");
    }

    #[test]
    fn paper_set_is_the_seven_figure_configs() {
        let set = Technique::paper_set();
        assert_eq!(set.len(), 7);
        let names: Vec<String> = set.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "protocol",
                "decay512K",
                "decay128K",
                "decay64K",
                "sel_decay512K",
                "sel_decay128K",
                "sel_decay64K"
            ]
        );
    }
}
