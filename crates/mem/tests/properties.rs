//! Property-based tests for the memory structures, checked against
//! straightforward reference models.

use cmpleak_mem::array::LineMeta;
use cmpleak_mem::{
    DecayBank, DecayConfig, Geometry, LineAddr, LineStateBank, LookupOutcome, Mshr, MshrAlloc,
    SetAssocArray, WriteBuffer,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

#[derive(Default, Clone, Debug)]
struct V(bool);
impl LineMeta for V {
    fn is_valid(&self) -> bool {
        self.0
    }
    fn to_byte(&self) -> u8 {
        self.0.into()
    }
    fn from_byte(b: u8) -> Self {
        V(b != 0)
    }
}

/// Reference model of a set-associative LRU cache: per set, a VecDeque
/// ordered MRU-first.
#[derive(Default)]
struct RefCache {
    sets: HashMap<usize, VecDeque<u64>>,
    assoc: usize,
}

impl RefCache {
    /// Access `line`: whether it hit, and the line evicted to make room.
    fn access(&mut self, set: usize, line: u64) -> (bool, Option<u64>) {
        let q = self.sets.entry(set).or_default();
        if let Some(pos) = q.iter().position(|&l| l == line) {
            q.remove(pos);
            q.push_front(line);
            (true, None)
        } else {
            q.push_front(line);
            let evicted = if q.len() > self.assoc { q.pop_back() } else { None };
            (false, evicted)
        }
    }

    /// Whether `line` is resident (no LRU update).
    fn contains(&self, set: usize, line: u64) -> bool {
        self.sets.get(&set).is_some_and(|q| q.contains(&line))
    }

    /// Drop `line` if resident; returns whether it was.
    fn invalidate(&mut self, set: usize, line: u64) -> bool {
        let q = self.sets.entry(set).or_default();
        let pos = q.iter().position(|&l| l == line);
        pos.map(|p| q.remove(p)).is_some()
    }
}

proptest! {
    /// The tag array under a lookup+fill-on-miss discipline behaves
    /// exactly like the reference LRU model.
    #[test]
    fn tag_array_matches_reference_lru(
        addrs in proptest::collection::vec(0u64..4096, 1..500)
    ) {
        let geom = Geometry::new(4096, 64, 4); // 16 sets x 4 ways
        let mut arr: SetAssocArray<V> = SetAssocArray::new(geom);
        let mut reference = RefCache { assoc: 4, ..Default::default() };
        for a in addrs {
            let line = geom.line_of(a * 64);
            let set = geom.set_index(line);
            let (model_hit, _) = reference.access(set, line.0);
            let real_hit = match arr.lookup(line) {
                LookupOutcome::Hit(_) => true,
                LookupOutcome::Miss => {
                    let v = arr.victim(line);
                    arr.fill(v, line, V(true));
                    false
                }
            };
            prop_assert_eq!(model_hit, real_hit, "divergence at line {}", line.0);
        }
    }

    /// The 8-bit per-set LRU clocks wrap every 252 touches of a 4-way
    /// set: over 1–2 sets and up to 3,000 operations every clock wraps
    /// several times. Lookups (filling the victim on a miss), probes and
    /// invalidations are mixed; every hit or miss, and every line a fill
    /// evicts, must match the reference LRU model.
    #[test]
    fn tag_array_matches_reference_lru_across_clock_wraps(
        two_sets in any::<bool>(),
        ops in proptest::collection::vec((0u64..24, 0u8..8), 1..3000)
    ) {
        let sets = if two_sets { 2 } else { 1 };
        let geom = Geometry::new(sets * 4 * 64, 64, 4);
        let mut arr: SetAssocArray<V> = SetAssocArray::new(geom);
        let mut reference = RefCache { assoc: 4, ..Default::default() };
        for (i, (a, kind)) in ops.into_iter().enumerate() {
            let line = geom.line_of(a * 64);
            let set = geom.set_index(line);
            match kind {
                0 => {
                    let real = match arr.probe(line) {
                        LookupOutcome::Hit(slot) => {
                            arr.invalidate(slot);
                            true
                        }
                        LookupOutcome::Miss => false,
                    };
                    prop_assert_eq!(real, reference.invalidate(set, line.0), "invalidate, op {}", i);
                }
                1 => {
                    let real = matches!(arr.probe(line), LookupOutcome::Hit(_));
                    prop_assert_eq!(real, reference.contains(set, line.0), "probe, op {}", i);
                }
                _ => {
                    let (model_hit, model_evicted) = reference.access(set, line.0);
                    let real_evicted = match arr.lookup(line) {
                        LookupOutcome::Hit(_) => {
                            prop_assert!(model_hit, "hit the model missed, op {}", i);
                            None
                        }
                        LookupOutcome::Miss => {
                            prop_assert!(!model_hit, "miss the model hit, op {}", i);
                            let v = arr.victim(line);
                            arr.fill(v, line, V(true)).map(|(l, _)| l.0)
                        }
                    };
                    prop_assert_eq!(real_evicted, model_evicted, "victim, op {}", i);
                }
            }
        }
    }

    /// Valid-count never exceeds capacity and matches the set union of
    /// installed-minus-invalidated lines.
    #[test]
    fn valid_count_is_consistent(
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..300)
    ) {
        let geom = Geometry::new(2048, 64, 2);
        let mut arr: SetAssocArray<V> = SetAssocArray::new(geom);
        for (a, invalidate) in ops {
            let line = geom.line_of(a * 64);
            match arr.probe(line) {
                LookupOutcome::Hit(slot) if invalidate => arr.invalidate(slot),
                LookupOutcome::Hit(slot) => arr.touch(slot),
                LookupOutcome::Miss => {
                    let v = arr.victim(line);
                    arr.fill(v, line, V(true));
                }
            }
            prop_assert!(arr.valid_count() <= geom.lines());
            // No duplicate tags among valid lines.
            let tags: Vec<u64> =
                arr.iter().filter(|(_, l)| l.meta.is_valid()).map(|(_, l)| l.tag.0).collect();
            let set: HashSet<u64> = tags.iter().copied().collect();
            prop_assert_eq!(tags.len(), set.len(), "duplicate resident tag");
        }
    }

    /// Decay bank: a line never decays sooner than `decay - tick` cycles
    /// after its last access, and always decays within `decay + tick`
    /// if untouched, regardless of the access pattern.
    #[test]
    fn decay_window_is_tight(
        accesses in proptest::collection::vec(0u64..10_000, 1..50),
        decay_exp in 10u32..16,
    ) {
        let decay = 1u64 << decay_exp;
        let cfg = DecayConfig::fixed(decay);
        let tick = cfg.tick_period();
        let mut bank = DecayBank::new(cfg);
        let mut st = LineStateBank::new(1);
        let mut sorted = accesses.clone();
        sorted.sort_unstable();
        let mut out = Vec::new();
        let mut last = 0u64;
        for t in sorted {
            bank.advance(&mut st, t, &mut out);
            for &slot in &out {
                prop_assert_eq!(slot, 0);
            }
            if !out.is_empty() {
                // Decay must not fire before decay - tick since last access.
                prop_assert!(t >= last + decay - tick,
                    "decayed at {t}, last access {last}, window {decay}±{tick}");
                out.clear();
            }
            bank.on_access(&mut st, 0);
            last = t;
        }
        // Untouched line decays within one window past last access.
        let mut fired = Vec::new();
        bank.advance(&mut st, last + decay + tick, &mut fired);
        prop_assert_eq!(fired, vec![0usize], "line must decay after going idle");
    }

    /// MSHR: merged targets always come back complete and in insertion
    /// order; capacity is respected.
    #[test]
    fn mshr_preserves_targets(
        reqs in proptest::collection::vec((0u64..8, 0u32..100), 1..60)
    ) {
        let mut mshr: Mshr<u32> = Mshr::new(4, 64);
        let mut expected: HashMap<u64, Vec<u32>> = HashMap::new();
        for (line, tag) in reqs {
            match mshr.allocate(LineAddr(line), tag, false) {
                MshrAlloc::Primary | MshrAlloc::Secondary => {
                    expected.entry(line).or_default().push(tag);
                }
                MshrAlloc::Full => {}
            }
            prop_assert!(mshr.len() <= 4);
        }
        let lines: Vec<u64> = expected.keys().copied().collect();
        for line in lines {
            if let Some(entry) = mshr.complete(LineAddr(line)) {
                prop_assert_eq!(&entry.targets, expected.get(&line).unwrap());
            }
        }
        prop_assert!(mshr.is_empty());
    }

    /// Write buffer: drains in FIFO order of first-store per line, never
    /// holds duplicates, never exceeds capacity.
    #[test]
    fn write_buffer_fifo_and_coalescing(
        stores in proptest::collection::vec(0u64..16, 1..100)
    ) {
        let mut wb = WriteBuffer::new(4);
        let mut model: VecDeque<u64> = VecDeque::new();
        for s in stores {
            let accepted = wb.push(LineAddr(s));
            let in_model = model.contains(&s);
            if in_model {
                prop_assert!(accepted, "coalescing store must be accepted");
            } else if model.len() < 4 {
                prop_assert!(accepted);
                model.push_back(s);
            } else {
                prop_assert!(!accepted, "full buffer must refuse");
            }
            prop_assert!(wb.len() <= 4);
            // Occasionally drain.
            if model.len() == 4 {
                let head = wb.pop();
                prop_assert_eq!(head.map(|l| l.0), model.pop_front());
            }
        }
        while let Some(l) = wb.pop() {
            prop_assert_eq!(Some(l.0), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// Geometry round-trip: any address maps to a set within range and
    /// back to a line base inside the original line.
    #[test]
    fn geometry_roundtrip(addr in any::<u64>()) {
        let geom = Geometry::new(1 << 20, 64, 8);
        let line = geom.line_of(addr & ((1 << 48) - 1));
        let set = geom.set_index(line);
        prop_assert!(set < geom.sets());
        let base = line.byte_base(64);
        prop_assert_eq!(base >> 6 << 6, base);
        prop_assert_eq!(geom.line_of(base), line);
    }

    /// Write buffer under *interleaved* pushes and drains: statistics
    /// stay consistent (`len = stores − coalesced − drained`), stalls
    /// are counted exactly when a non-coalescing store meets a full
    /// buffer, coalescing keeps working at capacity, and `has_pending`
    /// agrees with a reference set.
    #[test]
    fn write_buffer_edge_cases_under_interleaving(
        events in proptest::collection::vec((0u64..6, 0u32..4), 1..200),
        capacity in 1usize..5,
    ) {
        let mut wb = WriteBuffer::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let (mut stalls, mut accepted, mut coalesced, mut drained) = (0u64, 0u64, 0u64, 0u64);
        for (line, action) in events {
            if action == 0 {
                // Drain one entry.
                let popped = wb.pop();
                prop_assert_eq!(popped.map(|l| l.0), model.pop_front());
                drained += u64::from(popped.is_some());
                continue;
            }
            let was_full = model.len() >= capacity;
            let coalesces = model.contains(&line);
            let ok = wb.push(LineAddr(line));
            if coalesces {
                prop_assert!(ok, "coalescing must succeed even at capacity");
                accepted += 1;
                coalesced += 1;
            } else if was_full {
                prop_assert!(!ok, "full buffer must refuse a fresh line");
                stalls += 1;
            } else {
                prop_assert!(ok);
                accepted += 1;
                model.push_back(line);
            }
            for l in 0..6u64 {
                prop_assert_eq!(
                    wb.has_pending(LineAddr(l)),
                    model.contains(&l),
                    "has_pending({}) disagrees with the reference", l
                );
            }
        }
        let stats = wb.stats();
        prop_assert_eq!(stats.stores, accepted);
        prop_assert_eq!(stats.coalesced, coalesced);
        prop_assert_eq!(stats.drained, drained);
        prop_assert_eq!(stats.full_stalls, stalls);
        prop_assert_eq!(wb.len() as u64, accepted - coalesced - drained);
    }

    /// MSHR allocation at the capacity boundary: entry-full and
    /// target-full both report `Full` without mutating state, secondary
    /// merges keep working while the file is entry-full, exclusivity is
    /// sticky once any merged request asked for it, and entries completed
    /// out of allocation order keep their targets.
    #[test]
    fn mshr_edge_cases_at_capacity(
        lines in proptest::collection::vec(0u64..6, 1..40),
        max_targets in 1usize..4,
    ) {
        let mut mshr: Mshr<u32> = Mshr::new(2, max_targets);
        let mut targets: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut exclusive: HashMap<u64, bool> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for (i, line) in lines.iter().copied().enumerate() {
            let tag = i as u32;
            let want_excl = i % 3 == 0;
            let before_len = mshr.len();
            match mshr.allocate(LineAddr(line), tag, want_excl) {
                MshrAlloc::Primary => {
                    prop_assert!(before_len < 2, "primary may not exceed capacity");
                    prop_assert!(!targets.contains_key(&line));
                    targets.insert(line, vec![tag]);
                    exclusive.insert(line, want_excl);
                    order.push(line);
                }
                MshrAlloc::Secondary => {
                    let t = targets.get_mut(&line).expect("secondary implies existing entry");
                    prop_assert!(t.len() < max_targets, "merge beyond target cap");
                    t.push(tag);
                    let e = exclusive.get_mut(&line).unwrap();
                    *e |= want_excl;
                }
                MshrAlloc::Full => {
                    let entry_full = !targets.contains_key(&line) && before_len >= 2;
                    let target_full =
                        targets.get(&line).is_some_and(|t| t.len() >= max_targets);
                    prop_assert!(entry_full || target_full, "Full only at a real limit");
                    prop_assert_eq!(mshr.len(), before_len, "Full must not mutate");
                }
            }
        }
        // Complete in reverse order: targets and exclusivity intact.
        for line in order.iter().rev() {
            let e = mshr.complete(LineAddr(*line)).expect("entry present");
            prop_assert_eq!(&e.targets, targets.get(line).unwrap());
            prop_assert_eq!(e.exclusive, exclusive[line], "exclusivity must be sticky");
        }
        prop_assert!(mshr.is_empty());
        prop_assert!(mshr.complete(LineAddr(0)).is_none(), "double complete is None");
    }
}
