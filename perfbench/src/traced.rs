//! The traced run: the workload re-driven single-threaded along the
//! cell-at-a-time public path, with a span around each call into a
//! layer, plus the simulator's exact counts (`SimStats`,
//! `EventQueueStats`, `ArenaStats` and, in the traced build,
//! `CycleProfile`).
//!
//! Spans named `<module>.<what>` time one library call each. A *shadow*
//! span times work the untraced workload does not do — live generation
//! and cursor replay measured on their own, record encoding (which
//! `publish` repeats), the store round trip on the grid workloads, the
//! figures of a served group — so a layer the workload uses only inside
//! another call, or not at all, still gets a per-op cost. Shadow spans
//! and their children are left out of `core.residual_frac`.

use crate::util::Digest;
use crate::workload::{render_figures, sweep_cell, N_CORES};
use cmpleak_coherence::Technique;
use cmpleak_core::{
    experiment::derive_baseline_cell, ExperimentConfig, ExperimentResult, FigureSet, Scenario,
    SweepCell, SweepConfig, SweepResults, TechniqueMetrics,
};
use cmpleak_mem::BankArena;
use cmpleak_power::evaluate_energy;
use cmpleak_store::{
    decode_record, encode_record, record::encode_payload, CellKey, ResultStore, StoredCell,
};
use cmpleak_system::{run_feeds_with_scratch, SimScratch, SimStats};
use cmpleak_trace::MemTrace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One timed call: what, when (ns since the run started), the span that
/// caused it, and the cell or request it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    pub shadow: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The module a span belongs to: the part of its name before the dot.
    pub fn module(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept in memory; written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, id: u64, shadow: bool) -> usize {
        let parent = self.stack.last().copied();
        let shadow = shadow || parent.is_some_and(|p| self.spans[p].shadow);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id, shadow });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name` serving cell or request `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.open(name, id, false);
        let r = f(self);
        self.close(idx);
        r
    }

    /// [`span`](Self::span) for work the untraced workload does not do.
    pub fn shadow<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.open(name, id, true);
        let r = f(self);
        self.close(idx);
        r
    }
}

/// Self time of each span in `spans` (duration minus its direct
/// children's), indexed like `spans`; `first` is the index of `spans[0]`
/// in the tracer.
pub fn self_times(spans: &[Span], first: usize) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first)) {
            child[p] += s.dur_ns();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Exact work counts of one traced iteration.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub sim: SimTotals,
    pub cycles_stepped: u64,
    pub cycles_skipped: u64,
    pub cycles_batched: u64,
    pub events_popped: u64,
    pub core_phases_run: u64,
    pub core_phases_suppressed: u64,
    pub bus_grants: u64,
    pub grant_checks_skipped: u64,
    pub port_loops_skipped: u64,
    pub evq_ring_pushes: u64,
    pub evq_overflow_pushes: u64,
    pub arena_fresh_allocs: u64,
    pub streams_recorded: u64,
    pub stream_bytes: u64,
    pub stream_ops: u64,
    pub cells_simulated: u64,
    pub cells_derived: u64,
    pub cells_summarized: u64,
    pub keys: u64,
    pub loads: u64,
    pub load_hits: u64,
    pub decodes: u64,
    pub encodes: u64,
    pub record_bytes: u64,
    pub publishes: u64,
    pub publish_errors: u64,
    /// Cells (grid) or requests (serve) answered.
    pub ops: u64,
    /// Requests left unanswered.
    pub unanswered: u64,
}

/// `SimStats` summed over the simulated cells.
#[derive(Debug, Default, Clone)]
pub struct SimTotals {
    pub cycles: u64,
    pub intervals: u64,
    pub l1_loads: u64,
    pub l1_load_hits: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub l2_retries: u64,
    pub mem_fills: u64,
    pub mem_writebacks: u64,
    pub loads_completed: u64,
    pub load_latency_sum: u64,
    pub bus_busy_cycles: u64,
    pub snoop_invalidations: u64,
    pub c2c_transfers: u64,
    pub upper_invalidations: u64,
    pub decay_turnoffs: u64,
    pub dirty_decay_turnoffs: u64,
    pub induced_misses: u64,
    pub on_line_cycles: u64,
    pub line_cycle_capacity: u64,
}

impl SimTotals {
    fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.intervals += s.trace.len() as u64;
        for l1 in &s.l1 {
            self.l1_loads += l1.loads;
            self.l1_load_hits += l1.load_hits;
        }
        for l2 in &s.l2 {
            self.l2_accesses += l2.accesses();
            self.l2_misses += l2.misses;
            self.l2_retries += l2.retries;
            self.snoop_invalidations += l2.snoop_invalidations;
            self.decay_turnoffs += l2.turnoffs_decay;
            self.dirty_decay_turnoffs += l2.dirty_decay_turnoffs;
            self.induced_misses += l2.induced_misses;
        }
        self.mem_fills += s.mem_fills;
        self.mem_writebacks += s.mem_writebacks;
        self.loads_completed += s.loads_completed;
        self.load_latency_sum += s.load_latency_sum;
        self.bus_busy_cycles += s.bus_busy_cycles;
        self.c2c_transfers += s.c2c_transfers;
        self.upper_invalidations += s.upper_invalidations;
        self.on_line_cycles += s.l2_on_line_cycles;
        self.line_cycle_capacity += s.l2_line_cycle_capacity;
    }
}

/// Per-iteration state of the traced path: one simulator scratch and one
/// stream-buffer arena, as a single sweep worker has.
#[derive(Debug)]
pub struct Traced<'a> {
    tr: &'a mut Tracer,
    c: Counts,
    sim: SimScratch,
    streams: BankArena,
    next_cell: u64,
}

impl<'a> Traced<'a> {
    pub fn new(tr: &'a mut Tracer) -> Self {
        Self {
            tr,
            c: Counts::default(),
            sim: SimScratch::default(),
            streams: BankArena::default(),
            next_cell: 0,
        }
    }

    /// Allocation counts are read once the iteration is over.
    pub fn finish(mut self) -> Counts {
        self.c.arena_fresh_allocs =
            self.sim.arena_stats().fresh_allocations + self.streams.stats().fresh_allocations;
        self.c
    }

    /// `Scenario::record_shared_in`, plus shadow spans timing live
    /// generation and cursor replay of the same ops on their own.
    fn record(&mut self, scenario: &Scenario, seed: u64, instr: u64, id: u64) -> Scenario {
        let hint = MemTrace::stream_capacity_hint(instr);
        let buffers = (0..N_CORES).map(|_| self.streams.take_u8_empty(hint)).collect();
        let shared = self
            .tr
            .span("trace.record", id, |_| scenario.record_shared_in(N_CORES, seed, instr, buffers));
        let Scenario::SharedStream { trace } = &shared else {
            unreachable!("record_shared_in returns a shared stream")
        };
        let ops: Vec<u64> = (0..N_CORES).map(|core| trace.core_info(core).ops).collect();
        self.c.streams_recorded += 1;
        self.c.stream_bytes += trace.stream_bytes() as u64;
        self.c.stream_ops += ops.iter().sum::<u64>();
        self.tr.shadow("workloads.gen", id, |_| {
            let mut sources = scenario.build_sources(N_CORES, seed, instr);
            for (src, &n) in sources.iter_mut().zip(&ops) {
                for _ in 0..n {
                    black_box(src.next_op());
                }
            }
        });
        self.tr.shadow("trace.replay", id, |_| {
            for (core, &n) in ops.iter().enumerate() {
                let mut cursor = trace.cursor(core);
                for _ in 0..n {
                    black_box(cmpleak_cpu::Workload::next_op(&mut cursor));
                }
            }
        });
        shared
    }

    /// Hand a recording's buffers back to the arena once its cursors are
    /// gone, as the sweep planner does.
    fn release(&mut self, shared: Scenario) {
        if let Scenario::SharedStream { trace } = shared {
            if let Some(mut t) = Arc::into_inner(trace) {
                t.release_into(&mut self.streams);
            }
        }
    }

    /// One (scenario, size) group cell at a time: simulate every
    /// technique from the shared stream, then derive the baseline from its
    /// timing-identical twin. Results come baseline first, as in a sweep.
    fn group(
        &mut self,
        shared: &Scenario,
        base: &ExperimentConfig,
        techniques: &[Technique],
    ) -> Vec<ExperimentResult> {
        let mut out = Vec::with_capacity(techniques.len() + 1);
        for &technique in techniques {
            let mut cfg = base.clone();
            cfg.technique = technique;
            let id = self.next_cell;
            self.next_cell += 1;
            let (tr, sim, c) = (&mut *self.tr, &mut self.sim, &mut self.c);
            let r = tr.span("core.cell", id, |tr| {
                let cmp = cfg.cmp_config();
                let bank_bytes = cmp.l2.size_bytes;
                let feeds = tr.span("core.build_feeds", id, |_| {
                    shared.build_feeds(cfg.n_cores, cfg.seed, cfg.instructions_per_core)
                });
                let stats = tr.span("system.run", id, |_| run_feeds_with_scratch(cmp, feeds, sim));
                let power = tr.span("power.eval", id, |_| {
                    evaluate_energy(cfg.power, technique, cfg.n_cores, bank_bytes, &stats)
                });
                ExperimentResult {
                    benchmark: cfg.scenario.label(),
                    technique: technique.name(),
                    total_l2_mb: cfg.total_l2_mb,
                    stats,
                    power,
                }
            });
            c.sim.add(&r.stats);
            let p = sim.cycle_profile();
            c.cycles_stepped += p.cycles_stepped;
            c.cycles_skipped += p.cycles_skipped;
            c.cycles_batched += p.cycles_batched;
            c.events_popped += p.events_popped;
            c.core_phases_run += p.core_phases_run;
            c.core_phases_suppressed += p.core_phases_suppressed;
            c.bus_grants += p.bus_grants;
            c.grant_checks_skipped += p.grant_checks_skipped;
            c.port_loops_skipped += p.port_loops_skipped;
            let q = sim.event_queue_stats();
            c.evq_ring_pushes += q.ring_pushes;
            c.evq_overflow_pushes += q.overflow_pushes;
            c.cells_simulated += 1;
            out.push(r);
        }
        let donor = techniques
            .iter()
            .position(Technique::timing_identical_to_baseline)
            .expect("the paper set has a timing-identical technique");
        let id = self.next_cell;
        self.next_cell += 1;
        let derived = self.tr.span("core.derive", id, |_| derive_baseline_cell(base, &out[donor]));
        self.c.cells_derived += 1;
        out.insert(0, derived);
        out
    }

    /// `TechniqueMetrics` of each result against the group's baseline.
    fn summarize(&mut self, results: &[ExperimentResult], id: u64) -> Vec<SweepCell> {
        let base = &results[0];
        let mut cells = Vec::with_capacity(results.len());
        for (k, r) in results.iter().enumerate() {
            cells.push(self.tr.span("core.summarize", id, |_| {
                let m = if k == 0 {
                    TechniqueMetrics::baseline_identity(base)
                } else {
                    TechniqueMetrics::compare(base, r)
                };
                sweep_cell(r, m)
            }));
            self.c.cells_summarized += 1;
        }
        cells
    }

    fn key(&mut self, cfg: &ExperimentConfig, id: u64) -> CellKey {
        self.c.keys += 1;
        self.tr.span("store.key", id, |_| cfg.store_key())
    }

    /// `ResultStore::load`, split into its read and its decode.
    fn load(&mut self, store: &ResultStore, key: &CellKey, id: u64) -> Option<StoredCell> {
        let c = &mut self.c;
        let cell = self.tr.span("store.load", id, |tr| {
            let bytes = tr.span("store.read", id, |_| std::fs::read(store.path_of(key)).ok())?;
            c.decodes += 1;
            tr.span("store.decode", id, |_| decode_record(&bytes, key))
        });
        self.c.loads += 1;
        self.c.load_hits += u64::from(cell.is_some());
        cell
    }

    /// Publish one result under `key`; `if_absent` for derived baselines,
    /// as the sweep planner does. Encoding is timed on its own as a shadow
    /// span.
    fn publish(
        &mut self,
        store: &ResultStore,
        key: &CellKey,
        r: &ExperimentResult,
        if_absent: bool,
        id: u64,
    ) {
        let bytes =
            self.tr.shadow("store.encode", id, |_| encode_record(key, &r.stats, &r.power).len());
        self.c.encodes += 1;
        self.c.record_bytes += bytes as u64;
        let ok = self.tr.span("store.publish", id, |_| {
            if if_absent {
                store.publish_if_absent(key, &r.stats, &r.power)
            } else {
                store.publish(key, &r.stats, &r.power)
            }
        });
        self.c.publishes += 1;
        self.c.publish_errors += u64::from(ok.is_err());
    }

    /// A grid workload, cell at a time. The store round trip (key,
    /// encode, publish, load) of every cell runs against `shadow_store`
    /// as shadow spans: the untraced grid attaches no store.
    pub fn grid(
        &mut self,
        cfg: &SweepConfig,
        size_for_figures: usize,
        shadow_store: &ResultStore,
        iter: u64,
    ) -> SweepResults {
        let span = self.tr.open("core.grid", iter, false);
        let mut cells = Vec::new();
        for (s, scenario) in cfg.scenarios.iter().enumerate() {
            let shared = self.record(scenario, cfg.seed, cfg.instructions_per_core, s as u64);
            for &size in &cfg.sizes_mb {
                let base = ExperimentConfig {
                    scenario: scenario.clone(),
                    technique: Technique::Baseline,
                    total_l2_mb: size,
                    instructions_per_core: cfg.instructions_per_core,
                    seed: cfg.seed,
                    n_cores: cfg.n_cores,
                    power: Default::default(),
                    kernel: Default::default(),
                    engine: Default::default(),
                };
                let results = self.group(&shared, &base, &cfg.techniques);
                let id = cells.len() as u64;
                cells.extend(self.summarize(&results, id));
                let shadow = self.tr.open("store.roundtrip", id, true);
                for (k, r) in results.iter().enumerate() {
                    let mut cell_cfg = base.clone();
                    cell_cfg.technique =
                        if k == 0 { Technique::Baseline } else { cfg.techniques[k - 1] };
                    let key = self.key(&cell_cfg, id + k as u64);
                    self.publish(shadow_store, &key, r, false, id + k as u64);
                    self.load(shadow_store, &key, id + k as u64);
                }
                self.tr.close(shadow);
            }
            self.release(shared);
        }
        let res = SweepResults { cells };
        self.tr.span("core.figures", iter, |_| black_box(render_figures(&res, size_for_figures)));
        self.c.ops += res.cells.len() as u64;
        self.tr.close(span);
        res
    }

    /// The serve queue, one request at a time: probe the store; on a miss
    /// run the request's group cell at a time as a store-attached sweep
    /// would (probe each cell, simulate, derive, publish), then load the
    /// answer. Returns the digest of the answered cells.
    pub fn serve(
        &mut self,
        requests: &[ExperimentConfig],
        store: &ResultStore,
        iter: u64,
    ) -> String {
        let span = self.tr.open("serve.queue", iter, false);
        let mut answers = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let id = i as u64;
            let req_span = self.tr.open("serve.request", id, false);
            let key = self.key(req, id);
            let mut answer = self.load(store, &key, id);
            if answer.is_none() {
                let techniques = Technique::paper_set();
                let mut base = req.clone();
                base.technique = Technique::Baseline;
                let mut cfgs = vec![base.clone()];
                cfgs.extend(
                    techniques.iter().map(|&t| ExperimentConfig { technique: t, ..base.clone() }),
                );
                let keys: Vec<CellKey> = cfgs.iter().map(|cfg| self.key(cfg, id)).collect();
                for k in &keys[1..] {
                    self.load(store, k, id);
                }
                let shared = self.record(&req.scenario, req.seed, req.instructions_per_core, id);
                let results = self.group(&shared, &base, &techniques);
                self.release(shared);
                for (k, (key, r)) in keys.iter().zip(&results).enumerate() {
                    self.publish(store, key, r, k == 0, id);
                }
                let group = SweepResults { cells: self.summarize(&results, id) };
                self.tr.shadow("core.figures", id, |_| {
                    black_box(FigureSet::new(&group).all_by_size());
                });
                answer = self.load(store, &key, id);
            }
            self.c.unanswered += u64::from(answer.is_none());
            self.c.ops += 1;
            answers.push(answer);
            self.tr.close(req_span);
        }
        self.tr.close(span);
        let mut digest = Digest::default();
        for answer in &answers {
            match answer {
                Some(cell) => digest.write(&encode_payload(&cell.stats, &cell.power)),
                None => digest.write(b"unanswered"),
            }
        }
        digest.hex()
    }
}

/// One per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The per-layer metrics of one traced iteration. `spans` are the
/// iteration's spans (the first at index `first` of the tracer);
/// `untraced_wall_s × threads` is the host time the untraced workload
/// had, against which the residual is taken.
pub fn layer_metrics(
    c: &Counts,
    spans: &[Span],
    first: usize,
    untraced_wall_s: f64,
    threads: usize,
) -> Vec<Metric> {
    let selfs = self_times(spans, first);
    let mut dur: BTreeMap<&str, f64> = BTreeMap::new();
    let mut attributed_ns = 0u64;
    for (s, &own) in spans.iter().zip(&selfs) {
        *dur.entry(s.name).or_default() += s.dur_ns() as f64 * 1e-9;
        if !s.shadow {
            attributed_ns += own;
        }
    }
    let d = |name: &str| dur.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let t = &c.sim;
    let stepped = c.cycles_stepped + c.cycles_batched;
    vec![
        ("system.run_s", "s", d("system.run")),
        ("system.ns_per_stepped_cycle", "ns/cycle", ratio(d("system.run") * 1e9, stepped)),
        ("system.cycles_stepped", "count", c.cycles_stepped as f64),
        ("system.cycles_skipped", "count", c.cycles_skipped as f64),
        ("system.cycles_batched", "count", c.cycles_batched as f64),
        ("system.events_popped", "count", c.events_popped as f64),
        ("system.core_phases_run", "count", c.core_phases_run as f64),
        ("system.core_phases_suppressed", "count", c.core_phases_suppressed as f64),
        ("system.l2.accesses", "count", t.l2_accesses as f64),
        ("system.l2.miss_rate", "frac", ratio(t.l2_misses as f64, t.l2_accesses)),
        ("system.l2.retries", "count", t.l2_retries as f64),
        ("system.l2.port_loops_skipped", "count", c.port_loops_skipped as f64),
        ("system.l1.load_hit_rate", "frac", ratio(t.l1_load_hits as f64, t.l1_loads)),
        ("system.mem.fills", "count", t.mem_fills as f64),
        ("system.mem.writebacks", "count", t.mem_writebacks as f64),
        ("system.amat_cycles", "cycles", ratio(t.load_latency_sum as f64, t.loads_completed)),
        ("system.bus.grants", "count", c.bus_grants as f64),
        ("system.bus.busy_frac", "frac", ratio(t.bus_busy_cycles as f64, t.cycles)),
        ("system.bus.grant_checks_skipped", "count", c.grant_checks_skipped as f64),
        ("coherence.snoop_invalidations", "count", t.snoop_invalidations as f64),
        ("coherence.c2c_transfers", "count", t.c2c_transfers as f64),
        ("coherence.upper_invalidations", "count", t.upper_invalidations as f64),
        (
            "system.evq.overflow_frac",
            "frac",
            ratio(c.evq_overflow_pushes as f64, c.evq_ring_pushes + c.evq_overflow_pushes),
        ),
        ("mem.decay.turnoffs", "count", t.decay_turnoffs as f64),
        ("mem.decay.dirty_turnoffs", "count", t.dirty_decay_turnoffs as f64),
        ("mem.induced_misses", "count", t.induced_misses as f64),
        ("mem.occupation", "frac", ratio(t.on_line_cycles as f64, t.line_cycle_capacity)),
        ("mem.arena.fresh_allocs", "count", c.arena_fresh_allocs as f64),
        ("trace.bytes_per_op", "B/op", ratio(c.stream_bytes as f64, c.stream_ops)),
        ("workloads.gen_ns_per_op", "ns/op", ratio(d("workloads.gen") * 1e9, c.stream_ops)),
        ("trace.record_s", "s", d("trace.record")),
        ("trace.replay_ns_per_op", "ns/op", ratio(d("trace.replay") * 1e9, c.stream_ops)),
        ("power.eval_s", "s", d("power.eval")),
        ("power.eval_us_per_interval", "us", ratio(d("power.eval") * 1e6, t.intervals)),
        ("core.derive_us", "us", ratio(d("core.derive") * 1e6, c.cells_derived)),
        ("core.summarize_us", "us", ratio(d("core.summarize") * 1e6, c.cells_summarized)),
        ("core.figures_ms", "ms", d("core.figures") * 1e3),
        ("core.cells_simulated", "count", c.cells_simulated as f64),
        ("core.cells_derived", "count", c.cells_derived as f64),
        ("core.streams_recorded", "count", c.streams_recorded as f64),
        (
            "core.residual_frac",
            "frac",
            1.0 - attributed_ns as f64 * 1e-9 / (threads as f64 * untraced_wall_s),
        ),
        ("store.key_us", "us", ratio(d("store.key") * 1e6, c.keys)),
        ("store.load_us", "us", ratio(d("store.load") * 1e6, c.loads)),
        ("store.decode_us", "us", ratio(d("store.decode") * 1e6, c.decodes)),
        ("store.publish_us", "us", ratio(d("store.publish") * 1e6, c.publishes)),
        ("store.encode_us", "us", ratio(d("store.encode") * 1e6, c.encodes)),
        ("store.record_bytes", "bytes", ratio(c.record_bytes as f64, c.encodes)),
        ("store.hit_frac", "frac", ratio(c.load_hits as f64, c.loads)),
        ("store.publish_errors", "count", c.publish_errors as f64),
    ]
}

/// The per-layer self-time table of a traced run: one row per span name
/// with the module it belongs to, then the part of the traced wall no
/// span covers, then the residual against the untraced run.
pub fn self_time_table(spans: &[Span], traced_wall_s: f64, residual_frac: f64) -> String {
    let selfs = self_times(spans, 0);
    let mut rows: BTreeMap<&str, (u64, u64, bool)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let row = rows.entry(s.name).or_insert((0, 0, s.shadow));
        row.0 += 1;
        row.1 += own;
        row.2 &= s.shadow;
    }
    let total: u64 = selfs.iter().sum();
    let mut out = format!(
        "{:<11} {:<26} {:>9} {:>12} {:>7}\n",
        "module", "span", "calls", "self_ms", "share"
    );
    for (name, (calls, own, shadow)) in &rows {
        let module = name.split('.').next().unwrap_or(name);
        out.push_str(&format!(
            "{:<11} {:<26} {:>9} {:>12.3} {:>6.2}%{}\n",
            module,
            name,
            calls,
            *own as f64 * 1e-6,
            100.0 * *own as f64 * 1e-9 / traced_wall_s,
            if *shadow { "  (shadow)" } else { "" }
        ));
    }
    let gap = traced_wall_s - total as f64 * 1e-9;
    out.push_str(&format!(
        "{:<11} {:<26} {:>9} {:>12.3} {:>6.2}%\n",
        "-",
        "(no span: traced glue)",
        "",
        gap * 1e3,
        100.0 * gap / traced_wall_s
    ));
    out.push_str(&format!(
        "{:<11} {:<26} {:>9} {:>12} {:>6.2}%  (1 - attributed / threads x untraced wall)\n",
        "core",
        "core.residual_frac",
        "",
        "",
        100.0 * residual_frac
    ));
    out
}
