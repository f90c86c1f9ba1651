//! Tiny-budget smoke of every workload: every named metric is emitted
//! with its unit, the outputs check out, and traced self times are
//! non-negative and add up to at most the wall time.

use perfbench::run::{run_traced, run_untraced, Options};
use perfbench::traced::{self_times, Traced, Tracer};
use perfbench::workload::{grid_config, serve_setup, Budget, Workload};
use std::path::PathBuf;
use std::time::Instant;

const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("host_ns_per_sim_cycle", "ns"),
    ("peak_rss_mb", "MB"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("req_per_s", "1/s"),
    ("paper_headline_err_pp", "pp"),
];

/// The modules a per-layer metric may belong to.
const MODULES: [&str; 8] =
    ["system", "coherence", "mem", "trace", "workloads", "power", "core", "store"];

fn opts(w: Workload, tag: &str) -> Options {
    Options {
        workload: w,
        seed: 5,
        seconds: 0.0,
        budget: Budget::smoke(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}")),
        untraced_wall_s: None,
        expect_digest: None,
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = run_untraced(&opts(w, "untraced"));
        assert!(r.correct(), "{}: {} failed of {}", w.name(), r.failed, r.attempted);
        assert!(r.attempted >= 1);
        let got: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        assert_eq!(got, END_TO_END, "{}", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        let line = r.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_with_its_module() {
    for w in Workload::ALL {
        let untraced = run_untraced(&opts(w, "reference"));
        let mut o = opts(w, "traced");
        o.untraced_wall_s = Some(untraced.metrics[0].value);
        o.expect_digest = Some(untraced.digest.clone());
        let r = run_traced(&o);
        assert!(r.correct(), "{}: traced cells differ or counts drifted", w.name());
        assert_eq!(r.metrics.len(), 49, "{}", w.name());
        for m in &r.metrics {
            let module = m.name.split('.').next().unwrap_or("");
            assert!(MODULES.contains(&module), "{}: {} has no module", w.name(), m.name);
            assert!(!m.unit.is_empty() && m.value.is_finite(), "{}: {}", w.name(), m.name);
        }
        assert!(r.table.contains("core.residual_frac"), "{}", r.table);
    }
}

#[test]
fn traced_self_times_fit_in_the_wall() {
    for w in Workload::ALL {
        let o = opts(w, "spans");
        std::fs::create_dir_all(&o.out_dir).unwrap();
        let dir = o.out_dir.join(w.name());
        let mut tr = Tracer::default();
        let t = Instant::now();
        match w {
            Workload::ServeZipf => {
                let setup = serve_setup(o.seed, o.budget, &dir);
                Traced::new(&mut tr).serve(&setup.requests, &setup.store, 0);
            }
            _ => {
                let cfg = grid_config(w, o.seed, o.budget);
                let store = cmpleak_store::ResultStore::open(&dir).unwrap();
                Traced::new(&mut tr).grid(&cfg, w.headline_size(), &store, 0);
            }
        }
        let wall_ns = t.elapsed().as_nanos() as u64;
        std::fs::remove_dir_all(&dir).ok();
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let total: u64 = self_times(&tr.spans, 0).iter().sum();
        assert!(total > 0 && total <= wall_ns, "{}: self {total} ns, wall {wall_ns} ns", w.name());
    }
}
