#!/usr/bin/env python3
"""The benchmark's entry point: build, run one workload, check, report.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the repository. It builds `perfbench` twice from
source (untraced, and traced with the simulator's CycleProfile counters)
into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload, and
prints every metric by name with its unit. The last line of standard
output is the result object: `correct`, `attempted`, `failed` and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

A `--trace 1` run first runs the untraced binary briefly: the residual
(`core.residual_frac`) is taken against its wall time, and the traced path
must reproduce its cells. Each run's full record (quartiles, exact counts,
host) goes to `.bench_out/reports/`; `summarize.py` reduces them across
runs. Exact counts are also kept per (code, workload, seed, trace): a later
run whose counts differ is a determinism failure (`correct: false`).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
OUT = ROOT / ".bench_out"
WORKLOADS = ("repro_grid", "mix_grid_1t", "serve_zipf")
BUILDS = {
    "release": ["--release"],
    "traced": ["--profile", "traced", "--features", "traced"],
}
# Every run must end within 180 s; the first one also builds.
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def cargo(args, timeout):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", *args, "--offline", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"`{' '.join(cmd)}` timed out")
    if done.returncode != 0:
        fail(f"`{' '.join(cmd)}` failed")


def build():
    """Build both binaries (cargo makes this a no-op when they are fresh)."""
    if not (ROOT / "crates").is_dir():
        fail(f"no simulator sources under {ROOT}: the benchmark builds them from source")
    for profile, flags in BUILDS.items():
        cargo(["build", "--quiet", *flags], BUILD_TIMEOUT_S)
    return {p: target_dir() / p / "perfbench" for p in BUILDS}


def run_binary(binary, args, deadline):
    """Run one perfbench binary; returns (human lines, report dict)."""
    OUT.joinpath("reports").mkdir(parents=True, exist_ok=True)
    report = OUT / "reports" / f"{time.time_ns()}-{os.getpid()}.json"
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [str(binary), *args, "--out-dir", str(OUT), "--report", str(report)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} {' '.join(args)} did not finish in {timeout:.0f} s")
    if done.returncode != 0:
        fail(f"{binary.name} {' '.join(args)} exited with {done.returncode}")
    lines = done.stdout.splitlines()
    return lines[:-1], report, json.loads(report.read_text())


def host():
    def out(cmd):
        # git must not report a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": out(["rustc", "--version"]),
        "git_commit": out(["git", "rev-parse", "HEAD"]) or "not a git checkout",
    }


def bench_hash():
    """Fingerprint of the benchmark's own code: counts recorded by another
    version of the benchmark are not compared."""
    h = hashlib.sha256()
    for p in sorted(HERE.rglob("*")):
        if p.is_file() and p.suffix in (".rs", ".toml"):
            h.update(p.relative_to(HERE).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_counts(report):
    """Compare the run's exact counts with the first run of the same code,
    workload, budget, seed and trace flag. Returns a list of differences."""
    key = "{}-{}-{}-i{}-q{}-s{}-t{}".format(
        report["code_fingerprint"], bench_hash(), report["workload"],
        report["instr_per_core"], report["queue_len"], report["seed"], report["trace"],
    )
    path = OUT / "counts" / f"{key}.json"
    mine = {"counts": report["counts"], "digest": report["digest"]}
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(mine, sort_keys=True) + "\n")
        return []
    seen = json.loads(path.read_text())
    diffs = [
        f"{k}: {seen['counts'].get(k)} -> {v}"
        for k, v in mine["counts"].items()
        if seen["counts"].get(k) != v
    ]
    if seen["digest"] != mine["digest"]:
        diffs.append(f"digest: {seen['digest']} -> {mine['digest']}")
    return diffs


def finish(lines, report_path, report, extra_notes=(), last=True):
    for line in lines:
        print(line)
    report["host"] = host()
    report["notes"] += list(extra_notes)
    drift = check_counts(report)
    result = report["result"]
    if drift:
        print("determinism failure: exact counts differ from an earlier run of the same "
              "code and seed: " + "; ".join(drift), file=sys.stderr)
        result["correct"] = False
    report["count_drift"] = drift
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    h = report["host"]
    print(f"  host: {h['nproc']} vCPU, {h['cpu_model']}, {h['rustc']}, commit {h['git_commit']}")
    if last:
        print(json.dumps(result))
    return result


def run(args):
    deadline = time.monotonic() + (BUILD_TIMEOUT_S if not args.smoke else 600)
    bins = build()
    deadline = min(deadline, time.monotonic() + RUN_DEADLINE_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    if args.trace == 0:
        lines, path, report = run_binary(
            bins["release"], [*common, "--seconds", str(args.seconds)], deadline)
        finish(lines, path, report)
        return
    # The untraced reference for the residual and for the traced cells.
    u_lines, u_path, u_report = run_binary(
        bins["release"], [*common, "--seconds", str(max(1.0, args.seconds / 4))], deadline)
    u_result = finish(u_lines, u_path, u_report, last=False)
    wall = u_report["metrics"]["wall_s"]["value"]
    lines, path, report = run_binary(
        bins["traced"],
        [*common, "--seconds", str(args.seconds), "--traced",
         "--untraced-wall-s", repr(wall), "--expect-digest", u_report["digest"]],
        deadline,
    )
    if not u_result["correct"]:
        report["result"]["correct"] = False
    finish(lines, path, report,
           [f"untraced reference: wall_s {wall} s over {u_report['iterations']} iteration(s)"])


def self_test():
    """The benchmark's own tests, then a tiny-budget run of every workload
    through this script, checked against BENCHMARK.json."""
    for flags in BUILDS.values():
        cargo(["test", *flags], BUILD_TIMEOUT_S)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            assert done.returncode == 0, f"{w} trace {trace} exited {done.returncode}"
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = result["metrics"]
            assert set(got) == {m["name"] for m in want[trace]}, set(got) ^ {
                m["name"] for m in want[trace]}
            for m in want[trace]:
                assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
                assert isinstance(got[m["name"]]["value"], (int, float)), m
            print(f"self-test: {w} trace {trace}: {len(got)} metrics, correct", flush=True)
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny budget, for the self-test")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    else:
        run(args)


if __name__ == "__main__":
    main()
