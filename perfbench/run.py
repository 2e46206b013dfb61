"""Benchmark runner for liepairs exact certificates.

    python3 perfbench/run.py --workload subpair-lines --seed 1 \
        --seconds 40 --trace 0

Runs one workload's job list as a closed loop in this single process,
checks every answer against its golden certificate, prints the metrics
one per line and, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (wall_s, slowest_job_s,
setup_s, peak_rss_mib).  --trace 1 adds one traced pass after the
untraced ones, reports the per-layer metrics and writes the spans to
.perfbench_out/ at the root of the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tr
from speed import REF_PROBE_S, Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15  # set-up takes tens of ms; its median is reported
MIN_PASSES = 5      # a job's median over 5 passes damps the leftover noise


def setup(workload, seed):
    """Import liepairs afresh and build the job list with its goldens."""
    for name in [n for n in sys.modules
                 if n == "workloads" or n.split(".")[0] == tr.PACKAGE]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    return workloads, workloads.build(workload, seed)


def run_pass(jobs, tracer=None):
    """Run every job once; returns ((start, end) per job, failures)."""
    spans, failures = [], []
    for job in jobs:
        start = time.perf_counter()
        try:
            run = job.run if tracer is None else tracer.wrap(
                job.run, f"{tr.JOBS}.{job.name}")
            answer = run()
            if answer != job.want:
                failures.append(f"{job.name}: got {answer!r}, "
                                f"want {job.want!r}")
        except Exception:
            failures.append(f"{job.name}: raised "
                            + traceback.format_exc(limit=-1).strip()
                            .replace("\n", " | "))
        spans.append((start, time.perf_counter()))
    return spans, failures


def end_to_end(passes, setups, probe):
    """The end-to-end metrics, times in reference seconds, and the same
    times uncorrected (raw: probe time removed, host speed not)."""
    def job_medians(measure):
        return [statistics.median(measure(*s) for s in runs)
                for runs in zip(*(spans for spans, _ in passes))]
    per_job, raw_job = job_medians(probe.scaled), job_medians(probe.net)
    metrics = {
        "wall_s": (sum(per_job), "s"),
        "slowest_job_s": (max(per_job), "s"),
        "setup_s": (statistics.median(probe.scaled(*s) for s in setups),
                    "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    raw = {"wall_s": sum(raw_job), "slowest_job_s": max(raw_job),
           "setup_s": statistics.median(probe.net(*s) for s in setups),
           "probe_ms": statistics.median(probe.durs) * 1e3}
    return metrics, raw


def per_layer(tracer, traced_wall, untraced_wall):
    per_name, bookkeeping_ns, root_ns = tracer.self_times()
    out = {}
    module_ns = dict.fromkeys((*tr.MODULES, tr.JOBS), 0)
    for name, (_, self_ns) in per_name.items():
        module_ns[name.split(".")[0]] += self_ns
    for module, quals in tr.SPANS.items():
        for qual in quals:
            key = f"{module}.{qual}"
            calls, self_ns = per_name.get(key, (0, 0))
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.self_s"] = (self_ns / 1e9, "s")
            for field, value in tracer.stats[key].items():
                unit = "bits" if field == "max_bits" else "count"
                out[f"{key}.{field}"] = (value, unit)
    for key, (calls, true_results) in tracer.counts.items():
        if key == "gaussian.QI.created":
            out[key] = (calls, "count")
            continue
        out[f"{key}.calls"] = (calls, "count")
        if key == "linalg.Span.add":
            out[f"{key}.useful_ratio"] = (true_results / calls if calls
                                          else 0.0, "ratio")
    for module, ns in module_ns.items():
        out[f"{module}.self_s"] = (ns / 1e9, "s")
        out[f"{module}.share"] = (ns / 1e9 / traced_wall, "ratio")
    out["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    check = {"module_self_sum_s": sum(module_ns.values()) / 1e9,
             "bookkeeping_s": bookkeeping_ns / 1e9,
             "job_spans_s": root_ns / 1e9, "traced_wall_s": traced_wall}
    return out, check


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    manifest = ROOT / "BENCHMARK.json"
    if not (SRC / tr.PACKAGE / "__init__.py").is_file():
        print(f"error: no liepairs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads(manifest.read_text())
    names = {w["name"] for w in bench["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose one of {sorted(names)}", file=sys.stderr)
        return 2

    # the probe samples the core's speed through set-up and the untraced
    # passes; it is off during the traced pass, where it would add to
    # the spans' self times
    with Probe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()    # the previous import's cycles, outside timing
            t0 = time.perf_counter()
            workloads, jobs = setup(args.workload, args.seed)
            setups.append((t0, time.perf_counter()))
        loaded = Path(sys.modules[tr.PACKAGE].__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            print(f"error: liepairs was loaded from {loaded}, not {SRC}",
                  file=sys.stderr)
            return 2

        # closed loop: at least MIN_PASSES passes, more while they fit
        # in --seconds
        passes = []
        t_run = time.perf_counter()
        while True:
            passes.append(run_pass(jobs))
            spans = passes[-1][0]
            elapsed = time.perf_counter() - t_run
            if (len(passes) >= MIN_PASSES and elapsed
                    + spans[-1][1] - spans[0][0] > args.seconds):
                break
    failures = [f for _, fs in passes for f in fs]
    attempted = len(jobs) * len(passes)

    raw = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install(extra=(workloads,))
        try:
            traced = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        failures += traced[1]
        attempted += len(jobs)
        traced_wall = traced[0][-1][1] - traced[0][0][0]
        untraced_wall = statistics.median(
            probe.net(spans[0][0], spans[-1][1]) for spans, _ in passes)
        metrics, check = per_layer(tracer, traced_wall, untraced_wall)
        wanted = [m["name"] for m in bench["per_layer"]]
        expected_calls = workloads.EXPECT_CALLED[args.workload]
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem, {"workload": args.workload, "seed": args.seed,
                            "check": check})
    else:
        metrics, raw = end_to_end(passes, setups, probe)
        wanted = [m["name"] for m in bench["end_to_end"]]
        expected_calls = ()

    missing = sorted(set(wanted) ^ set(metrics))
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 1
    zero = [k for k in expected_calls if metrics[k][0] == 0]
    if zero:
        print(f"error: {args.workload} expects calls to {zero}; "
              "a traced function was renamed or is no longer reached",
              file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs={len(jobs)} "
          f"python={platform.python_version()}")
    for f in failures:
        print(f"# FAILED {f}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name} = {value} {unit}")
    print(f"fail_ratio = {len(failures) / attempted} "
          f"({len(failures)} of {attempted} jobs)")
    if args.trace:
        print("# trace check: " + json.dumps(check))
    else:
        print(f"# uncorrected: wall {raw['wall_s']} s, slowest job "
              f"{raw['slowest_job_s']} s, setup {raw['setup_s']} s; median "
              f"probe {raw['probe_ms']} ms (reference {REF_PROBE_S * 1e3} ms)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
