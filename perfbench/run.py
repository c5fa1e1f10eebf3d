"""Benchmark command for census.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Each repetition of a workload runs in a fresh, single-threaded interpreter
(perfbench/child.py) that imports census from this checkout's src/, so
every library cache starts cold.  Repetitions are started one after
another while the next one should end within --seconds; the run reports
medians over them.

The end-to-end solve metric, solve_norm_s, is the solve's CPU time
scaled to a fixed machine speed.  The child is single-threaded, so its
CPU time equals its wall time on an idle machine, but leaves out the time
the host stole the virtual CPU.  The host's CPU speed itself drifts by up
to a factor of two over minutes; a reference kernel timed throughout the
solve measures that speed, and each stretch of the solve is scaled by it
(see child.Probe).  The wall and CPU times are printed beside it and kept
in the run context.  Set-up time is the CPU time from the start of the
child's interpreter to the end of the workload's set-up.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics, with the tracing overhead in the run context.  Count metrics must
repeat exactly, between the traced repetitions of a run and between runs
of the same source in this checkout (remembered in .perfbench_out/).

--smoke runs every workload at a toy size in both modes and asserts that
each declared metric is emitted with its unit and that the spans nest.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# The whole command must end within 180 s; a repetition that would overrun
# this is stopped and fails the run.
BUDGET_S = 170.0
# set-up is sampled this often per run where the time allows, topped up
# with set-up-only repetitions
MIN_SETUPS = 5


class BenchError(Exception):
    """The benchmark could not measure (not a wrong result)."""


def _child_env():
    env = dict(os.environ)
    # CENSUS_CACHE overrides --cache-dir; PYTHONPATH could shadow src/
    for key in ("CENSUS_CACHE", "PYTHONPATH"):
        env.pop(key, None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _spawn(spec, timeout):
    tmpdir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    spec = dict(spec, root=ROOT, tmpdir=tmpdir)
    try:
        proc = subprocess.run(
            [sys.executable, "-s", os.path.join(HERE, "child.py"),
             json.dumps(spec)],
            env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError("%s repetition overran the time budget"
                         % spec["workload"]) from None
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("repetition exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure(workload, seed, seconds, trace, smoke):
    """Run repetitions; return (metrics, attempted, context, spans files,
    failures)."""
    start = time.monotonic()
    deadline = start + seconds
    load_start = _loadavg()
    modes = ("solve", "traced") if trace else ("solve",)
    reps = {"solve": [], "traced": [], "setup": []}
    took = {}  # the longest repetition of each mode so far
    spans_files = []
    i = 0

    def spawn(mode, spans=None):
        nonlocal i
        t0 = time.monotonic()
        reps[mode].append(_spawn(
            {"workload": workload, "seed": "%s.%d" % (seed, i),
             "mode": mode, "smoke": smoke, "spans": spans},
            BUDGET_S - (t0 - start)))
        took[mode] = max(took.get(mode, 0.0), time.monotonic() - t0)
        # a set-up-only repetition: interpreter start plus the set-up
        took["setup"] = max(took.get("setup", 0.0),
                            reps[mode][-1]["setup_wall_s"] + 0.1)
        i += 1

    # once every mode has a repetition, the next one is started only if it
    # should end by the deadline
    while True:
        mode = modes[i % len(modes)]
        if all(reps[m] for m in modes) and (
                time.monotonic() + took[mode] > deadline):
            break
        spans = None
        if mode == "traced":
            spans = os.path.join(OUT, "spans-%s-%s-%d.json"
                                 % (workload, seed, i))
            spans_files.append(spans)
        spawn(mode, spans)
    while (sum(map(len, reps.values())) < MIN_SETUPS
           and time.monotonic() + took["setup"] <= deadline):
        spawn("setup")

    every = [r for rs in reps.values() for r in rs]
    failures = [f for r in every for f in r["failures"]]
    attempted = sum(r["attempted"] for r in every)
    solve = [r["solve_s"] for r in reps["solve"]]
    solve_cpu = [r["solve_cpu_s"] for r in reps["solve"]]
    context = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "smoke": smoke,
        "repetitions": {m: len(rs) for m, rs in reps.items()},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "census_file": every[0]["census"],
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "solve_s_each": solve, "solve_cpu_s_each": solve_cpu,
        "solve_norm_s_each": [r["solve_norm_s"] for r in reps["solve"]],
        "probes_each": [r["probes"] for r in reps["solve"]],
        "setup_s_each": [r["setup_s"] for r in every],
        "setup_wall_s_each": [r["setup_wall_s"] for r in every],
    }
    if trace:
        traced = [r["solve_cpu_s"] for r in reps["traced"]]
        context["traced_solve_cpu_s_each"] = traced
        context["tracing_overhead_s"] = (statistics.median(traced)
                                         - statistics.median(solve_cpu))
        metrics = {}
        for name in reps["traced"][0]["layers"]:
            values = [r["layers"][name] for r in reps["traced"]]
            if name.endswith("_s"):
                metrics[name] = statistics.median(values)
            elif len(set(values)) > 1:
                failures.append("count %s differs between repetitions: %s"
                                % (name, values))
            else:
                metrics[name] = values[0]
        failures += _check_counts(workload, smoke, context["src_sha256"],
                                  {k: v for k, v in metrics.items()
                                   if not k.endswith("_s")})
    else:
        context["solve_s"] = statistics.median(solve)
        context["solve_cpu_s"] = statistics.median(solve_cpu)
        metrics = {
            "solve_norm_s": statistics.median(
                r["solve_norm_s"] for r in reps["solve"]),
            "setup_s": statistics.median(r["setup_s"] for r in every),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in reps["solve"]),
        }
        if workload == "cli-warm":
            lat = [x for r in reps["solve"] for x in r["latencies"]]
            context.update(
                request_count=len(lat),
                request_p50_ms=1000 * statistics.median(lat),
                request_p90_ms=1000 * statistics.quantiles(
                    lat, n=10, method="inclusive")[8],
                requests_per_s=len(lat) / sum(solve))
    context["fail_frac"] = len(failures) / attempted
    return metrics, attempted, context, spans_files, failures


def _check_counts(workload, smoke, src, counts):
    """Counts must equal those of earlier runs of the same source here."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = "%s%s@%s" % (workload, "-smoke" if smoke else "", src)
    earlier = seen.setdefault(key, counts)
    if earlier != counts:
        return ["count %s is %s, an earlier run had %s"
                % (k, counts.get(k), earlier.get(k))
                for k in sorted(set(earlier) | set(counts))
                if earlier.get(k) != counts.get(k)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return []


def report(workload, seed, trace, seconds, smoke=False):
    """Measure one workload, print the metrics and the result line."""
    end_to_end, per_layer = _declared()
    units = per_layer if trace else end_to_end
    metrics, attempted, context, spans, failures = measure(
        workload, seed, seconds, trace, smoke)
    for name, value in metrics.items():
        print("%-32s %.6g %s" % (name, value, units.get(name, "?")))
    if "solve_s" in context:
        print("%-32s %.6g s (wall)" % ("solve_s", context["solve_s"]))
        print("%-32s %.6g s (CPU)" % ("solve_cpu_s", context["solve_cpu_s"]))
    if "request_count" in context:
        for name, unit in (("request_p50_ms", "ms"), ("request_p90_ms", "ms"),
                           ("requests_per_s", "1/s")):
            print("%-32s %.6g %s (n=%d)" % (name, context[name], unit,
                                            context["request_count"]))
    print("%-32s %.6g (%d/%d)" % ("fail_frac", context["fail_frac"],
                                  len(failures), attempted))
    if trace:
        print("%-32s %.6g s" % ("tracing_overhead_s",
                                context["tracing_overhead_s"]))
    for f in failures[:20]:
        sys.stderr.write("FAILED %s\n" % f)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items() if name in metrics}}
    with open(os.path.join(OUT, "result-%s-%s-trace%d.json"
                           % (workload, seed, trace)), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "context": context}, fh, indent=1)
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return result, spans


def smoke():
    """Toy sizes: every declared metric appears with its unit; spans nest."""
    end_to_end, per_layer = _declared()
    if set(per_layer) != set(tracer.metric_units()):
        raise BenchError("BENCHMARK.json per_layer does not match the tracer")
    problems = []
    for name in workloads.NAMES:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            result, spans = report(name, "smoke", trace, 0, smoke=True)
            if not result["correct"]:
                problems.append("%s trace %d: a check failed" % (name, trace))
            for metric, unit in units.items():
                got = result["metrics"].get(metric)
                if got is None or got["unit"] != unit:
                    problems.append("%s trace %d: %s missing or not in %s"
                                    % (name, trace, metric, unit))
            for path in spans:
                with open(path, encoding="utf-8") as fh:
                    bad = tracer.nesting_errors(json.load(fh))
                if bad:
                    problems.append("%s: spans do not nest: %s"
                                    % (name, bad[:3]))
    for p in problems:
        sys.stderr.write("SMOKE %s\n" % p)
    print("smoke %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    # a terminated run still stops the repetition it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "census", "__init__.py")):
        sys.stderr.write("no census sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        result, _ = report(args.workload, args.seed, args.trace,
                           args.seconds)
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 1
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
