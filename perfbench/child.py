"""One repetition of a workload, in a fresh interpreter started by run.py.

Usage: child.py SPEC, where SPEC is a JSON object with the keys root,
workload, seed, mode ("setup", "solve" or "traced"), smoke, tmpdir and
spans (the file the traced mode writes its spans to).

The child imports census from ROOT/src, does the workload's set-up, and
unless the mode is "setup" runs and checks every op with cold library
caches.  It prints one JSON line with its timings, checks and, when
traced, its per-layer metrics.
"""

import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

T_START = time.perf_counter()
SPEC = json.loads(sys.argv[1])
SRC = os.path.join(SPEC["root"], "src")
sys.path.insert(0, SRC)

import census  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


# seconds one reference kernel takes on a 2.0 GHz Xeon vCPU in its slower
# speed state, under CPython 3.11: the speed at which the normalized solve
# time is given
REFERENCE_S = 0.025
# a reference sample is taken every this many CPU seconds of the solve
PROBE_EVERY_S = 0.5
_KERNEL_INPUT = {(i, j): Fraction(i + 1, j + 2)
                 for i in range(8) for j in range(8)}


def reference_kernel():
    """Fixed pure-Python work outside census: a sparse product with
    rational coefficients, the kind of arithmetic census does."""
    out = {}
    for (i, j), x in _KERNEL_INPUT.items():
        for (k, m), y in _KERNEL_INPUT.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


class Probe:
    """Times the reference kernel throughout a solve.

    The host's CPU speed drifts by up to a factor of two over minutes.  A
    CPU-time timer interrupts the solve every PROBE_EVERY_S and runs the
    kernel in the same process, so the kernel is slowed by whatever slows
    the solve at that moment.  Each stretch of the solve between two
    samples is scaled by the local kernel time (the median of the nearby
    samples) to the time it would take at REFERENCE_S per kernel.  The
    kernel's own CPU time is left out of the solve's.
    """

    def __init__(self):
        self.samples = []  # [solve CPU seconds so far, kernel seconds]
        self.spent = 0.0   # CPU seconds spent in the kernel
        self._start = None

    def __enter__(self):
        self._start = time.process_time()
        self.sample()
        signal.signal(signal.SIGPROF, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()
        return False

    def sample(self):
        # without collections, which would scan the solve's heap; timed by
        # the wall clock, as process CPU time may be counted in scheduler
        # ticks of several ms
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        reference_kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        if enabled:
            gc.enable()
        self.samples.append([c0 - self._start - self.spent, t1 - t0])
        self.spent += c1 - c0

    def solve_cpu_s(self):
        return self.samples[-1][0]

    def normalized_s(self):
        kernel = [k for _, k in self.samples]
        total = 0.0
        for i in range(len(self.samples) - 1):
            local = statistics.median(kernel[max(0, i - 2):i + 4])
            stretch = self.samples[i + 1][0] - self.samples[i][0]
            total += stretch * REFERENCE_S / local
        return total


def main():
    where = os.path.dirname(os.path.realpath(census.__file__))
    if where != os.path.realpath(os.path.join(SRC, "census")):
        sys.stderr.write("census imported from %s, not from %s\n"
                         % (where, SRC))
        return 3
    name = SPEC["workload"]
    with open(os.path.join(os.path.dirname(__file__), "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)
    rng = random.Random("%s/%s" % (name, SPEC["seed"]))
    failures = []
    attempted = 0

    def run(ops, latencies=None, span=lambda _: contextlib.nullcontext(),
            probe=None):
        nonlocal attempted
        for key, thunk in ops:
            attempted += 1
            k0 = probe.spent if probe else 0.0
            t0 = time.perf_counter()
            try:
                with span(tracer.ROOT):
                    value = thunk()
                ok = value is True if key is None else (
                    value == expected.get(key))
                if not ok:
                    failures.append("%s: got %r" % (key or "check", value))
            except Exception as exc:  # an op that raises counts as failed
                failures.append("%s: %s: %s"
                                % (key or "check", type(exc).__name__, exc))
            if latencies is not None and key is not None:
                # the reference kernel's samples are not part of a request
                latencies.append(time.perf_counter() - t0
                                 - (probe.spent - k0 if probe else 0.0))

    setup_ops, ops = workloads.build(name, census, rng, SPEC["smoke"],
                                     SPEC["tmpdir"])
    run(setup_ops)
    # CPU seconds since the process started: interpreter start, the import
    # of census and the workload's set-up
    out = {"census": where, "setup_s": time.process_time(),
           "setup_wall_s": time.perf_counter() - T_START}
    if SPEC["mode"] == "solve":
        latencies = []
        t0 = time.perf_counter()
        with Probe() as probe:
            run(ops, latencies, probe=probe)
        out.update(solve_s=time.perf_counter() - t0 - probe.spent,
                   solve_cpu_s=probe.solve_cpu_s(),
                   solve_norm_s=probe.normalized_s(),
                   probes=probe.samples, latencies=latencies)
    elif SPEC["mode"] == "traced":
        trace = tracer.Tracer()
        trace.install()
        trace.active = True
        c0, t0 = time.process_time(), time.perf_counter()
        run(ops, span=trace.span)
        solve_s = time.perf_counter() - t0
        trace.active = False
        out.update(solve_s=solve_s, solve_cpu_s=time.process_time() - c0,
                   layers=trace.metrics(solve_s))
        with open(SPEC["spans"], "w", encoding="utf-8") as fh:
            json.dump(trace.spans, fh)
    out.update(attempted=attempted, failures=failures,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
