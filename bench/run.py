"""tot benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload compare-128 --seed 0 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` the workload runs as a closed
loop of fresh instances for ``--seconds`` seconds, untraced, and the run
reports the end-to-end metrics.  With ``--trace 1`` a fixed number of
instances, set by ``--seconds`` and the workload's nominal cost, each run
once untraced and once traced; the run reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object; the full result, with the environment record, goes to
``.bench_out/`` in the checkout, which also holds the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

# one thread for every BLAS/OpenMP pool, set before numpy is imported
THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_VARS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, InstanceFailed  # noqa: E402  (stdlib only)


# a run must end within 180 s; an instance still going at this point fails
HARD_LIMIT_S = 150


class RunTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise RunTimeout(f"instance stopped at the {HARD_LIMIT_S} s run limit")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


IMPORT_SAMPLES = 3


def import_tot():
    """Import tot from this checkout's src/ and time the import.

    The import is part of the set-up, but a process imports only once, so
    the time is the median of this import and fresh-interpreter imports.
    """
    if not os.path.isfile(os.path.join(SRC, "tot", "__init__.py")):
        raise SystemExit(f"bench: no tot sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import tot
    import tot.cli
    samples = [time.perf_counter() - start]
    if os.path.dirname(os.path.abspath(tot.__file__)) != os.path.join(SRC, "tot"):
        raise SystemExit(f"bench: imported tot from {tot.__file__}, not {SRC}")
    probe = (f"import sys, time; sys.path.insert(0, {SRC!r}); "
             "t = time.perf_counter(); import tot, tot.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(IMPORT_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout))
    return tot, statistics.median(samples)


def src_lines():
    total = 0
    pkg = os.path.join(SRC, "tot")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(tot):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": THREAD_VARS, "src_lines": src_lines(),
            "tot": tot.__version__}


class Runner:
    """Runs instances of one workload and keeps their outcomes."""

    def __init__(self, tot, workload):
        self.tot = tot
        self.workload = workload
        self.setup_s = []
        self.solve_s = []       # failed instances enter as +inf
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.errors = []
        self.timed_out = False

    def instance(self, seed, index, tracer=None):
        """Set up and solve one instance; returns its solve time or None."""
        setup, solve = self.workload.setup, self.workload.solve
        if tracer is not None:
            setup = tracer.wrap("bench.setup", setup)
            solve = tracer.wrap("bench.solve", solve)
        self.attempted += 1
        inst = None
        try:
            start = time.perf_counter()
            inst = setup(seed, index)
            self.setup_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            solve(inst)
            elapsed = time.perf_counter() - start
        except RunTimeout as exc:
            self.timed_out = True
            self._fail(index, str(exc))
            return None
        except (self.tot.TransportError, InstanceFailed) as exc:
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return None
        except Exception as exc:    # an untyped error is a defect: record it
            traceback.print_exc(file=sys.stderr)
            self.incorrect += 1
            self._fail(index, f"untyped {type(exc).__name__}: {exc}")
            return None
        finally:
            if inst is not None:
                inst.cleanup()
        missed = [c for c in inst.checks if not c.ok]
        if missed:
            self.incorrect += 1
            self._fail(index, "; ".join(f"{c.name} = {c.value:.3g} not {c.limit}"
                                        for c in missed))
            return None
        self.solve_s.append(elapsed)
        return elapsed

    def _fail(self, index, message):
        self.failed += 1
        self.solve_s.append(float("inf"))
        self.errors.append({"instance": index, "error": message})


def median_solve(times, fallback):
    """Median wall time per instance; failures count as missing any limit
    (+inf), and a run where most instances fail reports ``fallback``."""
    med = statistics.median(times)
    return med if med != float("inf") else fallback


def tail(times):
    """Highest percentile with at least ten samples beyond it (n >= 20)."""
    n = len(times)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run_untraced(runner, seed, seconds, import_s):
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while not runner.timed_out and (index == 0 or time.perf_counter() < deadline):
        runner.instance(seed, index)
        index += 1
    loop_s = time.perf_counter() - start
    setup = import_s + statistics.median(runner.setup_s or [0.0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": (median_solve(runner.solve_s, loop_s), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "solved_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    extra = {"instances": runner.attempted, "loop_s": loop_s,
             "import_s": import_s, "setup_per_instance_s": runner.setup_s,
             "solve_per_instance_s": [t if t != float("inf") else None
                                      for t in runner.solve_s],
             "failed_frac": runner.failed / runner.attempted}
    t = tail(runner.solve_s)
    if t is not None and t[1] != float("inf"):
        extra["solve_s_tail"] = {"percentile": t[0], "value": t[1]}
    return metrics, extra


def run_traced(tot, runner, seed, seconds):
    from tracer import Tracer, layer_metrics
    wl = runner.workload
    n = max(1, int(seconds // wl.traced_pair_s))
    tracer = Tracer()
    plain, traced = [], []
    for index in range(n):
        if runner.timed_out:
            break
        # alternate the order so warm caches favour neither side
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.current_instance = index
                tracer.install(tot)
                try:
                    traced.append(runner.instance(seed, index, tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(runner.instance(seed, index))
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.npz")
    tracer.save(spans_path)
    metrics = layer_metrics(tracer, len(traced))
    # overhead over the instances that succeeded both untraced and traced
    both = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    plain_s = statistics.median(p for p, _ in both) if both else 0.0
    traced_s = statistics.median(t for _, t in both) if both else 0.0
    metrics.update({
        "trace.solve_s": (traced_s, "s"),
        "trace.untraced_solve_s": (plain_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s if both else 0.0,
                                "ratio"),
        "trace.spans": (len(tracer.name) / max(len(traced), 1), "count"),
        "src_lines": (float(src_lines()), "lines"),
    })
    extra = {"instances": n, "spans_file": os.path.relpath(spans_path, ROOT),
             "solve_untraced_s": plain, "solve_traced_s": traced}
    return metrics, extra


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_LIMIT_S)
    tot, import_s = import_tot()
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload](tot, scratch)
    runner = Runner(tot, workload)
    if args.trace:
        metrics, extra = run_traced(tot, runner, args.seed, args.seconds)
    else:
        metrics, extra = run_untraced(runner, args.seed, args.seconds, import_s)
    signal.alarm(0)
    env = environment(tot)
    correct = runner.incorrect == 0
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "errors": runner.errors, "details": extra, **result}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {runner.attempted}  failed {runner.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for err in runner.errors:
        print(f"failed instance {err['instance']}: {err['error']}")
    if not args.trace:
        print(f"failed_frac = {extra['failed_frac']:.6g} ratio "
              f"({runner.failed} of {runner.attempted} instances)")
        if "solve_s_tail" in extra:
            t = extra["solve_s_tail"]
            print(f"solve_s p{t['percentile']:.0f} = {t['value']:.6g} s")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
