"""One workload in one process: set-up, timed repetitions, checks.

    python3 bench/worker.py --workload cf-deep --seed 0 --seconds 20 --trace 0
    python3 bench/worker.py --workload cf-deep --seed 0 --setup-only

Run from the repository root; run.py starts it with one BLAS thread and the
package source on PYTHONPATH.  Prints one JSON object of raw samples.  Every
time in it is corrected for the host's speed (speed.py), except wall_s.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
from speed import Meter
from workloads import WORKLOADS


def _threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _setup(wl, p):
    """import gifsdim and build the workload's systems, each timed."""
    with Meter() as imported:
        import gifsdim
    with Meter() as built:
        systems = wl.build(gifsdim, p)
    return gifsdim, systems, imported.seconds + built.seconds, built.seconds


def _setup_sample(args):
    """Set-up time of a fresh process: import plus system build."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _api(g):
    return {"bowen_dimension": g.bowen_dimension,
            "truncation_ladder": g.truncation_ladder,
            "dimension_sweep": g.dimension_sweep,
            "PotentialSpec": g.PotentialSpec}


def _repetition(wl, p, api, systems, estimates, first_brackets):
    """One timed call of the workload plus its untimed checks.

    Returns (meter, units, problems per unit); units is None when a solve
    raised, which fails the whole repetition."""
    with Meter() as meter:
        try:
            units = wl.run(api, systems, p)
        except Exception as err:  # a solve that raises is a failed solve
            units, problems = None, [f"{type(err).__name__}: {err}"]
    if units is None:
        return meter, None, problems
    problems = wl.check(units, p, estimates)
    brackets = [(u.s_lower, u.s_upper) for u in units]
    if first_brackets is not None and brackets != first_brackets:
        problems = [list(found) + ["bracket differs from the first repetition"]
                    for found in problems]
    return meter, units, problems


def _next_kind(trace, times, counts):
    """plain without --trace; with it, one counting repetition first, then
    plain and traced in turn."""
    if not trace:
        return "plain"
    if counts is None:
        return "counted"
    return "traced" if len(times["traced"]) < len(times["plain"]) else "plain"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--setup-samples", type=int, default=0,
                    help="fresh-process set-up samples, spread over the run")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    p = wl.params(args.seed)
    g, systems, setup_s, build_s = _setup(wl, p)
    out = {"setup_s": setup_s, "build_s": build_s, "source": g.__file__}
    setups = [setup_s]
    if args.setup_only:
        print(json.dumps(out))
        return 0

    estimates = wl.estimates(g, wl.build(g, p), p) if wl.estimates else None
    api = _api(g)
    times = {"plain": [], "traced": []}
    walls = []
    layers = []
    counts = None
    attempted = failed = 0
    widths = []
    errors = []
    first_brackets = None
    size = 1
    sampling = 0.0  # time spent on set-up samples, outside the run budget
    start = time.perf_counter()
    while True:
        if systems is None:
            # a fresh system for every repetition: a user solves it once
            systems = wl.build(g, p)
        kind = _next_kind(args.trace, times, counts)
        tracer = spans.Tracer()
        try:
            if kind == "traced":
                run_api = dict(api, **spans.install(tracer, g))
            else:
                run_api = api
                if kind == "counted":
                    spans.install_counters(tracer, g)
            meter, units, problems = _repetition(wl, p, run_api, systems,
                                                 estimates, first_brackets)
        finally:
            tracer.restore()
        systems = None
        if kind == "counted":
            counts = spans.count_metrics(tracer)
        else:
            times[kind].append(meter.seconds)
        if kind == "plain":
            walls.append(meter.wall)
        elif kind == "traced":
            layers.append(spans.layer_metrics(tracer, meter.speed))
        if units is None:
            attempted += size
            failed += size
            errors += problems
        else:
            size = len(units)
            if first_brackets is None:
                first_brackets = [(u.s_lower, u.s_upper) for u in units]
            attempted += len(units)
            failed += sum(1 for found in problems if found)
            errors += [msg for found in problems for msg in found]
            widths += [u.s_upper - u.s_lower for u in units if u.s_tol is not None]
        elapsed = time.perf_counter() - start - sampling
        # set-up samples spread over the run, so one slow spell of the
        # machine does not decide their median
        due = args.setup_samples * min(1.0, elapsed / args.seconds) \
            if args.seconds > 0 else args.setup_samples
        while len(setups) - 1 < due:
            t = time.perf_counter()
            setups.append(_setup_sample(args))
            sampling += time.perf_counter() - t
        if len(times["plain"]) < (1 if args.trace else 2) or (args.trace and not times["traced"]):
            continue  # a median of at least two; one traced repetition when tracing
        nxt = times[_next_kind(args.trace, times, counts)]
        if elapsed + statistics.median(nxt) > args.seconds:
            break
    while len(setups) - 1 < args.setup_samples:
        setups.append(_setup_sample(args))

    if layers:
        layers = spans.median_metrics(layers)
        layers.update(counts)
    out.update({
        "setup_s": setups,
        "solve_s": times["plain"],
        "wall_s": walls,
        "traced_s": times["traced"],
        "layers": layers or None,
        "bracket_width": max(widths) if widths else None,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
        "params": {k: repr(v) for k, v in p.items()},
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
