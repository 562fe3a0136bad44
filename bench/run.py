"""gifsdim benchmark: one workload per process, metrics on stdout.

    python3 bench/run.py --workload cf-deep --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  Each workload runs in its own process with
one thread and the package imported from ./src.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics from a traced run with --trace 1.
Times are corrected for the host's speed (speed.py); the report also prints
the plain wall time.  Metric names and units come from BENCHMARK.json.
Exits non-zero, printing no result, when the package source is missing or a
worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # fresh processes, besides the worker's own set-up
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def units(key):
    """{metric name: unit} of one BENCHMARK.json list, in its order."""
    return {m["name"]: m["unit"] for m in SPEC[key]}


class BenchError(Exception):
    pass


def _worker(root, args):
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=150)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src = os.path.join(root, "src", "gifsdim")
    if os.path.dirname(os.path.abspath(out["source"])) != src:
        raise BenchError(f"gifsdim imported from {out['source']}, not {src}")
    return out


def measure(root, workload, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    raw = _worker(root, ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace),
                         "--setup-samples", str(0 if trace else SETUP_SAMPLES)])
    setups = raw["setup_s"]
    solve_s = statistics.median(raw["solve_s"])
    wall_s = statistics.median(raw["wall_s"])
    failed_frac = raw["failed"] / raw["attempted"]
    lines = [
        f"# {workload} seed={seed} params={raw['params']} nproc={os.cpu_count()}"
        f" threads={raw['threads']} reps={len(raw['solve_s'])}+{len(raw['traced_s'])} traced",
        f"#   solve_s       {solve_s:.4f} s  (median of {len(raw['solve_s'])} repetitions,"
        f" min {min(raw['solve_s']):.4f}, max {max(raw['solve_s']):.4f};"
        f" wall {wall_s:.4f} s, wall over corrected {wall_s / solve_s:.3f})",
        f"#   bracket_width {raw['bracket_width']:.6g} dim",
        f"#   setup_s       {statistics.median(setups):.4f} s  (median of {len(setups)})",
        f"#   peak_rss_mb   {raw['peak_rss_mb']:.1f} MB",
        f"#   failed_frac   {failed_frac:.4g} ratio  ({raw['failed']} of {raw['attempted']})",
    ]
    lines += [f"#   problem: {msg}" for msg in raw["errors"]]
    if trace:
        traced = statistics.median(raw["traced_s"])
        values = dict(raw["layers"])
        values["scenarios.build_s"] = raw["build_s"]
        values["trace.solve_s"] = traced
        values["trace.overhead_frac"] = traced / solve_s - 1.0
        lines.append("#   per-layer numbers come from the traced repetitions only")
        spec = units("per_layer")
        lines += [f"#   {name:32s} {values[name]:.6g} {unit}"
                  for name, unit in spec.items()]
    else:
        values = {"solve_s": solve_s, "bracket_width": raw["bracket_width"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        spec = units("end_to_end")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec.items()},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gifsdim", "__init__.py")):
        print(f"no package source at {root}/src/gifsdim; run from the repository root",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(root, name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
