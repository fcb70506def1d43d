#!/usr/bin/env python3
"""One command for the layered benchmark suite.

    python3 benchmarks/suite/run.py [--workload W] [--seed S] [--seconds T]
                                    [--trace 0|1|both | --traced] [--out FILE]

Each workload runs in its own fresh child process, one after another
(closed loop, one client, one thread, BLAS/OMP pinned to one thread).  An
untraced run gives the end-to-end metrics — ``setup_s`` as the median of
three set-ups (the measuring child and two set-up-only children); a traced
run wraps the layers' public functions and gives the per-layer numbers.
Every metric is printed by name with its unit, every check with its
verdict, and the exit code is non-zero if any check failed.

The last line of standard output is one JSON object: for a single workload
and a single mode exactly ``{"correct", "attempted", "failed", "metrics"}``
(the driver's contract), otherwise a summary ending in ``"claim": null`` —
this suite measures, it claims no gain.  ``--out FILE`` always receives the
full document (provenance, samples, span tables) that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402  (needs HERE on the path)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue.RUN_SECONDS),
                        help="seconds one run measures for")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0 end-to-end run, 1 traced run, both")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const="1", help="same as --trace 1")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses 0.05)")
    parser.add_argument("--role", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)   # child processes only
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child ---------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    import harness

    result = harness.run_child(args.role, args.workload, args.seed,
                               args.seconds, args.trace == "1", args.scale,
                               args.t0)
    print(json.dumps(result))
    return 0


# -- parent --------------------------------------------------------------------

def spawn(role: str, workload: str, args: argparse.Namespace, trace: int) -> dict:
    """Run one child to completion and return the JSON on its last line."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace),
           "--scale", repr(args.scale), "--t0", repr(time.time())]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {role} child exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args: argparse.Namespace, trace: int) -> dict:
    """One run of one workload: the contract's view plus the details."""
    measured = spawn("measure", workload, args, trace)
    setups = [measured["setup_s"]]
    if not trace:
        setups += [spawn("setup", workload, args, trace)["setup_s"]
                   for _ in range(SETUP_REPEATS - 1)]
    if trace:
        values = measured["per_layer"]
        declared = catalogue.PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": measured["ops_per_s"],
                  "peak_rss_mb": measured["peak_rss_mb"]}
        declared = catalogue.END_TO_END
    run = {
        "workload": workload, "trace": trace,
        "correct": measured["failed"] == 0
        and all(v["ok"] for v in measured["checks"]),
        "attempted": measured["attempted"], "failed": measured["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared},
        "details": dict(measured, setup_samples=setups),
    }
    report(run, args)
    return run


def report(run: dict, args: argparse.Namespace) -> None:
    details = run["details"]
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']}  seed {args.seed}  {mode}  "
          f"{args.seconds:g} s  scale {args.scale:g} ==")
    for name, metric in run["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    if not run["trace"]:
        setups = " ".join(f"{s:.3f}" for s in details["setup_samples"])
        print(f"  (set-ups {setups} s; rate from lower-quartile op times, "
              f"median-based {details['ops_per_s_median']:.6g}, "
              f"mean-based {details['ops_per_s_mean']:.6g} ops/s)")
    for row in details.get("spans", []):
        print(f"  span {row['span']:44s} n={row['count']:<8d} "
              f"p50 {row['p50_ms']:.4g} ms  {row['tail']} "
              f"{row['tail_ms']:.4g} ms  self {row['self_s']:.3f} s")
    print(f"  rounds {details['rounds']}  ops_attempted {run['attempted']}  "
          f"ops_failed {run['failed']}")
    for verdict in details["checks"]:
        status = "PASS" if verdict["ok"] else "FAIL"
        note = f"  {verdict['detail']}" if verdict["detail"] else ""
        print(f"  check {verdict['check']:44s} {status} "
              f"({verdict['checked'] - verdict['failed']} of "
              f"{verdict['checked']}){note}")
    sys.stdout.flush()


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def document(runs: list[dict], args: argparse.Namespace) -> dict:
    """The ``--out`` document: per workload both views, plus provenance."""
    by_workload: dict[str, dict] = {}
    env: dict = {}
    for run in runs:
        entry = by_workload.setdefault(
            run["workload"], {"end_to_end": {}, "per_layer": {},
                              "attempted": 0, "failed": 0, "checks": []})
        key = "per_layer" if run["trace"] else "end_to_end"
        entry[key] = {name: m["value"] for name, m in run["metrics"].items()}
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        entry["checks"] += run["details"]["checks"]
        entry["traced" if run["trace"] else "untraced"] = {
            k: v for k, v in run["details"].items()
            if k not in ("checks", "per_layer", "env")}
        env = run["details"]["env"]
    return {
        "schema": 1,
        "provenance": {
            "commit": git_commit(), "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": env.get("numpy", "unknown"),
            "threads": {var: "1" for var in THREAD_VARS},
            "loop": "closed, one client, one thread, workloads in sequence",
        },
        "bounds": {m.name: m.bound for m in catalogue.END_TO_END},
        "workloads": by_workload,
        "correct": all(run["correct"] for run in runs),
        "claim": None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    runs = [run_workload(name, args, trace)
            for name in names for trace in modes]
    full = document(runs, args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(full, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(runs) == 1:
        last = {key: runs[0][key]
                for key in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {"correct": full["correct"],
                "workloads": {name: {k: entry[k] for k in
                                     ("end_to_end", "attempted", "failed")}
                              for name, entry in full["workloads"].items()},
                "claim": None}
    print(json.dumps(last))
    return 0 if full["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
