"""Benchmark of graphonldp: one workload per run, one result line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: epidemic_sparse, continuum_fine, action_solve (see README.md).

With ``--trace 0`` the set-up is launched several times as its own process
(bytecode cache warm) and ``setup_s`` is the median launch-to-inputs-ready
time; one more process builds the inputs the same way and then times whole
rounds of the workload for ``--seconds``.  The end-to-end metrics are
``setup_s``, ``wall_s`` (median round), ``peak_rss_mb`` and ``work_per_s``
(median per round).

With ``--trace 1`` each of the three workloads runs one traced round in its
own process, and the per-layer metrics are taken from the workload each
layer belongs to; the traced round times are printed beside them so the
tracing overhead can be read off against an untraced run.

Every worker runs single-threaded (BLAS and OpenMP pinned to one thread).
The last line of standard output is the JSON result; a record with the
machine facts goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import version
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("epidemic_sparse", "continuum_fine", "action_solve")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0
# set-up launches per run: at least SETUP_MIN, more while they add up to
# less than SETUP_BUDGET_S (the quick set-up of action_solve gets more)
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def launch(args, deadline):
    """Start a worker; return (seconds from launch to READY, its JSON line)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return ready, (json.loads(last) if last else None)


def machine_facts():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "threads": THREADS}


def warm(deadline):
    """Compile the bytecode and load the libraries once before timing."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
                   check=True, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))
    subprocess.run([sys.executable, "-c", "import graphonldp, scipy.integrate"],
                   env=worker_env(), check=True, timeout=max(1.0, deadline - time.monotonic()))


def checks_ok(result):
    """Print the first round's checks and every failed one."""
    bad = [c for c in result["checks"] if not c["ok"]]
    for c in result["checks"]:
        if not c["ok"] or c["name"].startswith("round0."):
            print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(f"  {len(result['checks']) - len(bad)} of {len(result['checks'])} checks passed")
    return not bad


def end_to_end(workload, seed, seconds, deadline):
    setups = []
    while len(setups) < SETUP_MIN - 1 or (len(setups) < SETUP_MAX - 1 and sum(setups) < SETUP_BUDGET_S):
        setups.append(launch(["--workload", workload, "--seed", str(seed), "--phase", "setup"], deadline)[0])
    ready, res = launch(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)], deadline)
    setups.append(ready)
    rates = [w / t for w, t in zip(res["work"], res["round_s"])]
    if not rates:
        raise BenchError(f"no round of {workload} completed")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
    }
    print(f"{workload} seed {seed}: {len(res['round_s'])} rounds, work unit: {res['work_unit']}")
    print(f"  setup launches (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  round times (s): {', '.join(f'{s:.4f}' for s in res['round_s'])}")
    print(f"  work per round: {res['work']}")
    print(f"  counters: {json.dumps(res['counters'])}")
    record = {"setup_launches_s": setups, "runs": [res]}
    return metrics, res["attempted"], res["failed"], checks_ok(res), record


def traced(seed, deadline):
    runs, attempted, failed, ok = {}, 0, 0, True
    for workload in WORKLOADS:
        _, res = launch(["--workload", workload, "--seed", str(seed), "--trace"], deadline)
        if not res["round_s"]:
            raise BenchError(f"the traced round of {workload} failed")
        runs[workload] = res
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"{workload} seed {seed} traced: round {res['round_s'][0]:.4f} s, "
              f"counters {json.dumps(res['counters'])}")
        top = sorted(res["layers"].items(), key=lambda kv: -kv[1][1])[:8]
        print("  spans: " + ", ".join(f"{name} {n}x {s:.3f}s" for name, (n, s, _) in top))
        ok &= checks_ok(res)
    return tracing.per_layer(runs), attempted, failed, ok, {"runs": list(runs.values())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "graphonldp" / "__init__.py").is_file():
        print(f"bench: no graphonldp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}")
    try:
        warm(deadline)
        if args.trace:
            metrics, attempted, failed, correct, record = traced(args.seed, deadline)
        else:
            metrics, attempted, failed, correct, record = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(
        {"machine": facts, "args": vars(args), "metrics": metrics, "correct": correct, **record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
