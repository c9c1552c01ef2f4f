"""Tests of the benchmark itself: each workload's checks pass on the
program's output and fail on a corrupted copy of it.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

The instances are small, so the whole file runs in seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from graphonldp.simulator import extract_flux, occupation_at  # noqa: E402


def failed(results):
    return {name for name, ok, _ in results if not ok}


def epidemic_outputs(traj, wl, inputs):
    occ = [occupation_at(traj, t, wl.cfg.bins) for t in inputs["snapshots"]]
    return {"traj": traj, "occupations": occ, "flux": extract_flux(traj)}


def test_epidemic_checks_catch_a_flipped_event():
    # statistical bounds are loose at N = 300; the exact checks are the point
    wl = workloads.Epidemic(workloads.EpidemicConfig(
        N=300, degree_exponent=0.7, horizon=1.0, bins=8, snapshots=11,
        sup_deviation=1.0, channel_rel_tol=1.0))
    inputs = wl.setup(seed=3)
    out, events = wl.round(inputs, wl.replica_inputs(inputs, 0), inputs["rates"])
    assert events > 50
    assert failed(wl.check(inputs, out)) == set()

    traj = out["traj"]
    # an event whose node jumps again before the horizon, so the replayed
    # occupation and the flux counts disagree after that later jump
    i = next(i for i in range(traj.n_events // 2, traj.n_events)
             if traj.nodes[i] in traj.nodes[i + 1:])
    to = traj.to_codes.copy()
    to[i] = 1 - to[i]
    bad = epidemic_outputs(dataclasses.replace(traj, to_codes=to), wl, inputs)
    names = failed(wl.check(inputs, bad))
    assert {"event_log_is_jump_chain", "flux_occupation_conservation"} <= names


def test_continuum_checks_catch_a_scaled_flux_channel():
    wl = workloads.Continuum(workloads.ContinuumConfig(M=64, steps=200, horizon=0.5))
    inputs = wl.setup(seed=5)
    out, _ = wl.round(inputs, None, inputs["rates"])
    assert failed(wl.check(inputs, out)) == set()

    dens = dict(out["flux"].densities)
    dens[("S", "I")] = 1.01 * dens[("S", "I")]
    bad = dict(out, flux=dataclasses.replace(out["flux"], densities=dens))
    assert failed(wl.check(inputs, bad)) == {"flux_equals_rate_times_density"}


def test_action_checks_catch_a_perturbed_slice():
    # the EL bound is for K = 200; this coarse path only has to be consistent
    wl = workloads.Action(workloads.ActionConfig(M=16, K=20, tol_el=1.0))
    inputs = wl.setup(seed=0)
    res, _ = wl.round(inputs, None, None)
    assert failed(wl.check(inputs, res)) == set()

    path = res.path.copy()
    path[10] += 1e-3
    bad = dataclasses.replace(res, path=path)
    assert "action_matches_oracle" in failed(wl.check(inputs, bad))


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
