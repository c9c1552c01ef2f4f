"""The benchmark's three workloads, and the process that runs one of them.

Each workload has a config (its sizes and seeds), a ``setup`` that builds
the inputs from ``--seed``, a ``round`` that makes the timed calls into
graphonldp once, and a ``check`` of the round outputs (see checks.py).

Run as a script, this file is the single-threaded worker process started by
run.py:

    python bench/workloads.py --workload W --seed N --seconds S --phase run [--trace]

It prints ``READY`` on stdout once its inputs are built (run.py times the
set-up from launch to that line), then with ``--phase run`` times whole
rounds until they add up to ``--seconds`` (one round with ``--trace``),
checks each round's outputs after its timer stops, and prints one JSON line
with the round times, the work counters, the peak RSS and the check results.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphonldp import action_path, core_model, graphon, meanfield, rate_function, simulator

ROOT = Path(__file__).resolve().parents[1]


def bump(nodes, center, width, depth):
    """Gaussian susceptible dip carved into a profile (as ``bump:c,w,d``)."""
    d = np.abs(nodes - center)
    d = np.minimum(d, 2.0 * np.pi - d)
    return depth * np.exp(-0.5 * (d / width) ** 2)


# ---------------------------------------------------------------------------
# epidemic_sparse: exact SIS simulation on a sparse W-random network

@dataclass
class EpidemicConfig:
    N: int = 16000
    degree_exponent: float = 0.35      # mean degree N^0.35 ~ 30
    base: float = 1.0
    amplitude: float = 0.5
    beta: float = 2.0
    alpha: float = 1.0
    infected_base: float = 0.3         # P(infected at x) = 0.3 + 0.15 cos x
    infected_amplitude: float = 0.15
    horizon: float = 2.0
    bins: int = 64
    snapshots: int = 21                # every 0.1 on [0, 2]
    sup_deviation: float = 0.004
    channel_rel_tol: float = 0.08


class Epidemic:
    name = "epidemic_sparse"
    work_unit = "events"

    def __init__(self, cfg=None):
        self.cfg = cfg or EpidemicConfig()

    def setup(self, seed):
        c = self.cfg
        spec = graphon.cosine_kernel(c.base, c.amplitude)
        phi = graphon.density_from_degree_exponent(c.N, c.degree_exponent)
        net = graphon.sample_network(spec, c.N, phi, seed=seed)
        params = core_model.SisParams(beta=c.beta, alpha=c.alpha)
        return {"seed": seed, "net": net, "params": params,
                "rates": core_model.sis_rates(params),
                "snapshots": c.horizon * np.arange(c.snapshots) / (c.snapshots - 1)}

    def replica_inputs(self, inputs, r):
        """Initial configuration and simulator seed of replica r."""
        c = self.cfg
        rng = np.random.default_rng([inputs["seed"], r, 1])
        p = c.infected_base + c.infected_amplitude * np.cos(inputs["net"].positions)
        return (rng.random(c.N) < p).astype(np.int64), [inputs["seed"], r, 2]

    def round(self, inputs, replica, rates):
        init, sim_seed = replica
        traj = simulator.simulate(inputs["net"], rates, init, self.cfg.horizon, seed=sim_seed)
        occ = [simulator.occupation_at(traj, t, self.cfg.bins) for t in inputs["snapshots"]]
        flux = simulator.extract_flux(traj)
        return {"traj": traj, "occupations": occ, "flux": flux}, traj.n_events

    def counters(self, inputs, out):
        return {"entries": len(inputs["net"].rows), "events": out["traj"].n_events}

    def check(self, inputs, out):
        import checks

        c = self.cfg
        if "reference" not in inputs:
            x = 2.0 * np.pi * np.arange(c.bins) / c.bins
            s0 = 1.0 - (c.infected_base + c.infected_amplitude * np.cos(x))
            inputs["reference"] = checks.sis_reference(
                checks.cosine_kernel(c.base, c.amplitude), c.bins, c.beta, c.alpha, s0,
                inputs["snapshots"])
        return checks.check_epidemic(c, out["traj"], out["flux"], out["occupations"],
                                     inputs["snapshots"], inputs["reference"])


# ---------------------------------------------------------------------------
# continuum_fine: mean-field evolution and rate functionals at M = 1024

@dataclass
class ContinuumConfig:
    M: int = 1024
    high: float = 1.5
    low: float = 0.1
    cutoff: float = 0.5
    beta: float = 4.0
    alpha: float = 1.0
    horizon: float = 2.0
    steps: int = 1000
    bump_width: float = 0.8
    bump_depth: float = 0.2
    tol_exact: float = 1e-9
    tol_rate: float = 1e-9


class Continuum:
    name = "continuum_fine"
    work_unit = "grid cell-steps"

    def __init__(self, cfg=None):
        self.cfg = cfg or ContinuumConfig()

    def setup(self, seed):
        c = self.cfg
        grid = meanfield.circle_grid(c.M)
        spec = graphon.small_world_kernel(c.high, c.low, c.cutoff)
        s_eq = meanfield.endemic_equilibrium(grid, spec, c.beta, c.alpha)
        # the seed picks the grid node under the dip; the kernel is
        # translation-invariant, so every seed poses the same problem rotated
        center = grid.nodes[seed % c.M]
        s0 = s_eq - bump(grid.nodes, center, c.bump_width, c.bump_depth)
        params = core_model.SisParams(beta=c.beta, alpha=c.alpha)
        return {"grid": grid, "spec": spec, "params": params, "s_eq": s_eq,
                "nu0": np.stack([s0, 1.0 - s0]), "rates": core_model.sis_rates(params)}

    def replica_inputs(self, inputs, r):
        return None

    def round(self, inputs, replica, rates):
        c = self.cfg
        grid, spec = inputs["grid"], inputs["spec"]
        dens, flux = meanfield.evolve(grid, spec, rates, inputs["nu0"], c.horizon,
                                      dt=c.horizon / c.steps)
        g = rate_function.rate_G(flux.densities, dens.values[0], grid, spec, rates,
                                 c.horizon, times=flux.times)
        a = rate_function.sis_action(dens.state("S"), inputs["params"], spec, grid, c.horizon)
        rk4_steps = len(dens.times) - 1
        slices = 2 * len(flux.times)    # rate_G and sis_action each cover every time slice
        return {"dens": dens, "flux": flux, "rate_G": g, "sis_action": a,
                "rk4_steps": rk4_steps}, c.M * (rk4_steps + slices)

    def counters(self, inputs, out):
        return {"rk4_steps": out["rk4_steps"]}

    def check(self, inputs, out):
        import checks

        return checks.check_continuum(self.cfg, inputs["s_eq"], inputs["nu0"], out["dens"],
                                      out["flux"], out["rate_G"], out["sis_action"])


# ---------------------------------------------------------------------------
# action_solve: the `action` subcommand's default solve

@dataclass
class ActionConfig:
    M: int = 64
    K: int = 200
    horizon: float = 5.0
    base: float = 1.0
    amplitude: float = 0.5
    beta: float = 2.0
    alpha: float = 1.0
    bump_center: float = 3.14159
    bump_width: float = 0.8
    bump_depth: float = 0.2
    tol_grad: float = 1e-6
    max_iters: int = 20000
    tol_action: float = 1e-9
    tol_el: float = 5e-3


class Action:
    name = "action_solve"
    work_unit = "path unknowns"

    def __init__(self, cfg=None):
        self.cfg = cfg or ActionConfig()

    def setup(self, seed):
        # the default solve has no random input: every seed gives the same one
        c = self.cfg
        grid = meanfield.circle_grid(c.M)
        spec = graphon.cosine_kernel(c.base, c.amplitude)
        s0 = meanfield.endemic_equilibrium(grid, spec, c.beta, c.alpha)
        sT = s0 - bump(grid.nodes, c.bump_center, c.bump_width, c.bump_depth)
        problem = action_path.PathProblem(s0=s0, sT=sT, horizon=c.horizon, K=c.K)
        # the options `graphonldp action` builds from its defaults
        opts = action_path.ActionOptions(max_iters=c.max_iters, tol_grad=c.tol_grad)
        return {"grid": grid, "spec": spec, "problem": problem, "opts": opts,
                "params": core_model.SisParams(beta=c.beta, alpha=c.alpha), "rates": None}

    def replica_inputs(self, inputs, r):
        return None

    def round(self, inputs, replica, rates):
        res = action_path.minimize_action(inputs["problem"], inputs["params"], inputs["spec"],
                                          inputs["grid"], inputs["opts"])
        return res, (self.cfg.K - 1) * self.cfg.M

    def counters(self, inputs, out):
        return {"lbfgsb_iterations": out.diagnostics["iters"],
                "history_calls": len(out.diagnostics["action_history"])}

    def check(self, inputs, out):
        import checks

        return checks.check_action(self.cfg, inputs["problem"], out)


WORKLOADS = {w.name: w for w in (Epidemic, Continuum, Action)}


# ---------------------------------------------------------------------------
# worker process

def run(workload, seed, seconds, phase, trace):
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = WORKLOADS[workload]()
    inputs = wl.setup(seed)
    print("READY", flush=True)
    if phase == "setup":
        return 0

    rates = inputs["rates"]
    if tracer is not None and rates is not None:
        rates = tracing.CountingRates(rates, tracer)
    times, work, counters, checks = [], [], {}, []
    attempted = failed = 0
    elapsed = 0.0
    peak_rss_mb = layers = None
    while True:
        replica = wl.replica_inputs(inputs, attempted)
        attempted += 1
        t0 = time.perf_counter()
        try:
            out, w = wl.round(inputs, replica, rates)
        except Exception:
            traceback.print_exc()
            failed += 1
            out = None
        t = time.perf_counter() - t0
        elapsed += t
        if peak_rss_mb is None:
            # read before any check runs, so the checks' own arrays and the
            # number of rounds do not enter it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            layers = tracer.summary()
            tracer.dump(ROOT / ".bench_out" / f"trace_{workload}_seed{seed}.json")
        if out is not None:
            times.append(t)
            work.append(w)
            for key, val in wl.counters(inputs, out).items():
                counters.setdefault(key, []).append(val)
            checks += [(f"round{attempted - 1}.{n}", ok, d) for n, ok, d in wl.check(inputs, out)]
            del out
        if tracer is not None or elapsed >= seconds:
            break

    if not times:
        checks.append(("no_round_completed", False, f"{failed} rounds failed"))
    result = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "attempted": attempted, "failed": failed,
        "round_s": times, "work": work, "work_unit": wl.work_unit,
        "peak_rss_mb": peak_rss_mb, "counters": counters,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "layers": layers,
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.phase, args.trace)


if __name__ == "__main__":
    sys.exit(main())
