"""Configuration-driven command-line pipeline.

Subcommands: sample, simulate, meanfield, compare, rate, action, ldp-check.
A single INI-style config file (key = value under [section] headers) feeds
every command; individual entries can be overridden on the command line
with repeated ``--set section.key=value`` flags.  All artifacts land under
--out with a manifest listing file hashes, and every run is deterministic
given (config, seed).

Exit codes: 0 success; 2 configuration error (a bad option, profile or
network file, or snapshots off the mean-field time grid); 3 numerical
failure (an exhausted event budget, a non-finite rate, density
normalization drift, an equilibrium relaxation or an action solve that
did not converge).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core_model import ModelError, NumericalError, SisParams, sis_rates
from .graphon import (
    FAMILIES,
    GraphonError,
    density_from_degree_exponent,
    sample_network,
    write_network,
)
from .meanfield import circle_grid, endemic_equilibrium, evolve
from .rate_function import ell, poisson_tail_log_prob, rate_G, sis_action
from .action_path import ActionOptions, EndpointError, PathProblem, el_residual, minimize_action
from .simulator import extract_flux, occupation_at, simulate


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "model": {"beta": "2.0", "alpha": "1.0", "init": "uniform:0.3"},
    "graphon": {"family": "inhomogeneous-circle", "N": "500",
                "phi_exponent": "0.7", "base": "1.0", "amplitude": "0.5",
                "level": "1.0", "high": "1.5", "low": "0.1", "cutoff": "0.5",
                "beta_pl": "0.3", "gamma": "0.6"},
    "grid": {"M": "64", "K": "200", "T": "5.0", "steps": "2000"},
    "run": {"replicas": "20", "seed": "7", "threads": "1"},
    "compare": {"N_sweep": "500,1000,2000", "snapshots": "26"},
    "action": {"s0": "equilibrium", "sT": "bump:3.14159,0.8,0.2",
               "tol_grad": "1e-6", "max_iters": "20000"},
    "ldp_check": {"a": "1.2", "N_values": "250,500,1000,2000"},
}


def load_config(path, overrides=()):
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    if path is not None:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), key.strip(), value.strip())
    return cp


def resolved_dict(cp):
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _f(cp, sec, key):
    try:
        return cp.getfloat(sec, key)
    except ValueError as e:
        raise ConfigError(f"[{sec}] {key}: {e}") from None


def _i(cp, sec, key):
    try:
        return cp.getint(sec, key)
    except ValueError as e:
        raise ConfigError(f"[{sec}] {key}: {e}") from None


def graphon_spec(cp):
    fam = cp.get("graphon", "family")
    if fam not in FAMILIES:
        raise ConfigError(f"unknown graphon family {fam!r}; choose from {sorted(FAMILIES)}")
    g = lambda k: _f(cp, "graphon", k)
    try:
        if fam == "constant":
            spec = FAMILIES[fam](g("level"))
        elif fam == "inhomogeneous-circle":
            spec = FAMILIES[fam](g("base"), g("amplitude"))
        elif fam == "small-world":
            spec = FAMILIES[fam](g("high"), g("low"), g("cutoff"))
        else:
            spec = FAMILIES[fam](g("beta_pl"), g("gamma"))
        spec.validate()
        return spec
    except GraphonError as e:
        raise ConfigError(str(e)) from None


def model_params(cp):
    beta, alpha = _f(cp, "model", "beta"), _f(cp, "model", "alpha")
    if beta <= 0 or alpha <= 0:
        raise ConfigError("model rates must be positive")
    return SisParams(beta=beta, alpha=alpha)


def parse_profile(text, grid, params=None, kernel=None):
    """Profiles over the circle: equilibrium | uniform:c | cosine:b,a |
    bump:center,width,depth (a susceptible dip carved into equilibrium)."""
    name, _, rest = text.partition(":")
    th = grid.nodes
    if name == "uniform":
        try:
            c = float(rest)
        except ValueError:
            raise ConfigError(f"bad uniform profile {text!r}") from None
        return np.full(grid.M, c)
    if name == "cosine":
        try:
            base, amp = (float(v) for v in rest.split(","))
        except ValueError:
            raise ConfigError(f"bad cosine profile {text!r}") from None
        return base + amp * np.cos(th)
    if name == "equilibrium":
        if params is None or kernel is None:
            raise ConfigError("equilibrium profile needs model and graphon sections")
        return endemic_equilibrium(grid, kernel, params.beta, params.alpha)
    if name == "bump":
        try:
            center, width, depth = (float(v) for v in rest.split(","))
        except ValueError:
            raise ConfigError(f"bad bump profile {text!r} "
                              "(expected bump:center,width,depth)") from None
        if width <= 0:
            raise ConfigError("bump width must be positive")
        base = endemic_equilibrium(grid, kernel, params.beta, params.alpha)
        d = np.abs(th - center)
        d = np.minimum(d, 2 * np.pi - d)
        return base - depth * np.exp(-0.5 * (d / width) ** 2)
    raise ConfigError(f"unknown profile {text!r}")


def bernoulli_init(p_infected, positions, rng):
    """Independent per-node infected draws from a profile sampled at x_j."""
    probs = np.interp(positions, np.linspace(0, 2 * np.pi, len(p_infected) + 1)[:-1],
                      p_infected, period=2 * np.pi)
    return np.where(rng.random(len(positions)) < probs, 1, 0).astype(np.int64)


class Manifest:
    def __init__(self, out_dir, command, cp):
        self.dir = Path(out_dir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"output directory not writable: {e}") from None
        self.data = {"command": command, "version": __version__,
                     "config": resolved_dict(cp), "artifacts": []}

    def add(self, path):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.data["artifacts"].append({"path": str(Path(path).name), "sha256": digest})
        return path

    def write(self, extra=None):
        if extra:
            self.data.update(extra)
        out = self.dir / "manifest.json"
        out.write_text(json.dumps(self.data, indent=2, sort_keys=True))
        return out


def _network_from_config(cp, N=None, seed=None, require_circle=False):
    spec = graphon_spec(cp)
    if require_circle and spec.domain != "circle":
        raise ConfigError(
            f"family {spec.family!r} lives on {spec.domain!r}; the epidemic "
            "experiments need a circle-domain kernel")
    N = N if N is not None else _i(cp, "graphon", "N")
    if N < 2:
        raise ConfigError("need N >= 2")
    exponent = _f(cp, "graphon", "phi_exponent")
    if not (0.0 < exponent <= 1.0):
        raise ConfigError("phi_exponent must lie in (0, 1]: degree scale N^g")
    phi = density_from_degree_exponent(N, exponent)
    seed = seed if seed is not None else _i(cp, "run", "seed")
    return spec, sample_network(spec, N, phi, seed=seed)


def cmd_sample(cp, out):
    man = Manifest(out, "sample", cp)
    spec, net = _network_from_config(cp)
    path = man.dir / "network.txt"
    write_network(path, net)
    man.add(path)
    man.write({"N": net.N, "phi_N": net.phi_N, "edges": int(len(net.rows))})
    return 0


def _one_replica(args):
    net, beta, alpha, init, T, rep_seed = args
    return simulate(net, sis_rates(SisParams(beta=beta, alpha=alpha)),
                    init, T, seed=rep_seed)


def _replica_trajectories(cp, net, params, grid, seed):
    """Simulate the configured number of replicas.

    Each replica gets its own RNG stream derived from (seed, replica id),
    so results are identical regardless of the --threads setting; threads
    only parallelize across replicas.
    """
    reps = _i(cp, "run", "replicas")
    if reps < 1:
        raise ConfigError("replicas must be >= 1")
    threads = _i(cp, "run", "threads")
    profile = parse_profile(cp.get("model", "init"), grid,
                            params=params, kernel=graphon_spec(cp))
    T = _f(cp, "grid", "T")
    streams = np.random.SeedSequence(seed).spawn(reps)
    jobs = []
    for r in range(reps):
        rng = np.random.default_rng(streams[r])
        init = bernoulli_init(profile, net.positions, rng)
        jobs.append((net, params.beta, params.alpha, init, T, streams[r].spawn(1)[0]))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_one_replica, jobs))
    return [_one_replica(job) for job in jobs]


def cmd_simulate(cp, out):
    man = Manifest(out, "simulate", cp)
    params = model_params(cp)
    grid = circle_grid(_i(cp, "grid", "M"))
    spec, net = _network_from_config(cp, require_circle=True)
    trajs = _replica_trajectories(cp, net, params, grid, _i(cp, "run", "seed"))
    T = _f(cp, "grid", "T")
    edges = np.linspace(0.0, T, 11)
    for r, traj in enumerate(trajs):
        p = man.dir / f"trajectory_{r:03d}.jsonl"
        traj.write_jsonl(p)
        man.add(p)
        fx = extract_flux(traj)
        p2 = man.dir / f"flux_{r:03d}.csv"
        fx.write_csv(p2, bins=grid.M, time_edges=edges)
        man.add(p2)
        p3 = man.dir / f"occupation_{r:03d}.csv"
        with open(p3, "w") as fh:
            fh.write("channel,bin,t_lo,t_hi,mass\n")
            for t in edges:
                occ = occupation_at(traj, t, bins=grid.M)
                for a, lab in enumerate(occ.labels):
                    for b in range(grid.M):
                        fh.write(f"{lab},{b},{float(t)!r},{float(t)!r},"
                                 f"{occ.counts[a, b] / occ.N!r}\n")
        man.add(p3)
    man.write({"replicas": len(trajs),
               "events": [int(t.n_events) for t in trajs]})
    return 0


def _meanfield_solution(cp, params, grid, profile):
    T = _f(cp, "grid", "T")
    steps = _i(cp, "grid", "steps")
    nu0 = np.stack([profile, 1.0 - profile])  # susceptible, infected
    spec = graphon_spec(cp)
    rates = sis_rates(params)
    return evolve(grid, spec, rates, nu0, T, dt=T / steps)


def cmd_meanfield(cp, out):
    man = Manifest(out, "meanfield", cp)
    params = model_params(cp)
    grid = circle_grid(_i(cp, "grid", "M"))
    init_infected = parse_profile(cp.get("model", "init"), grid,
                                  params=params, kernel=graphon_spec(cp))
    dens, flux = _meanfield_solution(cp, params, grid, 1.0 - init_infected)
    p = man.dir / "density.csv"
    dens.write_csv(p, grid.nodes)
    man.add(p)
    p2 = man.dir / "flux.csv"
    flux.write_csv(p2, grid.nodes)
    man.add(p2)
    man.write()
    return 0


def compare_deviations(cp, N, seed):
    """Median over replicas of the sup-over-(state, bin, snapshot) gap
    between binned empirical occupation masses and the limiting solution."""
    steps, n_snaps = _i(cp, "grid", "steps"), _i(cp, "compare", "snapshots")
    if n_snaps < 2 or steps % (n_snaps - 1):
        raise ConfigError(
            f"compare.snapshots = {n_snaps} needs compare.snapshots - 1 to divide "
            f"grid.steps = {steps}, so that every snapshot is a mean-field grid time")
    params = model_params(cp)
    M = _i(cp, "grid", "M")
    grid = circle_grid(M)
    init_infected = parse_profile(cp.get("model", "init"), grid,
                                  params=params, kernel=graphon_spec(cp))
    dens, _ = _meanfield_solution(cp, params, grid, 1.0 - init_infected)
    T = _f(cp, "grid", "T")
    snaps = np.linspace(0.0, T, n_snaps)

    # predicted bin masses: trapezoid of the density over each bin
    pred = {}
    for t in snaps:
        nu = dens.at_time(t)
        nxt = np.roll(nu, -1, axis=1)
        pred[t] = 0.5 * (nu + nxt) / M  # (k, M) masses

    spec, net = _network_from_config(cp, N=N, seed=seed, require_circle=True)
    trajs = _replica_trajectories(cp, net, params, grid, seed)
    devs = []
    for traj in trajs:
        worst = 0.0
        for t in snaps:
            occ = occupation_at(traj, t, bins=M)
            worst = max(worst, float(np.max(np.abs(occ.masses - pred[t]))))
        devs.append(worst)
    return float(np.median(devs)), devs


def cmd_compare(cp, out):
    man = Manifest(out, "compare", cp)
    sweep = [int(v) for v in cp.get("compare", "N_sweep").split(",")]
    seed = _i(cp, "run", "seed")
    rows = []
    for N in sweep:
        med, devs = compare_deviations(cp, N, seed)
        rows.append({"N": N, "median_sup_deviation": med, "replicas": devs})
    p = man.dir / "compare.json"
    p.write_text(json.dumps(rows, indent=2))
    man.add(p)
    man.write({"medians": {str(r["N"]): r["median_sup_deviation"] for r in rows}})
    return 0


def cmd_rate(cp, out):
    man = Manifest(out, "rate", cp)
    params = model_params(cp)
    grid = circle_grid(_i(cp, "grid", "M"))
    spec = graphon_spec(cp)
    init_infected = parse_profile(cp.get("model", "init"), grid,
                                  params=params, kernel=spec)
    dens, flux = _meanfield_solution(cp, params, grid, 1.0 - init_infected)
    T = _f(cp, "grid", "T")
    rates = sis_rates(params)
    g = rate_G(flux.densities, dens.values[0], grid, spec, rates, T, times=flux.times)
    act = sis_action(dens.state("S"), params, spec, grid, T)
    report = [
        {"name": "rate_G_meanfield_flux", "value": float(g),
         "grid": {"M": grid.M, "dt": dens.dt}, "tolerance": 1e-4},
        {"name": "sis_action_meanfield_path", "value": float(act),
         "grid": {"M": grid.M, "dt": dens.dt}, "tolerance": 1e-4},
    ]
    p = man.dir / "rate.json"
    p.write_text(json.dumps(report, indent=2))
    man.add(p)
    man.write()
    return 0


def cmd_action(cp, out):
    man = Manifest(out, "action", cp)
    params = model_params(cp)
    grid = circle_grid(_i(cp, "grid", "M"))
    spec = graphon_spec(cp)
    try:
        s0 = parse_profile(cp.get("action", "s0"), grid, params, spec)
        sT = parse_profile(cp.get("action", "sT"), grid, params, spec)
        problem = PathProblem(s0=s0, sT=sT, horizon=_f(cp, "grid", "T"),
                              K=_i(cp, "grid", "K"))
    except EndpointError as e:
        raise ConfigError(str(e)) from None
    opts = ActionOptions(max_iters=_i(cp, "action", "max_iters"),
                         tol_grad=_f(cp, "action", "tol_grad"))
    result = minimize_action(problem, params, spec, grid, opts)

    p = man.dir / "path.csv"
    with open(p, "w") as fh:
        fh.write("t,theta,s\n")
        times = np.linspace(0.0, problem.horizon, problem.K + 1)
        for n, t in enumerate(times):
            for i, th in enumerate(grid.nodes):
                fh.write(f"{float(t)!r},{float(th)!r},{float(result.path[n, i])!r}\n")
    man.add(p)

    res = el_residual(result.path, params, spec, grid, problem.horizon)
    p2 = man.dir / "el_residual.csv"
    with open(p2, "w") as fh:
        fh.write("t,theta,residual\n")
        times = np.linspace(0.0, problem.horizon, problem.K + 1)
        for n, t in enumerate(times[1:-1], start=1):
            for i, th in enumerate(grid.nodes):
                fh.write(f"{float(t)!r},{float(th)!r},{float(res[n, i])!r}\n")
    man.add(p2)

    diag = {k: v for k, v in result.diagnostics.items() if k != "action_history"}
    p3 = man.dir / "diagnostics.json"
    p3.write_text(json.dumps(diag, indent=2))
    man.add(p3)
    man.write({"action": result.action, "converged": result.diagnostics["converged"]})
    return 0 if result.diagnostics["converged"] else 3


def cmd_ldp_check(cp, out):
    """Exact Poisson-tail slope check for the uncoupled rate function."""
    man = Manifest(out, "ldp-check", cp)
    a = _f(cp, "ldp_check", "a")
    if a <= 1.0:
        raise ConfigError("tail level a must exceed 1")
    Ns = [int(v) for v in cp.get("ldp_check", "N_values").split(",")]
    limit = -float(ell(a))
    rows = []
    for N in Ns:
        k = int(np.ceil(a * N - 1e-12))
        slope = poisson_tail_log_prob(k, float(N)) / N
        rows.append({"N": N, "slope": slope, "limit": limit,
                     "gap": abs(slope - limit)})
    report = {"a": a, "rows": rows,
              "monotone": all(rows[i]["gap"] >= rows[i + 1]["gap"] for i in range(len(rows) - 1)),
              "final_gap": rows[-1]["gap"]}
    p = man.dir / "ldp_check.json"
    p.write_text(json.dumps(report, indent=2))
    man.add(p)
    man.write({"final_gap": rows[-1]["gap"]})
    return 0


COMMANDS = {
    "sample": cmd_sample,
    "simulate": cmd_simulate,
    "meanfield": cmd_meanfield,
    "compare": cmd_compare,
    "rate": cmd_rate,
    "action": cmd_action,
    "ldp-check": cmd_ldp_check,
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="graphonldp", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", default=None, help="INI config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="SECTION.KEY=VALUE", help="override a config entry")
    args = ap.parse_args(argv)

    try:
        cp = load_config(args.config, args.overrides)
        return COMMANDS[args.command](cp, args.out)
    except (ConfigError, GraphonError, ModelError, EndpointError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
