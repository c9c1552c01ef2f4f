"""Configuration-driven command-line pipeline.

Subcommands: sample, simulate, meanfield, compare, rate, action, ldp-check.
A single INI-style config file (key = value under [section] headers) feeds
every command; individual entries can be overridden on the command line
with repeated ``--set section.key=value`` flags.  All artifacts land under
--out with a manifest listing file hashes, and every run is deterministic
given (config, seed).

Exit codes: 0 success; 2 configuration error (a bad option, profile or
network file, a kernel off the circle outside ``sample``, or snapshots off
the mean-field time grid); 3 numerical failure (an exhausted event budget,
a non-finite rate, density normalization drift, an equilibrium relaxation
or an action solve that did not converge).
"""

from __future__ import annotations

import argparse
import configparser
import functools
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
                "beta_pl": "0.3"},
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


def _f(cp, sec, key, positive=False):
    """A finite float entry, above zero when ``positive``."""
    try:
        value = cp.getfloat(sec, key)
    except ValueError as e:
        raise ConfigError(f"[{sec}] {key}: {e}") from None
    if not np.isfinite(value) or (positive and value <= 0):
        need = "finite and positive" if positive else "finite"
        raise ConfigError(f"[{sec}] {key} must be {need}, got {value}")
    return value


def _i(cp, sec, key, least=None):
    """An integer entry, at least ``least`` when given."""
    try:
        value = cp.getint(sec, key)
    except ValueError as e:
        raise ConfigError(f"[{sec}] {key}: {e}") from None
    if least is not None and value < least:
        raise ConfigError(f"[{sec}] {key} must be at least {least}, got {value}")
    return value


def _sizes(cp, sec, key):
    """A comma-separated list of positive integers, such as N values."""
    text = cp.get(sec, key)
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: expected integers, got {text!r}") from None
    if min(values) < 1:
        raise ConfigError(f"[{sec}] {key}: entries must be positive, got {text!r}")
    return values


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
            spec = FAMILIES[fam](g("beta_pl"))
        spec.validate()
        return spec
    except GraphonError as e:
        raise ConfigError(str(e)) from None


def model_params(cp):
    return SisParams(beta=_f(cp, "model", "beta", positive=True),
                     alpha=_f(cp, "model", "alpha", positive=True))


def parse_profile(text, grid, equilibrium):
    """Profiles over the circle: equilibrium | uniform:c | cosine:b,a |
    bump:center,width,depth (a susceptible dip carved into equilibrium).

    ``equilibrium()`` returns the susceptible endemic profile; only the
    ``equilibrium`` and ``bump`` profiles call it, and both are susceptible
    profiles."""
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
        return equilibrium()
    if name == "bump":
        try:
            center, width, depth = (float(v) for v in rest.split(","))
        except ValueError:
            raise ConfigError(f"bad bump profile {text!r} "
                              "(expected bump:center,width,depth)") from None
        if width <= 0:
            raise ConfigError("bump width must be positive")
        d = np.abs(th - center)
        d = np.minimum(d, 2 * np.pi - d)
        return equilibrium() - depth * np.exp(-0.5 * (d / width) ** 2)
    raise ConfigError(f"unknown profile {text!r}")


def bernoulli_init(p_infected, positions, rng):
    """Independent per-node infected draws from a profile sampled at x_j."""
    probs = np.interp(positions, np.linspace(0, 2 * np.pi, len(p_infected) + 1)[:-1],
                      p_infected, period=2 * np.pi)
    return np.where(rng.random(len(positions)) < probs, 1, 0).astype(np.int64)


def _table(header, columns, line=None):
    """Lines of a table with one row per index of the equal-length ``columns``.

    Each row is ``line`` (default: the values joined by commas) filled with
    the column values, so floats appear as their repr; ``header``, when
    given, is the first line.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    line = (line or ",".join(["{}"] * len(columns))) + "\n"
    if header is not None:
        yield header + "\n"
    for lo in range(0, len(columns[0]), 65536):  # Python numbers one chunk at a time
        for row in zip(*(c[lo:lo + 65536].tolist() for c in columns)):
            yield line.format(*row)


def _long_columns(values, *axes):
    """Long format of an array: for each axis, its coordinate at every
    cell in C order, then the cell values."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")] + [np.ravel(values)]


class Manifest:
    def __init__(self, out_dir, command, cp):
        self.dir = Path(out_dir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"output directory not writable: {e}") from None
        self.data = {"command": command, "version": __version__,
                     "config": resolved_dict(cp), "artifacts": []}

    def add(self, name, text=None):
        """Record the artifact ``name`` in the output directory, first
        writing ``text`` to it when given, a string or an iterable of lines:
        the one writer of every artifact but the network file."""
        path = self.dir / name
        if text is not None:
            with open(path, "w") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.data["artifacts"].append({"path": name, "sha256": digest})

    def write(self, extra=None):
        if extra:
            self.data.update(extra)
        out = self.dir / "manifest.json"
        out.write_text(json.dumps(self.data, indent=2, sort_keys=True))
        return out


def _model(cp):
    """The inputs every model run shares, each built once: the graphon spec
    (validated once, and on the circle, where the grid and the epidemic
    profiles live), SisParams, circle grid, SIS rate family, and the
    susceptible endemic equilibrium, relaxed on its first use only."""
    spec = graphon_spec(cp)
    if spec.domain != "circle":
        raise ConfigError(
            f"family {spec.family!r} lives on {spec.domain!r}; the epidemic "
            "and continuum runs need a circle-domain kernel")
    params = model_params(cp)
    grid = circle_grid(_i(cp, "grid", "M", least=1))
    equilibrium = functools.cache(
        lambda: endemic_equilibrium(grid, spec, params.beta, params.alpha))
    return spec, params, grid, sis_rates(params), equilibrium


def _init_infected(cp, grid, equilibrium):
    """model.init as a per-node infected probability: uniform and cosine
    give it directly, equilibrium and bump are susceptible profiles and
    enter as 1 - s.  A probability outside [0, 1] raises ConfigError."""
    text = cp.get("model", "init")
    profile = parse_profile(text, grid, equilibrium)
    p = 1.0 - profile if text.partition(":")[0] in ("equilibrium", "bump") else profile
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ConfigError(f"model.init {text!r} gives an infected probability outside [0, 1]")
    return p


def _network(cp, spec, N, seed):
    if N < 2:
        raise ConfigError("need N >= 2")
    exponent = _f(cp, "graphon", "phi_exponent")
    if not (0.0 < exponent <= 1.0):
        raise ConfigError("phi_exponent must lie in (0, 1]: degree scale N^g")
    return sample_network(spec, N, density_from_degree_exponent(N, exponent), seed=seed)


def cmd_sample(cp, out):
    man = Manifest(out, "sample", cp)
    net = _network(cp, graphon_spec(cp), _i(cp, "graphon", "N"),
                   _i(cp, "run", "seed", least=0))
    write_network(man.dir / "network.txt", net)
    man.add("network.txt")
    man.write({"N": net.N, "phi_N": net.phi_N, "edges": int(len(net.rows))})
    return 0


def _replicas(cp):
    return _i(cp, "run", "replicas", least=1), _i(cp, "run", "threads", least=1)


def _one_replica(args):
    net, rates, init, T, rep_seed = args
    return simulate(net, rates, init, T, seed=rep_seed)


def _replica_trajectories(net, rates, init_infected, T, reps, threads, seed):
    """Simulate ``reps`` replicas from Bernoulli draws of ``init_infected``.

    Each replica gets its own RNG stream derived from (seed, replica id),
    so results are identical regardless of ``threads``; threads only
    parallelize across replicas.
    """
    streams = np.random.SeedSequence(seed).spawn(reps)
    jobs = []
    for stream in streams:
        init = bernoulli_init(init_infected, net.positions, np.random.default_rng(stream))
        jobs.append((net, rates, init, T, stream.spawn(1)[0]))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, reps)) as pool:
            return list(pool.map(_one_replica, jobs))
    return [_one_replica(job) for job in jobs]


def cmd_simulate(cp, out):
    man = Manifest(out, "simulate", cp)
    spec, _, grid, rates, equilibrium = _model(cp)
    seed = _i(cp, "run", "seed", least=0)
    net = _network(cp, spec, _i(cp, "graphon", "N"), seed)
    reps, threads = _replicas(cp)
    T = _f(cp, "grid", "T", positive=True)
    trajs = _replica_trajectories(net, rates, _init_infected(cp, grid, equilibrium), T,
                                  reps, threads, seed)
    edges = np.linspace(0.0, T, 11)
    bins = np.arange(grid.M)
    for r, traj in enumerate(trajs):
        labels = np.array([json.dumps(lab) for lab in traj.labels])
        man.add(f"trajectory_{r:03d}.jsonl", _table(
            None, [traj.times, traj.nodes, labels[traj.from_codes], labels[traj.to_codes]],
            line='{{"t": {}, "j": {}, "from": {}, "to": {}}}'))
        # window counts from cumulative counts at the edges; event times are
        # > 0, so the closed first window [0, t_1] needs no special case
        fx = extract_flux(traj)
        chans = sorted(fx.atoms)
        cum = np.array([[fx.channel_counts(a, b, grid.M, t_hi=t) for t in edges]
                        for a, b in chans]).reshape(len(chans), len(edges), grid.M)
        ch, win, col_bin, mass = _long_columns(np.diff(cum, axis=1) / traj.N,
                                               [f"{a}->{b}" for a, b in chans],
                                               np.arange(len(edges) - 1), bins)
        man.add(f"flux_{r:03d}.csv", _table("channel,bin,t_lo,t_hi,mass",
                                            [ch, col_bin, edges[:-1][win], edges[1:][win], mass]))
        occ = np.array([occupation_at(traj, t, bins=grid.M).masses for t in edges])
        col_t, lab, col_bin, mass = _long_columns(occ, edges, list(traj.labels), bins)
        man.add(f"occupation_{r:03d}.csv",
                _table("channel,bin,t_lo,t_hi,mass", [lab, col_bin, col_t, col_t, mass]))
    man.write({"replicas": len(trajs),
               "events": [int(t.n_events) for t in trajs]})
    return 0


def _meanfield_solution(grid, spec, rates, init_infected, T, steps):
    s0 = 1.0 - init_infected
    nu0 = np.stack([s0, 1.0 - s0])  # susceptible, infected
    return evolve(grid, spec, rates, nu0, T, dt=T / steps)


def cmd_meanfield(cp, out):
    man = Manifest(out, "meanfield", cp)
    spec, _, grid, rates, equilibrium = _model(cp)
    dens, flux = _meanfield_solution(grid, spec, rates, _init_infected(cp, grid, equilibrium),
                                     _f(cp, "grid", "T", positive=True),
                                     _i(cp, "grid", "steps", least=1))
    man.add("density.csv", _table("t,alpha,theta,value", _long_columns(
        dens.values, dens.times, list(dens.labels), grid.nodes)))
    chans = sorted(flux.densities)
    ch, t, th, value = _long_columns([flux.densities[c] for c in chans],
                                     [f"{a}->{b}" for a, b in chans], flux.times, grid.nodes)
    man.add("flux.csv", _table("t,channel,theta,value", [t, ch, th, value]))
    man.write()
    return 0


def compare_deviations(cp, N_sweep, seed):
    """For each N in ``N_sweep``: the median over replicas, and the
    replicas' values, of the sup-over-(state, bin, snapshot) gap between
    binned empirical occupation masses and the limiting solution.  The
    limiting solution and its predicted bin masses are computed once."""
    steps, n_snaps = _i(cp, "grid", "steps", least=1), _i(cp, "compare", "snapshots")
    if n_snaps < 2 or steps % (n_snaps - 1):
        raise ConfigError(
            f"compare.snapshots = {n_snaps} needs compare.snapshots - 1 to divide "
            f"grid.steps = {steps}, so that every snapshot is a mean-field grid time")
    spec, _, grid, rates, equilibrium = _model(cp)
    reps, threads = _replicas(cp)
    T = _f(cp, "grid", "T", positive=True)
    init_infected = _init_infected(cp, grid, equilibrium)
    dens, _ = _meanfield_solution(grid, spec, rates, init_infected, T, steps)
    snaps = np.linspace(0.0, T, n_snaps)

    # predicted bin masses: trapezoid of the density over each bin
    nu = np.array([dens.at_time(t) for t in snaps])  # (snapshots, k, M)
    pred = 0.5 * (nu + np.roll(nu, -1, axis=2)) / grid.M

    results = []
    for N in N_sweep:
        net = _network(cp, spec, N, seed)
        trajs = _replica_trajectories(net, rates, init_infected, T, reps, threads, seed)
        devs = [max(float(np.max(np.abs(occupation_at(traj, t, bins=grid.M).masses - p)))
                    for t, p in zip(snaps, pred))
                for traj in trajs]
        results.append((float(np.median(devs)), devs))
    return results


def cmd_compare(cp, out):
    man = Manifest(out, "compare", cp)
    sweep = _sizes(cp, "compare", "N_sweep")
    seed = _i(cp, "run", "seed", least=0)
    rows = [{"N": N, "median_sup_deviation": med, "replicas": devs}
            for N, (med, devs) in zip(sweep, compare_deviations(cp, sweep, seed))]
    man.add("compare.json", json.dumps(rows, indent=2))
    man.write({"medians": {str(r["N"]): r["median_sup_deviation"] for r in rows}})
    return 0


def cmd_rate(cp, out):
    man = Manifest(out, "rate", cp)
    spec, params, grid, rates, equilibrium = _model(cp)
    T = _f(cp, "grid", "T", positive=True)
    dens, flux = _meanfield_solution(grid, spec, rates, _init_infected(cp, grid, equilibrium),
                                     T, _i(cp, "grid", "steps", least=1))
    g = rate_G(flux.densities, dens.values[0], grid, spec, rates, T, times=flux.times)
    act = sis_action(dens.state("S"), params, spec, grid, T)
    report = [
        {"name": "rate_G_meanfield_flux", "value": float(g),
         "grid": {"M": grid.M, "dt": dens.dt}, "tolerance": 1e-4},
        {"name": "sis_action_meanfield_path", "value": float(act),
         "grid": {"M": grid.M, "dt": dens.dt}, "tolerance": 1e-4},
    ]
    man.add("rate.json", json.dumps(report, indent=2))
    man.write()
    return 0


def cmd_action(cp, out):
    man = Manifest(out, "action", cp)
    opts = ActionOptions(max_iters=_i(cp, "action", "max_iters", least=1),
                         tol_grad=_f(cp, "action", "tol_grad", positive=True))
    spec, params, grid, _, equilibrium = _model(cp)
    problem = PathProblem(s0=parse_profile(cp.get("action", "s0"), grid, equilibrium),
                          sT=parse_profile(cp.get("action", "sT"), grid, equilibrium),
                          horizon=_f(cp, "grid", "T", positive=True),
                          K=_i(cp, "grid", "K", least=3))
    result = minimize_action(problem, params, spec, grid, opts)

    times = np.linspace(0.0, problem.horizon, problem.K + 1)
    man.add("path.csv", _table("t,theta,s", _long_columns(result.path, times, grid.nodes)))
    res = el_residual(result.path, params, spec, grid, problem.horizon)
    man.add("el_residual.csv", _table("t,theta,residual",
                                      _long_columns(res[1:-1], times[1:-1], grid.nodes)))

    diag = {k: v for k, v in result.diagnostics.items() if k != "action_history"}
    man.add("diagnostics.json", json.dumps(diag, indent=2))
    man.write({"action": result.action, "converged": result.diagnostics["converged"]})
    return 0 if result.diagnostics["converged"] else 3


def cmd_ldp_check(cp, out):
    """Exact Poisson-tail slope check for the uncoupled rate function."""
    man = Manifest(out, "ldp-check", cp)
    a = _f(cp, "ldp_check", "a")
    if a <= 1.0:
        raise ConfigError("tail level a must exceed 1")
    Ns = _sizes(cp, "ldp_check", "N_values")
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
    man.add("ldp_check.json", json.dumps(report, indent=2))
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
