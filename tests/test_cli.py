import functools
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphonldp import cli
from graphonldp.action_path import el_residual
from graphonldp.cli import main
from graphonldp.graphon import FAMILIES, read_network
from graphonldp.simulator import bin_index, occupation_at


def run(tmp_path, command, *overrides, config=None, out=None):
    out = out or (tmp_path / f"out_{command.replace('-', '_')}_{len(overrides)}")
    argv = [command, "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    for ov in overrides:
        argv += ["--set", ov]
    return main(argv), out


def check_artifacts(out):
    """The checks every output directory passes; returns its parsed JSON files.

    Every JSON file parses strictly (a bare NaN or Infinity raises), and
    every artifact manifest.json lists has the sha256 recorded there.  An
    action run's el_residual_max is the largest |residual| of
    el_residual.csv, NaN ignored (null when every cell is NaN).
    read_network gives back the triples network.txt lists, in the file's
    order, as many as the manifest's edge count.
    """
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    parsed = {f.name: json.loads(f.read_text(), parse_constant=reject)
              for f in sorted(out.glob("*.json"))}
    artifacts = parsed["manifest.json"]["artifacts"]
    assert artifacts
    for a in artifacts:
        digest = hashlib.sha256((out / a["path"]).read_bytes()).hexdigest()
        assert digest == a["sha256"], a["path"]
    if (out / "el_residual.csv").exists():
        res = np.loadtxt(out / "el_residual.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
        largest = None if np.all(np.isnan(res)) else float(np.nanmax(np.abs(res)))
        assert parsed["diagnostics.json"]["el_residual_max"] == largest
    if (out / "network.txt").exists():
        net = read_network(out / "network.txt")
        lines = (out / "network.txt").read_text().splitlines()[1:]
        triples = np.array([line.split() for line in lines], dtype=np.int64).reshape(-1, 3)
        assert len(triples) == parsed["manifest.json"]["edges"]
        assert net.N == int(parsed["manifest.json"]["config"]["graphon"]["n"])
        assert np.array_equal(np.column_stack([net.rows, net.cols, net.weights]), triples)
    return parsed


class TestConfig:
    def test_missing_config_file(self, tmp_path):
        code, _ = run(tmp_path, "sample", config=tmp_path / "nope.ini")
        assert code == 2

    def test_bad_override_shape(self, tmp_path):
        code, _ = run(tmp_path, "sample", "bogus")
        assert code == 2

    def test_out_under_a_regular_file_rejected(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, _ = run(tmp_path, "ldp-check", out=tmp_path / "file" / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory not writable")
        assert "Traceback" not in err

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[graphon]\nfamily = constant\nN = 40\nlevel = 0.5\n")
        code, out = run(tmp_path, "sample", "run.seed=5", config=cfg)
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["graphon"]["n"] == "40"
        assert man["config"]["run"]["seed"] == "5"

    @pytest.mark.parametrize("overrides, text, entry", [
        (["ldp_check.aa=3"], None, "[ldp_check] aa"),
        (["nosuch.key=1"], None, "[nosuch]"),
        ([], "[ldp_check]\nN_valus = 10,20\n", "[ldp_check] n_valus"),
    ], ids=["unknown-key", "unknown-section", "misspelt-key-in-file"])
    def test_unknown_entry_rejected(self, tmp_path, capsys, overrides, text, entry):
        # a misspelt key or an unknown section is an error, not ignored
        cfg = None
        if text is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(text)
        code, _ = run(tmp_path, "ldp-check", *overrides, config=cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config") and entry in err

    @pytest.mark.parametrize("command, overrides, text, entry", [
        ("ldp-check", ["ldp_check.a=50%"], None, "[ldp_check] a"),
        ("simulate", ["graphon.N=50"], "[model]\ninit = uniform:3%\n", "uniform:3%"),
    ], ids=["set", "config-file"])
    def test_percent_is_a_literal_character(self, tmp_path, capsys, command, overrides,
                                            text, entry):
        # '%' is no interpolation syntax: a bad value gets the value check's exit 2
        cfg = None
        if text is not None:
            cfg = tmp_path / "run.ini"
            cfg.write_text(text)
        code, _ = run(tmp_path, command, *overrides, config=cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and entry in err

class TestSample:
    def test_header_and_manifest(self, tmp_path):
        code, out = run(tmp_path, "sample", "graphon.family=constant",
                        "graphon.N=30", "graphon.level=0.8")
        assert code == 0
        head = (out / "network.txt").read_text().splitlines()[0].split()
        assert head[0] == "30" and head[3] == "constant"
        man = json.loads((out / "manifest.json").read_text())
        assert man["artifacts"][0]["path"] == "network.txt"
        assert len(man["artifacts"][0]["sha256"]) == 64

    def test_same_seed_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "sample", "graphon.N=50", out=tmp_path / "a")
        _, out2 = run(tmp_path, "sample", "graphon.N=50", out=tmp_path / "b")
        assert (out1 / "network.txt").read_bytes() == (out2 / "network.txt").read_bytes()

    def test_power_law_domain_validation(self, tmp_path):
        code, _ = run(tmp_path, "sample", "graphon.family=power-law",
                      "graphon.beta_pl=1.2")
        assert code == 2

    def test_n_too_small(self, tmp_path):
        code, _ = run(tmp_path, "sample", "graphon.N=1")
        assert code == 2

    @pytest.mark.parametrize("family", ["power-law", "small-world"])
    def test_network_file_reads_back(self, tmp_path, family):
        # the default kernel walks its rows at a constant envelope (its run is
        # TestNumpyOnlyRuntime's), the power law at a moving one; small-world
        # is the piecewise-constant kernel
        code, out = run(tmp_path, "sample", "graphon.N=200", f"graphon.family={family}")
        assert code == 0
        check_artifacts(out)

    def test_power_law_rejected_for_epidemic_runs(self, tmp_path):
        # the unit-interval family can be sampled but not fed to the
        # circle-domain epidemic and continuum pipeline
        code, _ = run(tmp_path, "sample", "graphon.family=power-law",
                      "graphon.N=50", "graphon.phi_exponent=0.5")
        assert code == 0
        for command in ("simulate", "meanfield", "compare", "rate", "action"):
            code, _ = run(tmp_path, command, "graphon.family=power-law", "graphon.N=50",
                          "grid.M=16", "grid.T=0.1", "grid.steps=100", "compare.N_sweep=50")
            assert code == 2, command


class TestSimulateAndMeanfield:
    def test_simulate_artifacts(self, tmp_path):
        code, out = run(tmp_path, "simulate", "graphon.N=60", "grid.T=0.5",
                        "grid.M=8", "run.replicas=2")
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        names = {a["path"] for a in man["artifacts"]}
        assert "trajectory_000.jsonl" in names and "flux_001.csv" in names

    def test_meanfield_artifacts(self, tmp_path):
        code, out = run(tmp_path, "meanfield", "grid.M=8", "grid.T=0.5",
                        "grid.steps=100")
        assert code == 0
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "t,alpha,theta,value"

    def test_equilibrium_init_is_stationary(self, tmp_path):
        # model.init=equilibrium is the endemic state (S = 1/3 at beta=3),
        # not its mirror 1 - s*, so the mean field does not move
        code, out = run(tmp_path, "meanfield", "model.beta=3", "model.init=equilibrium",
                        "grid.M=16", "grid.T=2", "grid.steps=400")
        assert code == 0
        table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1, dtype=str)
        s = table[table[:, 1] == "S", 3].astype(float).reshape(-1, 16)
        assert np.max(np.abs(s[-1] - s[0])) <= 1e-6
        assert np.allclose(s[0], 1.0 / 3.0, atol=1e-9)


class TestArtifacts:
    """The table artifacts: headers, row counts and values read back."""

    def test_density_csv_header(self, tmp_path):
        code, out = run(tmp_path, "meanfield", "grid.M=4", "grid.T=0.1", "grid.steps=2")
        assert code == 0
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "t,alpha,theta,value"
        assert len(lines) == 1 + 3 * 2 * 4
        assert (out / "flux.csv").read_text().splitlines()[0] == "t,channel,theta,value"

    def test_tables_read_back_exactly(self, tmp_path):
        # row order (time, state, node) and repr floats: the file gives back
        # the solver's numbers bit for bit
        code, out = run(tmp_path, "meanfield", "grid.M=4", "grid.T=0.1", "grid.steps=2",
                        "model.init=cosine:0.3,0.15")
        assert code == 0
        cp = cli.load_config(None, ["model.init=cosine:0.3,0.15"])
        grid = cli.circle_grid(4)
        p = cli.parse_profile("cosine:0.3,0.15", grid, None)
        dens, flux = cli._meanfield_solution(grid, cli.graphon_spec(cp),
                                             cli.sis_rates(cli.model_params(cp)), p, 0.1, 2)
        for name, want in (("density.csv", dens.values),
                           ("flux.csv", np.stack([flux.densities[("I", "S")],
                                                  flux.densities[("S", "I")]]))):
            got = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=3)
            assert np.array_equal(got, want.ravel()), name
        t, theta = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1,
                              usecols=(0, 2), unpack=True)
        assert np.array_equal(t, np.repeat(dens.times, 8))
        assert np.array_equal(theta, np.tile(grid.nodes, 6))

    def test_jsonl_export(self, tmp_path):
        code, out = run(tmp_path, "simulate", "graphon.family=constant", "graphon.N=50",
                        "grid.T=1", "grid.M=4", "run.replicas=1")
        assert code == 0
        events = json.loads((out / "manifest.json").read_text())["events"][0]
        lines = [json.loads(l) for l in (out / "trajectory_000.jsonl").read_text().splitlines()]
        assert len(lines) == events > 0
        assert set(lines[0]) == {"t", "j", "from", "to"}
        assert {l["from"] for l in lines} <= {"S", "I"}

    def test_flux_csv_format(self, tmp_path):
        code, out = run(tmp_path, "simulate", "graphon.family=constant", "graphon.N=50",
                        "grid.T=1", "grid.M=4", "run.replicas=1")
        assert code == 0
        events = json.loads((out / "manifest.json").read_text())["events"][0]
        lines = (out / "flux_000.csv").read_text().splitlines()
        assert lines[0] == "channel,bin,t_lo,t_hi,mass"
        total = sum(float(l.split(",")[-1]) for l in lines[1:])
        assert total == pytest.approx(events / 50)

    def test_occupation_csv_is_numeric(self, tmp_path):
        # masses are plain floats: the states' masses at each time sum to one
        code, out = run(tmp_path, "simulate", "graphon.N=60", "grid.T=0.5", "grid.M=8",
                        "run.replicas=1")
        assert code == 0
        t_lo, mass = np.loadtxt(out / "occupation_000.csv", delimiter=",", skiprows=1,
                                usecols=(2, 4), unpack=True)
        assert len(mass) == 11 * 2 * 8
        assert np.allclose(mass.reshape(11, 16).sum(axis=1), 1.0)
        assert np.array_equal(t_lo.reshape(11, 16)[:, 0], np.linspace(0.0, 0.5, 11))

    def test_replica_without_events_writes_header_only_flux(self, tmp_path):
        # no node starts infected, so nothing ever happens: the flux table
        # has no channel and holds its header alone
        code, out = run(tmp_path, "simulate", "model.init=uniform:0", "graphon.N=50",
                        "grid.M=4", "run.replicas=1")
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["events"] == [0]
        assert (out / "trajectory_000.jsonl").read_text() == ""
        assert (out / "flux_000.csv").read_text() == "channel,bin,t_lo,t_hi,mass\n"
        mass = np.loadtxt(out / "occupation_000.csv", delimiter=",", skiprows=1, usecols=4)
        assert np.array_equal(mass.reshape(11, 2, 4).sum(axis=2), np.tile([1.0, 0.0], (11, 1)))

    def test_every_table_line_matches_a_naive_writer(self, tmp_path):
        # every CSV and JSONL line equals one written row by row from the
        # arrays, floats as their repr and rows in the arrays' C order:
        # flux.csv runs channel, time, node with t in its first column, and
        # an occupation row holds a state, a bin and its snapshot time twice
        def line(*cells):
            return ",".join(repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)
                            for c in cells)

        def check(out, name, header, rows):
            assert (out / name).read_text().splitlines() == [header] * bool(header) + rows, name

        chans = [("I", "S"), ("S", "I")]
        overrides = ["grid.M=4", "grid.steps=2"]
        assert run(tmp_path, "meanfield", *overrides, out=tmp_path / "mf")[0] == 0
        cp = cli.load_config(None, overrides)
        spec, params, grid, rates, eq = cli._model(cp)
        dens, flux = cli._meanfield_solution(grid, spec, rates,
                                             cli._init_infected(cp, grid, eq), 5.0, 2)
        th = grid.nodes
        check(tmp_path / "mf", "density.csv", "t,alpha,theta,value",
              [line(t, lab, th[m], dens.values[i, a, m]) for i, t in enumerate(dens.times)
               for a, lab in enumerate(dens.labels) for m in range(4)])
        assert sorted(flux.densities) == chans
        check(tmp_path / "mf", "flux.csv", "t,channel,theta,value",
              [line(t, f"{a}->{b}", th[m], flux.densities[a, b][i, m]) for a, b in chans
               for i, t in enumerate(flux.times) for m in range(4)])

        overrides = ["graphon.N=50", "grid.M=4", "run.replicas=1"]
        assert run(tmp_path, "simulate", *overrides, out=tmp_path / "sim")[0] == 0
        cp = cli.load_config(None, overrides)
        spec, params, grid, rates, eq = cli._model(cp)
        traj, = cli._replica_trajectories(cli._network(cp, spec, 50, 7), rates,
                                          cli._init_infected(cp, grid, eq), 5.0, 1, 1, 7)
        lab = np.array(traj.labels)
        src, dst = lab[traj.from_codes], lab[traj.to_codes]
        check(tmp_path / "sim", "trajectory_000.jsonl", None,
              [f'{{"t": {line(t)}, "j": {j}, "from": "{a}", "to": "{b}"}}'
               for t, j, a, b in zip(traj.times, traj.nodes, src, dst)])
        edges = np.linspace(0.0, 5.0, 11)
        bins = bin_index(traj.positions[traj.nodes], 4)
        assert all(np.any((src == a) & (dst == b)) for a, b in chans)
        check(tmp_path / "sim", "flux_000.csv", "channel,bin,t_lo,t_hi,mass",
              [line(f"{a}->{b}", m, lo, hi, np.sum((src == a) & (dst == b) & (bins == m)
                                                   & (traj.times > lo) & (traj.times <= hi)) / 50)
               for a, b in chans for lo, hi in zip(edges[:-1], edges[1:]) for m in range(4)])
        check(tmp_path / "sim", "occupation_000.csv", "channel,bin,t_lo,t_hi,mass",
              [line(lab[a], m, t, t, occupation_at(traj, t, bins=4).masses[a, m])
               for t in edges for a in range(2) for m in range(4)])

        overrides = ["grid.M=8", "grid.K=10"]
        assert run(tmp_path, "action", *overrides, out=tmp_path / "act")[0] == 0
        spec, params, grid, rates, eq = cli._model(cli.load_config(None, overrides))
        problem = cli.PathProblem(s0=cli.parse_profile("equilibrium", grid, eq),
                                  sT=cli.parse_profile("bump:3.14159,0.8,0.2", grid, eq),
                                  horizon=5.0, K=10)
        path = cli.minimize_action(problem, params, spec, grid,
                                   cli.ActionOptions(max_iters=20000, tol_grad=1e-6)).path
        res = el_residual(path, params, spec, grid, 5.0)
        times = np.linspace(0.0, 5.0, 11)
        check(tmp_path / "act", "path.csv", "t,theta,s",
              [line(times[k], grid.nodes[m], path[k, m]) for k in range(11) for m in range(8)])
        check(tmp_path / "act", "el_residual.csv", "t,theta,residual",
              [line(times[k], grid.nodes[m], res[k, m]) for k in range(1, 10) for m in range(8)])


class TestCompare:
    def test_zero_replicas_rejected(self, tmp_path):
        code, _ = run(tmp_path, "compare", "run.replicas=0",
                      "compare.N_sweep=40")
        assert code == 2

    def test_pure_death_binomial_scale(self, tmp_path):
        # beta -> 0 limit: independent recoveries; the sup-bin gap against
        # the closed-form limit sits on the binomial fluctuation scale
        N, M = 1000, 16
        code, out = run(tmp_path, "compare", "model.beta=1e-9",
                        f"compare.N_sweep={N}", "run.replicas=6",
                        "grid.T=1.0", f"grid.M={M}", "grid.steps=400",
                        "compare.snapshots=6", "model.init=uniform:0.3")
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        med = man["medians"][str(N)]
        sigma = 1.0 / (2.0 * np.sqrt(N * M))
        assert med <= 6 * sigma
        assert med > sigma / 20  # not degenerate either

    def test_deviation_shrinks_with_n(self, tmp_path):
        code, out = run(tmp_path, "compare", "compare.N_sweep=100,400",
                        "run.replicas=6", "grid.T=1.0", "grid.M=8",
                        "grid.steps=200", "compare.snapshots=6")
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["medians"]["400"] < man["medians"]["100"]

    def test_mean_field_solved_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        evolve = cli.evolve
        monkeypatch.setattr(cli, "evolve", lambda *a, **k: calls.append(1) or evolve(*a, **k))
        code, _ = run(tmp_path, "compare", "compare.N_sweep=40,60", "run.replicas=2",
                      "grid.T=0.5", "grid.M=8", "grid.steps=100", "compare.snapshots=5")
        assert code == 0
        assert len(calls) == 1

    def test_thread_count_does_not_change_results(self, tmp_path):
        # per-replica RNG streams: --threads is a throughput knob only
        base = ["compare.N_sweep=120", "run.replicas=4", "grid.T=0.5",
                "grid.M=8", "grid.steps=100", "compare.snapshots=5"]
        _, out1 = run(tmp_path, "compare", *base, "run.threads=1",
                      out=tmp_path / "t1")
        _, out2 = run(tmp_path, "compare", *base, "run.threads=2",
                      out=tmp_path / "t2")
        m1 = json.loads((out1 / "compare.json").read_text())
        m2 = json.loads((out2 / "compare.json").read_text())
        assert m1 == m2

    def test_snapshots_off_the_time_grid_rejected(self, tmp_path, capsys):
        # 7 snapshots on [0, 0.5] fall every 1/12, off the 100-step grid
        code, _ = run(tmp_path, "compare", "grid.T=0.5", "grid.steps=100",
                      "compare.snapshots=7", "compare.N_sweep=40")
        assert code == 2
        err = capsys.readouterr().err
        assert "grid.steps" in err and "compare.snapshots" in err

    @staticmethod
    def serial_pool(monkeypatch):
        """Replace the process pool by one that maps in this process and
        records each pool's max_workers: no process is started."""
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return sizes

    def test_pool_size_capped_by_replicas(self, monkeypatch):
        sizes = self.serial_pool(monkeypatch)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 16)
        cp = cli.load_config(None, ["graphon.N=30"])
        spec, _, grid, rates, _ = cli._model(cp)
        net = cli._network(cp, spec, 30, 1)
        trajs = cli._replica_trajectories(net, rates, np.full(grid.M, 0.3), 0.1,
                                          reps=2, threads=16, seed=1)
        assert len(trajs) == 2 and sizes == [2]

    def test_pool_size_capped_by_cpus(self, monkeypatch):
        # run.threads=10000 asked for 10,000 processes at once; the pool now
        # has at most one worker per CPU, and the replicas are the serial run's
        cp = cli.load_config(None, ["graphon.N=30"])
        spec, _, grid, rates, _ = cli._model(cp)
        net = cli._network(cp, spec, 30, 1)
        args = (net, rates, np.full(grid.M, 0.3), 0.1)
        serial = cli._replica_trajectories(*args, reps=5, threads=1, seed=1)
        assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)
        sizes = self.serial_pool(monkeypatch)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        pooled = cli._replica_trajectories(*args, reps=5, threads=10_000, seed=1)
        assert sizes == [3] and len(pooled) == len(serial) == 5
        fields = ("initial", "times", "nodes", "from_codes", "to_codes")
        assert sum(t.n_events for t in serial) > 0
        for a, b in zip(serial, pooled):
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)

    def test_network_sent_once_per_worker(self, monkeypatch):
        # one chunk of jobs per worker, and a chunk pickles the network once:
        # a worker's replicas share one copy, whose index the first one builds
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched simulate reaches the workers only by fork")

        def first_use(net, *args, **kwargs):
            cold = "_in_index" not in vars(net)
            net._in_index
            return cold

        monkeypatch.setattr(cli, "simulate", first_use)
        cp = cli.load_config(None, ["graphon.N=30"])
        spec, _, grid, rates, _ = cli._model(cp)
        net = cli._network(cp, spec, 30, 1)
        cold = cli._replica_trajectories(net, rates, np.full(grid.M, 0.3), 0.1,
                                         reps=6, threads=2, seed=1)
        assert len(cold) == 6 and 1 <= sum(cold) <= 2


class TestInputErrors:
    @pytest.mark.parametrize("command, init", [("simulate", "uniform:1.7"),
                                               ("meanfield", "uniform:1.5"),
                                               ("meanfield", "cosine:0.5,0.6")])
    def test_init_profile_outside_unit_interval(self, tmp_path, capsys, command, init):
        code, _ = run(tmp_path, command, f"model.init={init}", "graphon.N=40",
                      "run.replicas=1", "grid.M=8", "grid.T=0.1", "grid.steps=10")
        assert code == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting", [("compare", "compare.N_sweep=abc"),
                                                  ("ldp-check", "ldp_check.N_values=10,x"),
                                                  ("ldp-check", "ldp_check.N_values=0,10")])
    def test_malformed_size_list(self, tmp_path, capsys, command, setting):
        code, _ = run(tmp_path, command, setting)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


    @pytest.mark.parametrize("command, setting", [
        ("meanfield", "grid.steps=0"), ("rate", "grid.steps=0"), ("meanfield", "grid.M=0"),
        ("rate", "grid.M=0"), ("meanfield", "grid.M=-3"), ("action", "grid.K=2"),
        ("action", "grid.T=0"), ("meanfield", "grid.T=-1"), ("rate", "grid.T=-1"),
        *[(c, f"grid.T={v}") for c in ("simulate", "meanfield", "compare", "rate", "action")
          for v in ("nan", "inf")],
        ("sample", "run.seed=-1"), ("simulate", "run.seed=-1"), ("compare", "run.seed=-1"),
        ("simulate", "run.threads=0"),
        ("ldp-check", "ldp_check.a=nan"), ("ldp-check", "ldp_check.a=inf"),
        *[(c, f"grid.T={v}") for c in ("meanfield", "rate", "compare", "action")
          for v in ("5e-324", "1e-320")]])
    def test_out_of_range_number(self, tmp_path, capsys, command, setting):
        code, _ = run(tmp_path, command, setting, "graphon.N=40", "run.replicas=1",
                      "compare.N_sweep=40")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


    @pytest.mark.parametrize("command, setting, message", [
        ("sample", "graphon.family=nope", "unknown graphon family 'nope'"),
        ("meanfield", "model.init=cosine:0.5", "bad cosine profile 'cosine:0.5'"),
        ("meanfield", "model.init=bump:3.1,0,0.1", "bump width must be positive"),
        ("action", "action.s0=bump:3.1,-1,0.1", "bump width must be positive"),
        ("meanfield", "model.init=wobble", "unknown profile 'wobble'"),
        ("sample", "graphon.phi_exponent=1.5", "phi_exponent must lie in (0, 1]"),
        ("sample", "graphon.phi_exponent=0", "phi_exponent must lie in (0, 1]"),
        ("meanfield", "grid.M=8.5", "[grid] M: invalid literal for int()"),
        ("action", "action.sT=equilibrium:junk", "bad equilibrium profile 'equilibrium:junk'"),
        ("meanfield", "model.init=bump:1,2", "bad bump profile 'bump:1,2'"),
    ], ids=["family", "cosine-profile", "bump-width", "bump-width-action", "profile",
            "phi-exponent-high", "phi-exponent-zero", "non-integer-M", "equilibrium-suffix",
            "bump-two-fields"])
    def test_bad_model_setting_named(self, tmp_path, capsys, command, setting, message):
        # the setting comes last, so that it overrides the small sizes
        code, _ = run(tmp_path, command, "graphon.N=40", "grid.M=8", "grid.steps=10", setting)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and "Traceback" not in err

    def test_bump_centre_wraps_around_the_circle(self):
        # the dip repeats every 2 pi: the distance to the centre wraps
        grid = cli.circle_grid(16)
        base = functools.partial(np.full, 16, 0.9)
        far = cli.parse_profile("bump:10,0.8,0.2", grid, base)
        near = cli.parse_profile(f"bump:{10 - 2 * np.pi!r},0.8,0.2", grid, base)
        assert np.max(np.abs(far - near)) <= 1e-12

    @pytest.mark.parametrize("command, setting", [
        ("meanfield", "model.init=bump:inf,0.8,0.2"), ("rate", "model.init=bump:1,nan,0.2"),
        ("action", "action.s0=bump:1,0.8,inf"), ("action", "action.sT=bump:-inf,0.8,0.2"),
        ("rate", "model.init=bump:inf,0.8,0.2"), ("action", "action.sT=bump:inf,0.8,0.2")])
    def test_non_finite_bump_parameter_rejected(self, tmp_path, capsys, command, setting):
        # an infinite centre reached the circle distance's remainder, an invalid value
        code, _ = run(tmp_path, command, "grid.M=8", "grid.steps=10", "grid.K=10", setting)
        assert code == 2
        err = capsys.readouterr().err
        assert "needs a finite center, width and depth" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, setting, message", [
        ("simulate", "model.init=cosine:1e308,1e308", "outside [0, 1]"),
        ("compare", "model.init=cosine:1e308,-1e308", "outside [0, 1]"),
        ("action", "action.s0=cosine:1e308,1e308", "initial endpoint must satisfy 0 < s < 1"),
        ("action", "action.sT=cosine:inf,-inf", "final endpoint must satisfy 0 < s < 1")])
    def test_overflowing_cosine_profile_rejected(self, tmp_path, capsys, command, setting,
                                                 message):
        # base + amplitude cos overflowed with a numpy warning (an error here)
        # before the range check saw the infinite profile
        code, _ = run(tmp_path, command, "graphon.N=40", "run.replicas=1", "grid.M=8",
                      "grid.T=0.5", "grid.steps=10", "grid.K=10", "compare.N_sweep=40",
                      "compare.snapshots=6", setting)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("command, setting", [
        ("meanfield", "model.init=bump:3.14159,1e-300,0.2"),
        ("rate", "model.init=bump:3.14159,1e-300,0.2"),
        ("action", "action.s0=bump:3.14159,1e-300,0.2"),
        ("action", "action.sT=bump:3.14159,1e-300,0.2")])
    def test_bump_far_narrower_than_the_grid_runs(self, tmp_path, capsys, command, setting):
        # (d / width)^2 overflowed in the Gaussian: a RuntimeWarning, an error here
        code, _ = run(tmp_path, command, "grid.M=8", "grid.steps=10", "grid.K=10", setting)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_width_bump_dips_only_at_its_centre(self):
        grid = cli.circle_grid(16)
        base = functools.partial(np.full, 16, 0.9)
        wide = cli.parse_profile("bump:3.1,0.8,0.2", grid, base)
        d = cli.circle_distance(grid.nodes, 3.1)
        assert np.array_equal(wide, 0.9 - 0.2 * np.exp(-0.5 * (d / 0.8) ** 2))
        for width in ("1e-300", "5e-324"):
            assert np.array_equal(cli.parse_profile(f"bump:3.1,{width},0.2", grid, base), base())
            dip = cli.parse_profile(f"bump:{float(grid.nodes[5])!r},{width},0.2", grid, base)
            assert dip[5] == 0.9 - 0.2 and np.array_equal(np.delete(dip, 5), np.full(15, 0.9))


class TestRate:
    def test_report_structure(self, tmp_path):
        code, out = run(tmp_path, "rate", "grid.M=16", "grid.T=1.0",
                        "grid.steps=400")
        assert code == 0
        rep = json.loads((out / "rate.json").read_text())
        names = {r["name"] for r in rep}
        assert names == {"rate_G_meanfield_flux", "sis_action_meanfield_path"}
        for r in rep:
            assert r["value"] < r["tolerance"]
            assert set(r["grid"]) == {"M", "dt"}

    def test_two_time_slices_rejected(self, tmp_path, capsys):
        # one step gives sis_action two slices where it needs three: it raised
        # ValueError (exit 1); meanfield still runs at one step
        code, _ = run(tmp_path, "rate", "grid.M=8", "grid.steps=1")
        assert code == 2
        err = capsys.readouterr().err
        assert "[grid] steps must be at least 2, got 1" in err and "Traceback" not in err
        assert run(tmp_path, "meanfield", "grid.M=8", "grid.steps=1")[0] == 0

    def test_infinite_rate_written_as_strict_json(self, tmp_path, monkeypatch):
        # the +inf marker of rate_G becomes null in rate.json; no JSON file of
        # the run holds a bare NaN or Infinity
        from graphonldp.rate_function import RateValue

        monkeypatch.setattr(cli, "rate_G", lambda *a, **k: RateValue(np.inf, finite=False,
                                                                     where=("occupation", 0, 0)))
        code, out = run(tmp_path, "rate", "grid.M=8", "grid.T=0.5", "grid.steps=50")
        assert code == 0
        parsed = check_artifacts(out)
        assert sorted(parsed) == ["manifest.json", "rate.json"]
        values = {r["name"]: r["value"] for r in parsed["rate.json"]}
        assert values["rate_G_meanfield_flux"] is None
        assert 0.0 <= values["sis_action_meanfield_path"] < 1e-4


class TestAction:
    def test_equilibrium_to_equilibrium(self, tmp_path):
        code, out = run(tmp_path, "action", "graphon.family=constant",
                        "graphon.level=1.0", "grid.M=12", "grid.K=30",
                        "grid.T=1.0", "action.s0=equilibrium",
                        "action.sT=equilibrium", "action.tol_grad=1e-7")
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["action"] < 1e-10
        assert diag["converged"]
        assert "cg_iters" in diag and "grad_evals" in diag
        assert diag["grad_evals"] > diag["cg_iters"]
        assert (out / "path.csv").exists() and (out / "el_residual.csv").exists()

    def test_bump_positive_action(self, tmp_path):
        code, out = run(tmp_path, "action", "graphon.family=constant",
                        "graphon.level=1.0", "grid.M=12", "grid.K=30",
                        "grid.T=1.0", "action.sT=bump:3.14,0.7,0.15")
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["action"] > 1e-4

    def test_equilibrium_relaxed_once_for_both_endpoints(self, tmp_path, monkeypatch):
        calls = []
        relax = cli.endemic_equilibrium
        monkeypatch.setattr(cli, "endemic_equilibrium",
                            lambda *a, **k: calls.append(1) or relax(*a, **k))
        code, _ = run(tmp_path, "action", "graphon.family=constant", "graphon.level=1.0",
                      "grid.M=12", "grid.K=30", "grid.T=1.0", "action.s0=equilibrium",
                      "action.sT=bump:3.14,0.7,0.15")
        assert code == 0
        assert len(calls) == 1

    def test_malformed_preset_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "action", "action.sT=bump:oops")
        assert code == 2

    def test_infeasible_endpoint_rejected(self, tmp_path, capsys):
        # NaN fails both comparisons of a range check: it gave a traceback
        for s0 in ("0.0", "nan"):
            code, _ = run(tmp_path, "action", f"action.s0=uniform:{s0}")
            assert code == 2
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("sT, expected", [("0.2", 2), ("0.3", 3), ("0.4", 0)])
    def test_zero_field_ends_with_a_message(self, tmp_path, capsys, sT, expected):
        # lam = 0: falling is impossible (exit 2), staying put is the only
        # finite path, whose gradient is not finite (exit 3), and rising
        # converges (exit 0)
        code, _ = run(tmp_path, "action", "graphon.family=constant", "graphon.level=0",
                      "grid.M=8", "grid.K=10", "action.s0=uniform:0.3", f"action.sT=uniform:{sT}")
        assert code == expected
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith({2: "config error:", 3: "not converged:", 0: ""}[expected])

    def test_non_finite_gradient_stops_the_solve(self, tmp_path, capsys):
        # lam = 0 and s0 = sT: every cell has B = 0 and the gradient is NaN, so
        # the solve stops at once and writes the NaN numbers as strict JSON
        code, out = run(tmp_path, "action", "graphon.family=constant", "graphon.level=0",
                        "grid.M=8", "grid.K=10", "action.s0=uniform:0.3", "action.sT=uniform:0.3")
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite gradient" in err and "Traceback" not in err
        diag = check_artifacts(out)["diagnostics.json"]
        assert diag["grad_norm"] is None and diag["el_residual_max"] is None
        assert diag["iters"] == 0 and diag["grad_evals"] == 1

    def test_horizon_near_the_float_range_stops_without_a_trial_step(self, tmp_path, capsys):
        # at dt ~ 1e307 the preconditioner overflows: its NaN direction once had a
        # line-search trial leave the box, and _sis_split raised (exit 1)
        code, out = run(tmp_path, "action", "grid.T=1e308", "grid.M=8", "grid.K=10")
        assert code == 3
        err = capsys.readouterr().err
        assert "(non-finite Newton direction)" in err and "Traceback" not in err
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["iters"] == 0 and diag["grad_evals"] == 1 and diag["converged"] is False

    @pytest.mark.parametrize("command, sizes", [("rate", ("grid.M=8", "grid.steps=50")),
                                                ("action", ("grid.M=8", "grid.K=10"))])
    def test_velocity_overflow_is_named(self, tmp_path, capsys, command, sizes):
        # at T = 1e-300 the velocity's square overflows in the flux split: rate
        # wrote the infinity marker (null) and action blamed a zero intensity
        code, out = run(tmp_path, command, "grid.T=1e-300", *sizes)
        assert code in (0, 3)
        err = capsys.readouterr().err
        assert "zero intensity" not in err and "Traceback" not in err
        if (out / "rate.json").exists():
            assert "null" not in (out / "rate.json").read_text()

    def test_time_step_with_a_subnormal_square_is_named(self, tmp_path, capsys):
        # at dt = 1e-201 el_residual divided the constant path's second difference 0
        # by dt^2 = 0: exit 0, converged, a residual of NaN only, after a warning
        code, _ = run(tmp_path, "action", "action.sT=equilibrium", "grid.T=1e-200",
                      "grid.M=8", "grid.K=10")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "dt = 1e-201" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("T", ["1e-140", "1e-150"])
    def test_tiny_horizon_forms_no_cube_of_D(self, tmp_path, capsys, T):
        # el_operators formed d2A/dsdot2 as 2 A B / D^3, and D^3 overflowed
        code, _ = run(tmp_path, "action", "grid.M=8", "grid.K=10", f"grid.T={T}")
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_curvature_stops_without_a_warning(self, tmp_path, capsys):
        # at dt ~ 1e99 the CG curvature p H p overflows: numpy warned from the
        # matmul (an error under this suite's filter) and the solve ran on to a
        # failed line search
        code, out = run(tmp_path, "action", "grid.T=1e100", "grid.M=8", "grid.K=10")
        assert code == 3
        err = capsys.readouterr().err
        assert "(non-finite curvature)" in err and "Traceback" not in err
        assert json.loads((out / "diagnostics.json").read_text())["converged"] is False

    @pytest.mark.parametrize("setting", ["action.max_iters=0", "action.max_iters=-5",
                                         "action.tol_grad=0", "action.tol_grad=nan",
                                         "action.tol_grad=-1e-6", "action.tol_grad=inf"])
    def test_invalid_solver_settings_rejected(self, tmp_path, capsys, setting):
        code, _ = run(tmp_path, "action", "grid.K=20", "grid.M=8", setting)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_nonconverged_solve_reports_last_iterate(self, tmp_path):
        from graphonldp.action_path import discrete_action

        code, out = run(tmp_path, "action", "action.max_iters=1")
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["converged"] is False and diag["warning"]
        assert diag["iters"] == 1
        assert diag["grad_norm"] > diag["grad_tol"]
        # the written path is the one whose action is reported
        cp = cli.load_config(None)
        grid = cli.circle_grid(cli._i(cp, "grid", "M"))
        rows = np.loadtxt(out / "path.csv", delimiter=",", skiprows=1)
        path = rows[:, 2].reshape(-1, grid.M)
        action = discrete_action(path, cli.model_params(cp), cli.graphon_spec(cp), grid,
                                 cli._f(cp, "grid", "T"))
        assert action == diag["action"]


class TestExitCodes:
    @pytest.mark.parametrize("command, target, patch", [
        ("simulate", "simulate", {"max_events": 5}),
        ("action", "endemic_equilibrium", {"max_iter": 10}),
    ])
    def test_numerical_failure_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch,
                                                         command, target, patch):
        # an event budget too small for the horizon; an equilibrium
        # fixed-point iteration cut short (ten steps at R0 = 3 leave a drift near 1e-5)
        monkeypatch.setattr(cli, target, functools.partial(getattr(cli, target), **patch))
        code, _ = run(tmp_path, command, "model.beta=3.0", "graphon.N=60", "grid.T=0.5",
                      "grid.M=8", "run.replicas=1")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err

    @pytest.mark.parametrize("setting", ["model.beta=1e308", "model.alpha=1e308"])
    def test_non_finite_total_rate_exits_3(self, tmp_path, setting):
        # an infinite SIS total rate left t at 0 and the run never ended: a
        # subprocess with a timeout fails where that would hang
        proc = _python("import sys; from graphonldp.cli import main; sys.exit(main(sys.argv[1:]))",
                       "simulate", "--set", setting, "--out", str(tmp_path / "out"), timeout=30)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure:") and "not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("setting", ["model.beta=1e300", "grid.T=1e300"])
    def test_huge_finite_rate_or_horizon_exits_3(self, tmp_path, setting):
        # horizon x the largest total rate asks for about 1e300 proposals,
        # nearly all null, and the event budget counts logged events only:
        # the run did not end; a subprocess with a timeout fails where it hangs
        proc = _python("import sys; from graphonldp.cli import main; sys.exit(main(sys.argv[1:]))",
                       "simulate", "--set", setting, "--out", str(tmp_path / "out"), timeout=10)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure:") and "proposals" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["meanfield", "rate", "compare"])
    @pytest.mark.parametrize("setting", [f"{key}={value}" for key in
                                         ("model.beta", "model.alpha", "graphon.base", "grid.T")
                                         for value in ("1e300", "1e308")])
    def test_overflowing_mean_field_step_exits_3(self, tmp_path, capsys, command, setting):
        # the RK4 stages overflowed, with numpy warnings (errors here), before
        # the normalization check stopped the run
        code, _ = run(tmp_path, command, setting, "grid.M=8", "grid.steps=20",
                      "compare.snapshots=5")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "normalization" in err


class TestConfigRules:
    def test_family_parameters_are_the_graphon_keys(self):
        # graphon_spec reads each family's entries by its constructor's
        # parameter names, so the two sets must be the same keys
        params = {name for make in FAMILIES.values()
                  for name in inspect.signature(make).parameters}
        assert params == set(cli.DEFAULTS["graphon"]) - {"family", "N", "phi_exponent"}

    @pytest.mark.parametrize("text, message", [
        ("uniform:0.3,0.1", "bad uniform profile 'uniform:0.3,0.1'"),
        ("cosine:0.3", "bad cosine profile 'cosine:0.3'"),
        ("equilibrium:1", "bad equilibrium profile 'equilibrium:1' (takes no parameters)"),
        ("bump:1,2", "bad bump profile 'bump:1,2' (expected bump:center,width,depth)"),
    ])
    def test_wrong_count_of_profile_numbers(self, text, message):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_profile(text, cli.circle_grid(8), None)
        assert str(err.value) == message


class TestLdpCheck:
    def test_slopes_converge(self, tmp_path):
        code, out = run(tmp_path, "ldp-check")
        assert code == 0
        rep = json.loads((out / "ldp_check.json").read_text())
        assert rep["monotone"]
        assert rep["final_gap"] <= 2e-3

    def test_tail_level_validated(self, tmp_path):
        code, _ = run(tmp_path, "ldp-check", "ldp_check.a=0.9")
        assert code == 2

    @pytest.mark.parametrize("a", ["1e308", "1e305", "5e304"])
    def test_tail_level_beyond_the_float_range_rejected(self, tmp_path, capsys, a):
        # a N overflowed int(ceil(.)) at 1e308; at 5e304 a N and ell(a) are
        # finite, but log k! of k = a N is not (math.lgamma raised)
        code, _ = run(tmp_path, "ldp-check", f"ldp_check.a={a}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "overflows" in err and "Traceback" not in err

    def test_largest_tail_levels_still_run(self, tmp_path):
        code, out = run(tmp_path, "ldp-check", "ldp_check.a=1e300")
        assert code == 0
        rows = json.loads((out / "ldp_check.json").read_text())["rows"]
        assert all(np.isfinite(r["slope"]) and np.isfinite(r["limit"]) for r in rows)


SRC = str(Path(__file__).resolve().parents[1] / "src")
SMALL_RUNS = {
    "sample": ["graphon.N=30"],
    "simulate": ["graphon.N=40", "grid.T=0.5", "grid.M=8", "run.replicas=2"],
    "meanfield": ["grid.M=4", "grid.T=0.1", "grid.steps=2"],
    "compare": ["compare.N_sweep=40", "run.replicas=2", "grid.M=8"],
    "rate": ["grid.M=8", "grid.T=0.5", "grid.steps=50"],
    "action": ["graphon.family=constant", "graphon.level=1.0", "grid.M=8", "grid.K=20",
               "grid.T=1.0", "action.sT=bump:3.14,0.7,0.15"],
    "ldp-check": [],
}


def _python(code, *args, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        proc = _python("import sys, graphonldp, graphonldp.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_subcommand_runs_with_scipy_blocked(self, tmp_path, command):
        # a None entry in sys.modules makes every `import scipy...` fail
        argv = [command, "--out", str(tmp_path / "out")]
        for ov in SMALL_RUNS[command]:
            argv += ["--set", ov]
        proc = _python("import sys; sys.modules['scipy'] = None; "
                       "from graphonldp.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
        assert proc.returncode == 0, proc.stderr
        check_artifacts(tmp_path / "out")
