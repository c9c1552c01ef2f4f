import functools
import json

import numpy as np
import pytest

from graphonldp import cli
from graphonldp.cli import main


def run(tmp_path, command, *overrides, config=None, out=None):
    out = out or (tmp_path / f"out_{command.replace('-', '_')}_{len(overrides)}")
    argv = [command, "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    for ov in overrides:
        argv += ["--set", ov]
    return main(argv), out


class TestConfig:
    def test_missing_config_file(self, tmp_path):
        code, _ = run(tmp_path, "sample", config=tmp_path / "nope.ini")
        assert code == 2

    def test_bad_override_shape(self, tmp_path):
        code, _ = run(tmp_path, "sample", "bogus")
        assert code == 2

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[graphon]\nfamily = constant\nN = 40\nlevel = 0.5\n")
        code, out = run(tmp_path, "sample", "run.seed=5", config=cfg)
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["graphon"]["n"] == "40"
        assert man["config"]["run"]["seed"] == "5"


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

    def test_pool_size_capped_by_replicas(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cp = cli.load_config(None, ["graphon.N=30"])
        spec, _, grid, rates, _ = cli._model(cp)
        net = cli._network(cp, spec, 30, 1)
        trajs = cli._replica_trajectories(net, rates, np.full(grid.M, 0.3), 0.1,
                                          reps=2, threads=16, seed=1)
        assert len(trajs) == 2 and sizes == [2]


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
        ("ldp-check", "ldp_check.a=nan"), ("ldp-check", "ldp_check.a=inf")])
    def test_out_of_range_number(self, tmp_path, capsys, command, setting):
        code, _ = run(tmp_path, command, setting, "graphon.N=40", "run.replicas=1",
                      "compare.N_sweep=40")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


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

    def test_infeasible_endpoint_rejected(self, tmp_path):
        code, _ = run(tmp_path, "action", "action.s0=uniform:0.0")
        assert code == 2

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
        # relaxation cut short (at beta=3 the 0.5 start is far from it)
        monkeypatch.setattr(cli, target, functools.partial(getattr(cli, target), **patch))
        code, _ = run(tmp_path, command, "model.beta=3.0", "graphon.N=60", "grid.T=0.5",
                      "grid.M=8", "run.replicas=1")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err


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
