import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from graphonldp.core_model import (
    SIS_SPACE,
    ModelError,
    NumericalError,
    SisParams,
    SisRates,
    sis_rates,
)
from graphonldp.graphon import Network, constant_kernel, cosine_kernel, sample_network
from graphonldp.simulator import (
    _PROPOSALS_PER_EVENT,
    RateOverflowError,
    TrajectoryRecord,
    bin_index,
    extract_flux,
    occupation_at,
    simulate,
)
from oracles import ConstantRates, local_field


def empty_network(N):
    return Network(N=N, positions=2 * np.pi * np.arange(N) / N,
                   rows=np.zeros(0, dtype=np.int64), cols=np.zeros(0, dtype=np.int64),
                   weights=np.zeros(0), phi_N=1.0, seed=0, family="constant")


def sis(beta=2.0, alpha=1.0):
    return sis_rates(SisParams(beta=beta, alpha=alpha))


class GenericSis(SisRates):
    """The SIS rates under another type: ``simulate`` takes its SIS loop only
    for the exact type SisRates, so this family runs the generic loop."""


def generic_sis(beta=2.0, alpha=1.0):
    return GenericSis(SisParams(beta=beta, alpha=alpha))


class InfiniteOutOfS(ConstantRates):
    """Recovery at rate 1 out of I and an infinite rate out of S."""

    def __init__(self):
        super().__init__(SIS_SPACE, 1.0)

    def rate_matrix(self, theta, from_codes, w):
        out = np.zeros((len(from_codes), 2))
        out[from_codes == 1, 0] = 1.0
        out[from_codes == 0, 1] = np.inf
        return out


def signed_directed_network(N=60, phi=0.1, seed=4):
    """J != J^T with both signs; positions are node indices.  Returns the
    network, its dense J and the generator for further draws."""
    rng = np.random.default_rng(seed)
    mask = rng.random((N, N)) < 0.15
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    weights = rng.choice([-1.0, 1.0], len(rows))
    J = np.zeros((N, N), dtype=np.int64)
    J[rows, cols] = weights
    net = Network(N=N, positions=np.arange(N, dtype=float), rows=rows, cols=cols,
                  weights=weights, phi_N=phi, seed=0, family="constant")
    return net, J, rng


def cosine_sis_case():
    """A 500-node cosine network, a third of it infected, and the rates."""
    net = sample_network(cosine_kernel(1.0, 0.5), 500, 0.1, seed=7)
    return net, (np.arange(500) % 3 == 0).astype(np.int64), sis()


class TestSimulate:
    def test_empty_network_all_susceptible_is_frozen(self):
        net = empty_network(20)
        traj = simulate(net, sis(), ["S"] * 20, horizon=5.0, seed=0)
        assert traj.n_events == 0

    def test_single_node_recovery_is_exponential(self):
        # isolated infected node: recovery time ~ Exp(alpha); check the mean
        net = empty_network(1)
        rates = sis(alpha=1.0)
        times = []
        for rep in range(10_000):
            traj = simulate(net, rates, ["I"], horizon=50.0, seed=rep)
            assert traj.n_events == 1
            times.append(traj.times[0])
        assert np.mean(times) == pytest.approx(1.0, abs=0.03)

    def test_interevent_times_exponential_ks(self):
        # frozen two-node configuration: time to first event ~ Exp(total rate)
        rows = np.array([0, 1])
        cols = np.array([1, 0])
        net = Network(N=2, positions=np.array([0.0, np.pi]), rows=rows, cols=cols,
                      weights=np.ones(2), phi_N=1.0, seed=0, family="constant")
        # node 0 susceptible with w_I = 1/2 -> rate 1; node 1 infected -> rate 1
        for rates in (sis(beta=2.0, alpha=1.0), generic_sis(beta=2.0, alpha=1.0)):
            first = [simulate(net, rates, ["S", "I"], 100.0, seed=1000 + r).times[0]
                     for r in range(2000)]
            res = stats.kstest(np.array(first) * 2.0, "expon")
            assert res.pvalue > 0.01, type(rates).__name__

    def test_deterministic_given_seed(self):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 200, 0.15, seed=5)
        init = np.where(np.arange(200) % 3 == 0, 1, 0)
        a = simulate(net, sis(), init, 2.0, seed=9)
        b = simulate(net, sis(), init, 2.0, seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.nodes, b.nodes)

    def test_events_strictly_increasing_and_consistent(self):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 300, 0.2, seed=3)
        rng = np.random.default_rng(0)
        init = rng.integers(0, 2, 300)
        traj = simulate(net, sis(), init, 3.0, seed=17)
        assert traj.n_events > 50
        assert np.all(np.diff(traj.times) > 0)
        cfg = traj.initial.copy()
        for t, j, a, b in zip(traj.times, traj.nodes, traj.from_codes, traj.to_codes):
            assert cfg[j] == a and a != b
            cfg[j] = b

    def test_all_infected_absorbs_to_susceptible_without_infection(self):
        # beta -> 0: pure death; by T large all nodes have recovered

        class RecoveryOnly(ConstantRates):
            def __init__(self):
                super().__init__(SIS_SPACE, 1.0)

            def rate_matrix(self, theta, from_codes, w):
                out = np.zeros((len(from_codes), 2))
                out[from_codes == 1, 0] = 1.0
                return out

        net = empty_network(60)
        traj = simulate(net, RecoveryOnly(), ["I"] * 60, horizon=40.0, seed=2)
        occ = occupation_at(traj, 40.0, bins=4)
        assert occ.counts[0].sum() == 60  # everyone susceptible
        assert occ.counts[1].sum() == 0

    def test_non_finite_rate_at_start_raises(self):
        with pytest.raises(RateOverflowError, match="node 0, time 0") as err:
            simulate(empty_network(3), InfiniteOutOfS(), ["S", "I", "I"], horizon=50.0, seed=1)
        assert isinstance(err.value, NumericalError)

    def test_non_finite_rate_after_an_event_raises(self):
        # all infected: the first recovery makes an S, whose recomputed row is inf
        with pytest.raises(RateOverflowError) as err:
            simulate(empty_network(3), InfiniteOutOfS(), ["I"] * 3, horizon=50.0, seed=1)
        assert err.value.t > 0.0
        assert isinstance(err.value, NumericalError)

    @pytest.mark.parametrize("beta, alpha, node", [(1e308, 1.0, 8), (2.0, 1e308, 3)],
                             ids=["beta=1e308", "alpha=1e308"])
    def test_overflowing_total_rate_raises(self, beta, alpha, node):
        # every rate row is finite but their sum is not: the generic loop
        # raises at t = 0, naming the node at which the running total leaves
        # the float range, with no overflow warning (an error under pytest)
        net = sample_network(cosine_kernel(1.0, 0.5), 60, 60 ** -0.7, seed=0)
        init = [1 if j % 3 == 0 else 0 for j in range(60)]
        with pytest.raises(RateOverflowError, match=f"node {node}, time 0$") as err:
            simulate(net, generic_sis(beta, alpha), init, 5.0, seed=1)
        assert err.value.node == node and err.value.t == 0.0

    def test_exhausted_event_budget_raises(self):
        # isolated infected nodes recover at rate 1: five events cannot
        # reach the horizon of 50 with twenty of them
        net = empty_network(20)
        for rates in (sis(), generic_sis()):
            with pytest.raises(NumericalError, match="event budget 5 exhausted"):
                simulate(net, rates, ["I"] * 20, horizon=50.0, seed=0, max_events=5)
            # no budget at all raises at t = 0, before the first event
            with pytest.raises(NumericalError, match="event budget 0 exhausted at t=0 < horizon 50"):
                simulate(net, rates, ["I"] * 20, horizon=50.0, seed=0, max_events=0)

    @pytest.mark.parametrize("make", [sis, generic_sis])
    def test_nan_horizon_rejected_infinite_runs_to_absorption(self, make):
        # with a budget of ten the NaN horizon would surface as an exhausted
        # budget, after the run, instead of as a model error
        net = empty_network(20)
        with pytest.raises(ModelError, match="horizon must be positive"):
            simulate(net, make(), ["I"] * 20, horizon=np.nan, seed=0, max_events=10)
        assert simulate(net, make(), ["I"] * 20, horizon=np.inf, seed=0).n_events == 20

    @pytest.mark.parametrize("make", [sis, generic_sis])
    def test_event_budget_counts_logged_events(self, make):
        # on the all-infected complete graph every infection proposal of the
        # SIS loop is null; the budget counts only the logged events, and a
        # budget of one more than the run needs leaves the run unchanged
        net = sample_network(constant_kernel(1.0), 30, 1.0, seed=0)
        full = simulate(net, make(), ["I"] * 30, 1.0, seed=5)
        assert full.n_events > 5
        again = simulate(net, make(), ["I"] * 30, 1.0, seed=5, max_events=full.n_events + 1)
        assert np.array_equal(again.times, full.times)
        with pytest.raises(NumericalError, match=f"event budget {full.n_events} exhausted"):
            simulate(net, make(), ["I"] * 30, 1.0, seed=5, max_events=full.n_events)

    @pytest.mark.parametrize("setting", ["beta=1e308", "alpha=1e308"])
    def test_non_finite_total_rate_raises_before_the_first_event(self, setting):
        # the SIS total rate is inf: t stayed at 0, every proposal was an
        # infection and null proposals are not logged, so the run never
        # ended; a subprocess with a timeout fails where that would hang
        probe = """if True:
            import sys
            from graphonldp.core_model import NumericalError, SisParams, sis_rates
            from graphonldp.graphon import cosine_kernel, sample_network
            from graphonldp.simulator import simulate
            params = dict(beta=2.0, alpha=1.0)
            key, value = sys.argv[1].split("=")
            params[key] = float(value)
            net = sample_network(cosine_kernel(1.0, 0.5), 60, 60 ** -0.7, seed=0)
            init = [1 if j % 3 == 0 else 0 for j in range(60)]
            try:
                simulate(net, sis_rates(SisParams(**params)), init, 5.0, seed=1, max_events=100_000)
            except NumericalError as e:
                print(e)
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", probe, setting], capture_output=True,
                              text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("SIS total rate") and "= inf is not finite" in proc.stdout

    def test_proposal_bound_refuses_a_run_the_budget_cannot_stop(self):
        # the empty all-infected network's largest total rate is alpha N = 20;
        # null proposals are not logged, so a run whose horizon x top exceeds
        # _PROPOSALS_PER_EVENT x max_events raises before its first event
        net = empty_network(20)
        limit = _PROPOSALS_PER_EVENT / 20
        with pytest.raises(NumericalError, match="proposals, more than 1000 per event"):
            simulate(net, sis(), ["I"] * 20, horizon=1.001 * limit, seed=0, max_events=1)
        with pytest.raises(NumericalError, match="event budget 1 exhausted"):
            simulate(net, sis(), ["I"] * 20, horizon=limit, seed=0, max_events=1)
        assert simulate(net, sis(), ["I"] * 20, horizon=np.inf, seed=0, max_events=21).n_events == 20

    @pytest.mark.parametrize("case, events, digest", [
        ("cosine", 4891, "3a52a0f7cc43a42ac99760ca18ae8a254202da0b3e27f1b014105a70cc8e0bbd"),
        ("signed-directed", 81, "9a328f4bdccba3309432531682eb75bb281de6ec23fb7fa54ca0f87486d90952"),
    ], ids=["cosine", "signed-directed"])
    def test_sis_event_log_pinned(self, case, events, digest):
        # sha256 of the float64 times and int64 nodes and target codes the
        # SIS loop gave for these seeds.  The cosine run makes more than
        # 16 + 32 + ... + 2048 = 4080 draws from each stream, so both reach
        # their 4096-draw blocks; the signed run takes the signed acceptance.
        if case == "cosine":
            net, init, rates = cosine_sis_case()
            traj = simulate(net, rates, init, 10.0, seed=11)
        else:
            net, _, rng = signed_directed_network()
            init = (rng.random(net.N) < 0.5).astype(np.int64)
            traj = simulate(net, sis(), init, 5.0, seed=12)
        h = hashlib.sha256()
        for arr, dtype in ((traj.times, np.float64), (traj.nodes, np.int64), (traj.to_codes, np.int64)):
            assert arr.dtype == dtype
            h.update(arr.tobytes())
        assert traj.n_events == events and h.hexdigest() == digest

    def test_sis_event_budget_pinned(self):
        # the budget error of the cosine run above, cut at 1000 logged events
        net, init, rates = cosine_sis_case()
        with pytest.raises(NumericalError) as err:
            simulate(net, rates, init, 10.0, seed=11, max_events=1000)
        assert str(err.value) == "event budget 1000 exhausted at t=2.14021 < horizon 10"

    def test_invalid_init_length(self):
        net = empty_network(5)
        with pytest.raises(Exception):
            simulate(net, sis(), ["S"] * 4, 1.0, seed=0)

    def test_init_codes_out_of_range(self):
        net = Network(N=3, positions=np.zeros(3), rows=np.array([0, 1]), cols=np.array([1, 0]),
                      weights=np.ones(2), phi_N=1.0, seed=0, family="constant")
        for bad in (-1, 2, 0.5):
            with pytest.raises(ModelError, match="init codes"):
                simulate(net, sis(), np.array([0, bad, 1]), 1.0, seed=0)

    def test_unknown_init_label(self):
        # simulate and local_field share one label-to-code check
        net = Network(N=2, positions=np.zeros(2), rows=np.array([0, 1]), cols=np.array([1, 0]),
                      weights=np.ones(2), phi_N=1.0, seed=0, family="constant")
        with pytest.raises(ModelError, match="unknown state label 'X'"):
            simulate(net, sis(), ["S", "X"], 1.0, seed=0)
        with pytest.raises(ModelError, match="unknown state label 'X'"):
            local_field(0, net, ["S", "X"])
        with pytest.raises(ModelError, match="config length"):
            local_field(0, net, ["S"])
        with pytest.raises(ModelError, match="config codes"):
            local_field(0, net, [0, 2])

    def test_fields_are_exact_on_directed_signed_network(self):
        # J != J^T with both signs: every field row handed to the rates must
        # equal the recount (J[r] @ onehot(config)) * 1/(N phi_N) bit for bit.
        # A symmetric network cannot tell in-neighbour lists from out-neighbour
        # lists; this one can.
        class Recording(SisRates):
            def __init__(self):
                super().__init__(SisParams(beta=2.0, alpha=1.0))
                self.calls = []

            def rate_matrix(self, theta, from_codes, w):
                self.calls.append((theta.astype(np.int64), w.copy()))
                return super().rate_matrix(theta, from_codes, w)

        N, phi = 60, 0.1
        net, J, rng = signed_directed_network(N, phi)
        assert not np.array_equal(J, J.T)
        # positions = node indices, so each call's theta names its rows;
        # Recording is a SisRates subclass, so this runs the generic loop
        rates = Recording()
        traj = simulate(net, rates, (rng.random(N) < 0.5).astype(np.int64), 2.0, seed=6)
        assert traj.n_events > 20 and len(rates.calls) == traj.n_events + 1
        scale = 1.0 / (N * phi)
        config = traj.initial.copy()
        for i, (r, w) in enumerate(rates.calls):
            if i:
                config[traj.nodes[i - 1]] = traj.to_codes[i - 1]
            assert np.array_equal(w, (J[r] @ np.eye(2, dtype=np.int64)[config]) * scale)
        for node, row in zip(r, w):
            assert np.array_equal(local_field(node, net, config), row)

    def test_exact_distribution_three_node_chain(self):
        # the sampler's law at time t must match the matrix exponential of
        # the exact 8-state generator of a 3-node system
        from itertools import product
        from scipy.linalg import expm

        rows = np.array([0, 0, 1, 1, 2, 2])
        cols = np.array([1, 2, 0, 2, 0, 1])
        w = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])  # path graph 0-1-2
        net = Network(N=3, positions=2 * np.pi * np.arange(3) / 3, rows=rows,
                      cols=cols, weights=w, phi_N=1.0, seed=0, family="constant")
        beta, alpha = 2.0, 1.0
        states = list(product((0, 1), repeat=3))
        index = {s: i for i, s in enumerate(states)}
        J = np.zeros((3, 3))
        J[rows, cols] = w
        Q = np.zeros((8, 8))
        for s in states:
            for j in range(3):
                wI = float(J[j] @ np.array(s)) / (3 * 1.0)
                rate = beta * wI if s[j] == 0 else alpha
                if rate <= 0:
                    continue
                s2 = list(s)
                s2[j] = 1 - s2[j]
                Q[index[s], index[tuple(s2)]] = rate
        np.fill_diagonal(Q, -Q.sum(axis=1))
        t_probe = 0.7
        init = (0, 1, 0)
        exact = expm(Q.T * t_probe) @ np.eye(8)[index[init]]

        reps = 20_000
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / reps)
        for rates in (sis(beta=beta, alpha=alpha), generic_sis(beta=beta, alpha=alpha)):
            counts = np.zeros(8)
            for r in range(reps):
                traj = simulate(net, rates, np.array(init), t_probe, seed=r)
                counts[index[tuple(traj.config_at(t_probe))]] += 1
            emp = counts / reps
            assert np.all(np.abs(emp - exact) <= 4.5 * sigma + 1e-12), type(rates).__name__

    def test_complete_graph_infected_count_law(self):
        # constant kernel 1 at phi_N = 1 samples the complete graph, on which
        # the infected count is the birth-death chain with rates
        # (N - n) beta n / N up and alpha n down; the histogram of I_T over
        # many seeds must pass a chi-square test against the chain's forward
        # equation at level 0.001, with bins merged to expected counts >= 5
        from scipy.linalg import expm

        N, beta, alpha, T, n0, reps = 40, 2.0, 1.0, 1.0, 10, 1500
        net = sample_network(constant_kernel(1.0), N, 1.0, seed=0)
        assert len(net.rows) == N * (N - 1)
        n = np.arange(N + 1)
        Q = np.diag((N - n[:-1]) * beta * n[:-1] / N, 1) + np.diag(alpha * n[1:], -1)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        expected = reps * (expm(Q.T * T) @ np.eye(N + 1)[n0])
        init = (np.arange(N) < n0).astype(np.int64)
        for rates in (sis(beta, alpha), generic_sis(beta, alpha)):
            final = [int(simulate(net, rates, init, T, seed=r).config_at(T).sum())
                     for r in range(reps)]
            observed = np.bincount(final, minlength=N + 1).astype(float)
            # merge neighbouring counts, left to right, until each bin expects >= 5
            edges, acc = [0], 0.0
            for i, e in enumerate(expected):
                acc += e
                if acc >= 5.0 and expected[i + 1:].sum() >= 5.0:
                    edges.append(i + 1)
                    acc = 0.0
            obs, exp = np.add.reduceat(observed, edges), np.add.reduceat(expected, edges)
            assert exp.min() >= 5.0 and len(obs) > 5
            res = stats.chisquare(obs, exp)
            assert res.pvalue > 0.001, (type(rates).__name__, res)

    @pytest.mark.parametrize("make", [sis, generic_sis])
    def test_same_log_with_cold_warm_and_rebuilt_index(self, make):
        # the in-neighbour index is built on the first call and kept; a warm
        # network, and one rebuilt from the same triples shuffled, must give
        # the cold call's event log
        net, _, rng = signed_directed_network()
        init = (rng.random(net.N) < 0.5).astype(np.int64)
        assert "_in_index" not in vars(net)
        cold = simulate(net, make(), init, 2.0, seed=3)
        index = net._in_index
        warm = simulate(net, make(), init, 2.0, seed=3)
        assert net._in_index is index
        perm = rng.permutation(len(net.rows))
        rebuilt = Network(N=net.N, positions=net.positions, rows=net.rows[perm],
                          cols=net.cols[perm], weights=net.weights[perm], phi_N=net.phi_N,
                          seed=0, family="constant")
        fresh = simulate(rebuilt, make(), init, 2.0, seed=3)
        assert cold.n_events > 20
        for traj in (warm, fresh):
            for name in ("times", "nodes", "from_codes", "to_codes"):
                assert np.array_equal(getattr(traj, name), getattr(cold, name))

    @pytest.mark.parametrize("built", [False, True])
    def test_pickled_copy_read_only_with_same_log(self, built):
        # a replica worker gets the network by pickle: the copy's arrays, and
        # its index when the original had built one, must refuse writes, and
        # the copy must give the original's event log
        import pickle

        net, _, rng = signed_directed_network()
        init = (rng.random(net.N) < 0.5).astype(np.int64)
        if built:
            net._in_index
        copy = pickle.loads(pickle.dumps(net))
        assert ("_in_index" in vars(copy)) == built
        arrays = [getattr(copy, name) for name in ("positions", "rows", "cols", "weights", "indptr")]
        if built:
            arrays += [getattr(copy._in_index, name)
                       for name in ("order", "ptr", "stubs", "start", "n_stubs")]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        traj, original = (simulate(n, sis(), init, 2.0, seed=3) for n in (copy, net))
        assert traj.n_events > 20
        for name in ("times", "nodes", "from_codes", "to_codes"):
            assert np.array_equal(getattr(traj, name), getattr(original, name))

    def test_loops_agree_in_law_on_signed_directed_network(self):
        # the one test of the SIS loop's signed acceptance max(0, c)/c^+: on
        # J != J^T with both signs, the event count's mean and variance over
        # many seeds agree between the two loops within 4 combined standard
        # errors (the variance's from the sample fourth central moment)
        net, J, rng = signed_directed_network()
        assert np.any(J < 0) and not np.array_equal(J, J.T)
        init = (rng.random(net.N) < 0.5).astype(np.int64)
        reps = 600
        moments = []
        for rates in (sis(), generic_sis()):
            x = np.array([simulate(net, rates, init, 2.0, seed=r).n_events
                          for r in range(reps)], dtype=float)
            c = x - x.mean()
            var, m4 = np.mean(c ** 2), np.mean(c ** 4)
            moments.append((x.mean(), var, var / reps, (m4 - var ** 2) / reps))
        (m1, v1, sm1, sv1), (m2, v2, sm2, sv2) = moments
        assert abs(m1 - m2) <= 4.0 * np.sqrt(sm1 + sm2), moments
        assert abs(v1 - v2) <= 4.0 * np.sqrt(sv1 + sv2), moments


class TestOccupation:
    def make_traj(self):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 250, 0.2, seed=11)
        rng = np.random.default_rng(4)
        init = rng.integers(0, 2, 250)
        return simulate(net, sis(), init, 2.5, seed=23)

    def test_initial_histogram(self):
        traj = self.make_traj()
        occ = occupation_at(traj, 0.0, bins=16)
        idx = bin_index(traj.positions, 16)
        for b in range(16):
            assert occ.counts[1, b] == np.sum((traj.initial == 1) & (idx == b))

    def test_total_mass_one(self):
        traj = self.make_traj()
        for t in (0.0, 0.7, 2.5):
            occ = occupation_at(traj, t, bins=8)
            assert occ.masses.sum() == pytest.approx(1.0)

    def test_replay_matches_bruteforce_recount(self):
        traj = self.make_traj()
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 2.5, 5):
            occ = occupation_at(traj, t, bins=8)
            # independent recount: apply events one by one into a dict
            cfg = {j: int(traj.initial[j]) for j in range(traj.N)}
            for te, j, b in zip(traj.times, traj.nodes, traj.to_codes):
                if te <= t:
                    cfg[j] = int(b)
            idx = bin_index(traj.positions, 8)
            counts = np.zeros((2, 8), dtype=int)
            for j, st_ in cfg.items():
                counts[st_, idx[j]] += 1
            assert np.array_equal(occ.counts, counts)

    def test_counts_equal_scatter_add_form(self):
        # bincount over code * bins + bin against np.add.at, for occupations
        # and channel counts, on random consistent event logs
        rng = np.random.default_rng(8)
        for k, N, m, bins in ((2, 1, 3, 1), (2, 50, 200, 7), (3, 120, 500, 16), (4, 30, 0, 5)):
            cfg = rng.integers(0, k, N)
            initial, frs, tos = cfg.copy(), [], []
            nodes = rng.integers(0, N, m)
            for j in nodes:
                frs.append(cfg[j])
                cfg[j] = (cfg[j] + rng.integers(1, k)) % k
                tos.append(cfg[j])
            traj = TrajectoryRecord(
                N=N, horizon=1.0, labels=tuple("SIRE"[:k]), positions=rng.uniform(0, 2 * np.pi, N),
                initial=initial, times=np.sort(rng.uniform(0.0, 1.0, m)), nodes=nodes,
                from_codes=np.array(frs, dtype=np.int64), to_codes=np.array(tos, dtype=np.int64))
            flux = extract_flux(traj)
            idx = bin_index(traj.positions, bins)
            for t in (0.0, 0.4, 1.0):
                expect = np.zeros((k, bins), dtype=np.int64)
                np.add.at(expect, (traj.config_at(t), idx), 1)
                got = occupation_at(traj, t, bins).counts
                assert got.dtype == np.int64 and np.array_equal(got, expect)
                for a, b in ((0, 1), (1, 0), (k - 1, 0)):
                    ch = flux.atoms.get((traj.labels[a], traj.labels[b]))
                    expect = np.zeros(bins, dtype=np.int64)
                    if ch is not None:
                        np.add.at(expect, bin_index(ch[2][ch[0] <= t], bins), 1)
                    got = flux.channel_counts(traj.labels[a], traj.labels[b], bins, t_hi=t)
                    assert got.dtype == np.int64 and np.array_equal(got, expect)

    def test_out_of_range_time(self):
        traj = self.make_traj()
        with pytest.raises(ValueError):
            occupation_at(traj, 3.0, bins=4)


class TestFlux:
    def test_zero_event_trajectory_empty(self):
        net = empty_network(10)
        traj = simulate(net, sis(), ["S"] * 10, 1.0, seed=0)
        flux = extract_flux(traj)
        assert flux.atoms == {}
        assert flux.channel_mass("S", "I") == 0.0

    def test_channel_mass_counts_events(self):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 250, 0.2, seed=11)
        rng = np.random.default_rng(4)
        init = rng.integers(0, 2, 250)
        traj = simulate(net, sis(), init, 2.5, seed=23)
        flux = extract_flux(traj)
        k_si = int(np.sum((traj.from_codes == 0) & (traj.to_codes == 1)))
        assert flux.channel_mass("S", "I") == pytest.approx(k_si / 250)

    def test_flux_occupation_conservation_exact(self):
        # the discrete conservation identity, exact in integer counts:
        # occupation(t) - occupation(0) = in-flux - out-flux per (state, bin)
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 300, 0.25, seed=7)
        rng = np.random.default_rng(9)
        init = rng.integers(0, 2, 300)
        traj = simulate(net, sis(), init, 3.0, seed=31)
        flux = extract_flux(traj)
        for bins in (1, 4, 32):
            for t in (0.0, 0.31, 1.7, 3.0):
                occ_t = occupation_at(traj, t, bins)
                occ_0 = occupation_at(traj, 0.0, bins)
                into_i = flux.channel_counts("S", "I", bins, t_hi=t)
                into_s = flux.channel_counts("I", "S", bins, t_hi=t)
                assert np.array_equal(occ_t.counts[1] - occ_0.counts[1], into_i - into_s)
                assert np.array_equal(occ_t.counts[0] - occ_0.counts[0], into_s - into_i)
