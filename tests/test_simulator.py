import numpy as np
import pytest
from scipy import stats

from graphonldp.core_model import (
    SIS_SPACE,
    ConstantRates,
    ModelError,
    NumericalError,
    SisParams,
    SisRates,
    local_field,
    sis_rates,
)
from graphonldp.graphon import Network, cosine_kernel, sample_network
from graphonldp.simulator import bin_index, extract_flux, occupation_at, simulate


def empty_network(N):
    return Network(N=N, positions=2 * np.pi * np.arange(N) / N,
                   rows=np.zeros(0, dtype=np.int64), cols=np.zeros(0, dtype=np.int64),
                   weights=np.zeros(0), phi_N=1.0, seed=0, family="constant")


def sis(beta=2.0, alpha=1.0):
    return sis_rates(SisParams(beta=beta, alpha=alpha))


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
        rates = sis(beta=2.0, alpha=1.0)
        # node 0 susceptible with w_I = 1/2 -> rate 1; node 1 infected -> rate 1
        first = [simulate(net, rates, ["S", "I"], 100.0, seed=1000 + r).times[0]
                 for r in range(2000)]
        res = stats.kstest(np.array(first) * 2.0, "expon")
        assert res.pvalue > 0.01

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

    def test_exhausted_event_budget_raises(self):
        # isolated infected nodes recover at rate 1: five events cannot
        # reach the horizon of 50 with twenty of them
        net = empty_network(20)
        with pytest.raises(NumericalError, match="event budget 5 exhausted"):
            simulate(net, sis(), ["I"] * 20, horizon=50.0, seed=0, max_events=5)

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
        rng = np.random.default_rng(4)
        mask = rng.random((N, N)) < 0.15
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        weights = rng.choice([-1.0, 1.0], len(rows))
        J = np.zeros((N, N), dtype=np.int64)
        J[rows, cols] = weights
        assert not np.array_equal(J, J.T)
        # positions = node indices, so each call's theta names its rows
        net = Network(N=N, positions=np.arange(N, dtype=float), rows=rows, cols=cols,
                      weights=weights, phi_N=phi, seed=0, family="constant")
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
        rates = sis(beta=beta, alpha=alpha)
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
        counts = np.zeros(8)
        for r in range(reps):
            traj = simulate(net, rates, np.array(init), t_probe, seed=r)
            counts[index[tuple(traj.config_at(t_probe))]] += 1
        emp = counts / reps
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / reps)
        assert np.all(np.abs(emp - exact) <= 4.5 * sigma + 1e-12)


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
            assert occ.total_mass() == pytest.approx(1.0)

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
