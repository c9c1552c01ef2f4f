import numpy as np
import pytest

from graphonldp.core_model import TWO_PI
from graphonldp.graphon import (
    GraphonError,
    GraphonSpec,
    Network,
    ProbabilityOverflowError,
    constant_kernel,
    cosine_kernel,
    density_from_degree_exponent,
    eta_diagnostic,
    max_degree_margin,
    power_law_kernel,
    read_network,
    sample_network,
    small_world_kernel,
    write_network,
)


class TestSpecs:
    def test_constant_validates(self):
        assert constant_kernel(1.0).validate()

    def test_cosine_validates(self):
        assert cosine_kernel(1.0, 0.5).validate()

    def test_cosine_rejects_negative_dip(self):
        with pytest.raises(GraphonError):
            cosine_kernel(1.0, 1.5)

    def test_bound_violation_detected(self):
        spec = constant_kernel(1.0)
        bad = type(spec)(kernel=lambda x, y: 2.0 + 0 * (np.asarray(x) + np.asarray(y)),
                         bound=1.0, symmetric=True, family="constant")
        with pytest.raises(GraphonError):
            bad.validate()

    def test_small_world_is_lipschitz_exempt(self):
        spec = small_world_kernel(1.5, 0.1, 0.5)
        assert spec.lipschitz_exempt
        assert spec.validate()

    def test_power_law_parameter_domain(self):
        for b in (1.2, 0.0, 1.0):
            with pytest.raises(GraphonError):
                power_law_kernel(b)


class TestSampling:
    def test_empty_when_probabilities_vanish(self):
        net = sample_network(constant_kernel(0.0), 50, 0.5, seed=1)
        assert len(net.rows) == 0

    def test_constant_kernel_edge_density(self):
        # phi_N = N with J = J0/N: every edge present w.p. J0; binomial CI
        J0 = 0.35
        N = 400
        net = sample_network(constant_kernel(J0 / N), N, float(N), seed=5)
        pairs = N * (N - 1) / 2
        density = (len(net.rows) / 2) / pairs
        sigma = np.sqrt(J0 * (1 - J0) / pairs)
        assert abs(density - J0) <= 3 * sigma

    def test_probability_overflow_rejected_with_pair(self):
        spec = constant_kernel(2.0)
        with pytest.raises(ProbabilityOverflowError) as exc:
            sample_network(spec, 10, 1.0, seed=0)
        assert exc.value.value > 1.0
        assert len(exc.value.pair) == 2

    def test_power_law_degree_profile(self):
        # P(J=1) proportional to (1-b)^2 (x_j x_k)^(-b); sampled in the
        # sparse regime (phi < 1) where the min(1, .) clipping is inactive,
        # the degree profile follows x^-b
        b = 0.3
        spec = power_law_kernel(b)
        N = 4000
        net = sample_network(spec, N, 0.05, seed=9)
        deg = net.degrees().astype(float)
        x = net.positions
        sel = (x > 0.02) & (deg > 0)
        slope = np.polyfit(np.log(x[sel]), np.log(deg[sel]), 1)[0]
        assert slope == pytest.approx(-b, abs=0.05)

    def test_kernel_evaluated_once_per_pair(self):
        N = 50
        base = constant_kernel(0.5)
        entries = []

        def counting(x, y):
            out = base.kernel(x, y)
            entries.append(np.size(out))
            return out

        spec = GraphonSpec(kernel=counting, bound=0.5, symmetric=True, family="constant")
        sample_network(spec, N, 0.5, seed=1)
        assert sum(entries) == N * (N - 1) // 2

    def test_signed_kernel_edges_follow_its_sign(self):
        # -1 edges only where J < 0, +1 only where J > 0, and the -1
        # count within a binomial interval of sum phi |J| over J < 0 pairs
        N, phi = 300, 1.0
        spec = GraphonSpec(kernel=lambda x, y: 0.5 * np.cos(np.asarray(x) - np.asarray(y)),
                           bound=0.5, symmetric=True, family="signed-cosine")
        assert spec.validate()
        net = sample_network(spec, N, phi, seed=4)
        x = net.positions
        J = spec.kernel(x[net.rows], x[net.cols])
        assert np.all(np.sign(J) == net.weights)
        ju, ku = np.triu_indices(N, 1)
        p = phi * np.maximum(-spec.kernel(x[ju], x[ku]), 0.0)
        minus = np.sum((net.weights == -1) & (net.rows < net.cols))
        assert minus > 0
        assert abs(minus - p.sum()) <= 3 * np.sqrt(np.sum(p * (1 - p)))

    def test_unbounded_kernel_clips_at_one(self):
        # phi J > 1 near the origin: no overflow error, every such pair is
        # an edge
        N, phi = 200, 2.0
        spec = power_law_kernel(0.6)
        net = sample_network(spec, N, phi, seed=6)
        x = net.positions
        ju, ku = np.triu_indices(N, 1)
        sure = phi * spec.kernel(x[ju], x[ku]) > 1.0
        assert sure.sum() > 100
        present = np.zeros((N, N), dtype=bool)
        present[net.rows, net.cols] = True
        assert np.all(present[ju[sure], ku[sure]])

    def test_symmetric_pairs_exact(self):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 120, 0.1, seed=2)
        forward = {(j, k): w for j, k, w in zip(net.rows, net.cols, net.weights)}
        for (j, k), w in forward.items():
            assert forward[(k, j)] == w

    def test_reproducible_bit_identical(self):
        spec = cosine_kernel(1.0, 0.5)
        a = sample_network(spec, 200, 0.15, seed=42)
        b = sample_network(spec, 200, 0.15, seed=42)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.weights, b.weights)
        c = sample_network(spec, 200, 0.15, seed=43)
        assert not (np.array_equal(a.rows, c.rows) and np.array_equal(a.cols, c.cols))

    def test_max_degree_scale(self):
        spec = cosine_kernel(1.0, 0.5)
        N = 1000
        phi = density_from_degree_exponent(N, 0.7)
        net = sample_network(spec, N, phi, seed=3)
        assert max_degree_margin(net, spec) <= 3.0

    def test_weights_in_range(self):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 100, 0.1, seed=0)
        assert np.all(np.isin(net.weights, (-1.0, 1.0)))

    def test_needs_two_nodes(self):
        with pytest.raises(GraphonError):
            sample_network(constant_kernel(1.0), 1, 0.5, seed=0)

    def test_asymmetric_sampling_independent_directions(self):
        spec = type(constant_kernel(0.6))(
            kernel=constant_kernel(0.6).kernel, bound=0.6,
            symmetric=False, family="constant")
        N = 300
        net = sample_network(spec, N, 0.5, seed=12)
        forward = {(j, k) for j, k in zip(net.rows, net.cols)}
        mirrored = sum((k, j) in forward for (j, k) in forward)
        # directions sampled independently at q = 0.3: mirrored fraction ~ q
        assert 0.15 < mirrored / len(forward) < 0.45
        density = len(forward) / (N * (N - 1))
        assert density == pytest.approx(0.3, abs=0.01)

    def test_unsorted_triples_are_canonicalized(self):
        rows = np.array([2, 0, 1])
        cols = np.array([0, 2, 0])
        w = np.array([1.0, 1.0, -1.0])
        net = Network(N=3, positions=np.array([0.0, 2.0, 4.0]), rows=rows,
                      cols=cols, weights=w, phi_N=1.0, seed=0, family="constant")
        assert list(net.rows) == [0, 1, 2]
        assert net.row_dense(2)[0] == 1.0
        assert net.row_dense(1)[0] == -1.0

    def test_coupling_rules_enforced_at_construction(self):
        def build(rows, cols, w):
            return Network(N=3, positions=np.zeros(3), rows=np.array(rows), cols=np.array(cols),
                           weights=np.array(w, dtype=float), phi_N=1.0, seed=0, family="constant")

        for rows, cols, w in (([0], [3], [1]), ([-1], [0], [1]), ([0], [1], [2]),
                              ([0], [1], [0.5]), ([0, 0], [1, 1], [1, -1])):
            with pytest.raises(GraphonError):
                build(rows, cols, w)
        net = build([1, 0], [1, 2], [0, -1])  # self-loops and zero weights are allowed
        assert list(net.rows) == [0, 1] and list(net.degrees()) == [1, 1, 0]

    def test_non_integer_indices_rejected(self):
        def build(rows, cols):
            return Network(N=3, positions=np.zeros(3), rows=rows, cols=cols, weights=[1],
                           phi_N=1.0, seed=0, family="constant")

        for rows, cols in (([0.7], [1]), ([0], [1.2]), ([np.nan], [1])):
            with pytest.raises(GraphonError, match="integers"):
                build(rows, cols)
        net = build([2.0], np.array([1], dtype=np.uint8))  # integral values are indices
        assert net.rows.dtype == np.int64 and (net.rows[0], net.cols[0]) == (2, 1)


class TestEtaDiagnostic:
    def test_dense_exact_case_zero(self):
        # J_jk = phi * J with phi * J = 1: complete unit graph, eta == 0
        level = 2.0
        phi = 0.5
        spec = constant_kernel(level)
        N = 12
        rows, cols = np.nonzero(np.ones((N, N)))
        net = Network(N=N, positions=spec.positions(N), rows=rows.astype(np.int64),
                      cols=cols.astype(np.int64), weights=np.ones(N * N),
                      phi_N=phi, seed=0, family="constant")
        diag = eta_diagnostic(net, spec)
        assert np.allclose(diag.eta, 0.0, atol=1e-12)

    def test_empty_graph_value(self):
        J0 = 0.7
        spec = constant_kernel(J0)
        N = 40
        net = Network(N=N, positions=spec.positions(N),
                      rows=np.zeros(0, dtype=np.int64), cols=np.zeros(0, dtype=np.int64),
                      weights=np.zeros(0), phi_N=1.0, seed=0, family="constant")
        diag = eta_diagnostic(net, spec)
        assert np.allclose(diag.eta, N * J0)
        assert diag.mean_eta == pytest.approx(N * J0)

    def test_sign_trick_dominates_random_test_vectors(self):
        spec = cosine_kernel(1.0, 0.5)
        N = 150
        net = sample_network(spec, N, 0.12, seed=8)
        diag = eta_diagnostic(net, spec)
        rng = np.random.default_rng(0)
        x = net.positions
        for _ in range(25):
            a = rng.integers(-1, 2, N).astype(float)
            j = int(rng.integers(0, N))
            d = net.row_dense(j) / net.phi_N - np.asarray(spec.kernel(x[j], x))
            assert abs(float(d @ a)) <= diag.eta[j] + 1e-9

    def test_mean_eta_per_node_bounded(self):
        # the exact sign-trick value is an L1 row norm: O(N) per node with
        # per-pair mean 2 J (1 - phi J); check the normalized value stays
        # below its analytic ceiling across a size sweep
        spec = cosine_kernel(1.0, 0.5)
        for N in (300, 600):
            phi = density_from_degree_exponent(N, 0.7)
            net = sample_network(spec, N, phi, seed=21)
            diag = eta_diagnostic(net, spec)
            ceiling = 2.0 * spec.bound
            assert diag.mean_eta / N <= ceiling


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 60, 0.2, seed=4)
        p = tmp_path / "net.txt"
        write_network(p, net)
        back = read_network(p)
        assert back.N == net.N
        assert back.phi_N == net.phi_N
        assert back.seed == net.seed
        assert back.family == net.family
        assert np.array_equal(back.rows, net.rows)
        assert np.array_equal(back.cols, net.cols)
        assert np.array_equal(back.weights, net.weights)
        assert np.allclose(back.positions, net.positions)

    def test_header_format(self, tmp_path):
        net = sample_network(constant_kernel(0.5), 10, 0.3, seed=6)
        p = tmp_path / "net.txt"
        write_network(p, net)
        head = p.read_text().splitlines()[0].split()
        assert head[0] == "10" and head[3] == "constant"

    def test_explicit_positions_block(self, tmp_path):
        spec = cosine_kernel(1.0, 0.5)
        net = sample_network(spec, 20, 0.2, seed=4)
        shuffled = Network(N=net.N, positions=net.positions[::-1].copy(), rows=net.rows,
                           cols=net.cols, weights=net.weights, phi_N=net.phi_N,
                           seed=net.seed, family=net.family)
        p = tmp_path / "net.txt"
        write_network(p, shuffled, explicit_positions=True)
        back = read_network(p)
        assert np.allclose(back.positions, shuffled.positions)

    def test_canonical_positions(self):
        spec = cosine_kernel(1.0, 0.5)
        assert np.allclose(spec.positions(8), TWO_PI * np.arange(8) / 8)
        pl = power_law_kernel(0.3)
        assert pl.positions(4)[0] > 0  # (0, 1] grid avoids the pole

    def test_power_law_roundtrip_reconstructs_unit_grid(self, tmp_path):
        spec = power_law_kernel(0.3)
        net = sample_network(spec, 40, 0.05, seed=2)
        p = tmp_path / "pl.txt"
        write_network(p, net)
        back = read_network(p)
        assert np.allclose(back.positions, net.positions)
        assert back.positions.max() <= 1.0


class TestMalformedNetworkFile:
    HEADER = "3 0.5 0 constant\n"

    def read(self, tmp_path, body):
        p = tmp_path / "net.txt"
        p.write_text(self.HEADER + body)
        return read_network(p)

    def test_edge_line_field_count(self, tmp_path):
        for body in ("0 1\n", "0 1 1 7\n"):
            with pytest.raises(GraphonError):
                self.read(tmp_path, body)

    def test_index_out_of_range(self, tmp_path):
        for body in ("0 -1 1\n", "0 5 1\n", "3 0 1\n"):
            with pytest.raises(GraphonError):
                self.read(tmp_path, body)

    def test_self_loop(self, tmp_path):
        with pytest.raises(GraphonError):
            self.read(tmp_path, "1 1 1\n")

    def test_weight_not_unit(self, tmp_path):
        for body in ("0 1 3\n", "0 1 0\n"):
            with pytest.raises(GraphonError):
                self.read(tmp_path, body)

    def test_duplicate_edge(self, tmp_path):
        for body in ("0 1 1\n0 1 1\n", "0 1 1\n1 0 1\n0 1 -1\n"):
            with pytest.raises(GraphonError):
                self.read(tmp_path, body)

    def test_positions_block_length(self, tmp_path):
        for body in ("positions\n0.0\n1.0\nedges\n0 1 1\n",
                     "positions\n0.0\n1.0\n2.0\n3.0\nedges\n0 1 1\n"):
            with pytest.raises(GraphonError):
                self.read(tmp_path, body)
