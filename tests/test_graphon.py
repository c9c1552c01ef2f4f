import dataclasses
import hashlib
import tracemalloc

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
    power_law_kernel,
    read_network,
    sample_network,
    small_world_kernel,
    write_network,
)

from oracles import degrees, eta_diagnostic, max_degree_margin, row_dense


def counted(spec, **changes):
    """``spec`` (with ``changes``) whose kernel adds its evaluations to count[0]."""
    count = [0]

    def kernel(x, y):
        out = spec.kernel(x, y)
        count[0] += np.size(out)
        return out

    return dataclasses.replace(spec, kernel=kernel, **changes), count


def signed_cosine():
    return GraphonSpec(kernel=lambda x, y: 0.5 * np.cos(np.asarray(x) - np.asarray(y)),
                       bound=0.5, symmetric=True, family="signed-cosine")


def directed_constant():
    return GraphonSpec(kernel=constant_kernel(0.6).kernel, bound=0.6, symmetric=False,
                       family="constant")


class TestSpecs:
    def test_constant_validates(self):
        assert constant_kernel(1.0).validate()

    def test_cosine_validates(self):
        assert cosine_kernel(1.0, 0.5).validate()

    def test_cosine_rejects_negative_dip(self):
        with pytest.raises(GraphonError):
            cosine_kernel(1.0, 1.5)

    def test_cosine_rejects_an_overflowing_bound(self):
        # base + amplitude cos overflowed in validate's spot grid, a numpy
        # warning (an error here); the largest finite pair still validates
        with pytest.raises(GraphonError, match="cosine kernel values overflow"):
            cosine_kernel(1e308, 1e308)
        assert cosine_kernel(8e307, 8e307).validate()

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

    @pytest.mark.parametrize("cutoff", [0.0, np.pi, 4.0, -0.5])
    def test_small_world_cutoff_domain(self, cutoff):
        with pytest.raises(GraphonError, match=r"cutoff must lie in \(0, pi\)"):
            small_world_kernel(1.5, 0.1, cutoff)

    def test_small_world_needs_high_above_low(self):
        with pytest.raises(GraphonError, match="needs high >= low"):
            small_world_kernel(0.1, 1.5, 0.5)

    def test_non_finite_kernel_rejected(self):
        spec = dataclasses.replace(constant_kernel(1.0),
                                   kernel=lambda x, y: np.where(np.asarray(x) == y, np.inf, 1.0))
        with pytest.raises(GraphonError, match=r"kernel not finite on spot grid \(constant\)"):
            spec.validate()

    def test_lipschitz_spot_check(self):
        # |J| <= 1 = bound, but the slope is 5 on the 64-point spot grid
        steep = dataclasses.replace(constant_kernel(1.0),
                                    kernel=lambda x, y: np.sin(5.0 * (np.asarray(x) - y)))
        with pytest.raises(GraphonError, match=r"Lipschitz spot check failed: slope .* > bound 1"):
            steep.validate()
        assert dataclasses.replace(steep, lipschitz_exempt=True).validate()


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

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_probability_overflow_names_first_row_argmax(self, symmetric):
        # phi_N * bound > 1 proposes every pair; the error names the first
        # row in order with phi_N |J| > 1 + 1e-12, at that row's argmax
        N, phi = 40, 0.6
        spec = GraphonSpec(kernel=lambda x, y: 1.0 + np.sin(x) * np.cos(np.asarray(y) - 1.0),
                           bound=2.0, symmetric=symmetric, family="skewed")
        x = spec.positions(N)
        for j in range(N):
            ks = np.arange(j + 1, N) if symmetric else np.delete(np.arange(N), j)
            p = phi * np.abs(spec.kernel(x[j], x[ks]))
            if np.any(p > 1.0 + 1e-12):
                expected = (j, int(ks[np.argmax(p)])), float(p.max())
                break
        assert expected[0][0] > 0
        with pytest.raises(ProbabilityOverflowError) as exc:
            sample_network(spec, N, phi, seed=0)
        assert (exc.value.pair, exc.value.value) == expected

    def test_kernel_above_its_bound_rejected(self):
        # with q = phi_N * bound < 1, thinning by |J| / bound would silently
        # under-sample a pair whose |J| exceeds the stated bound
        wrong = GraphonSpec(kernel=constant_kernel(0.6).kernel, bound=0.5, symmetric=True,
                            family="constant")
        with pytest.raises(GraphonError, match="stated bound"):
            sample_network(wrong, 50, 0.5, seed=0)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_bounded_kernel_nan_rejected(self, symmetric):
        # a NaN p fails every comparison, so thinning once dropped its pair
        # silently where the unbounded walk raises
        holed = GraphonSpec(kernel=lambda x, y: np.where(np.asarray(y) > 3.0, np.nan, 0.5),
                            bound=1.0, symmetric=symmetric, family="holed")
        with pytest.raises(GraphonError, match=r"holed\) is NaN at pair \(\d+, \d+\)"):
            sample_network(holed, 200, 1.0, seed=0)

    def test_unbounded_kernel_increasing_along_rows_rejected(self):
        rising = GraphonSpec(kernel=lambda x, y: np.asarray(x) * np.asarray(y), bound=np.inf,
                             symmetric=True, family="rising", domain="unit-interval")
        with pytest.raises(GraphonError, match="non-increasing"):
            sample_network(rising, 50, 0.5, seed=0)

    def test_power_law_degree_profile(self):
        # P(J=1) proportional to (1-b)^2 (x_j x_k)^(-b); sampled in the
        # sparse regime (phi < 1) where the min(1, .) clipping is inactive,
        # the degree profile follows x^-b
        b = 0.3
        spec = power_law_kernel(b)
        N = 4000
        net = sample_network(spec, N, 0.05, seed=9)
        deg = degrees(net).astype(float)
        x = net.positions
        sel = (x > 0.02) & (deg > 0)
        slope = np.polyfit(np.log(x[sel]), np.log(deg[sel]), 1)[0]
        assert slope == pytest.approx(-b, abs=0.05)

    def test_kernel_evaluated_once_per_pair(self):
        # J equals its bound, so thinning keeps every proposal: the sampled
        # pairs are the proposals, and each was evaluated exactly once
        N = 50
        base = constant_kernel(0.5)
        evaluated = []

        def counting(x, y):
            out = base.kernel(x, y)
            j, k = np.broadcast_arrays(np.rint(np.asarray(x) * N / TWO_PI),
                                       np.rint(np.asarray(y) * N / TWO_PI))
            evaluated.extend(zip(j.ravel().astype(int).tolist(), k.ravel().astype(int).tolist()))
            return out

        spec = GraphonSpec(kernel=counting, bound=0.5, symmetric=True, family="constant")
        net = sample_network(spec, N, 0.5, seed=1)
        assert len(set(evaluated)) == len(evaluated)
        upper = net.rows < net.cols
        assert sorted(evaluated) == list(zip(net.rows[upper].tolist(), net.cols[upper].tolist()))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_sparse_sampling_evaluates_order_edges(self, symmetric):
        # the cost guard: at N = 20,000 and phi_N = N^-0.65 all pairs would
        # be 2e8 (4e8 directed) evaluations; the proposals number q times the
        # pairs, with q = phi_N * bound, and twice that is a generous ceiling
        N = 20_000
        phi = density_from_degree_exponent(N, 0.35)
        spec, count = counted(cosine_kernel(1.0, 0.5), symmetric=symmetric)
        sample_network(spec, N, phi, seed=1)
        pairs = N * (N - 1) // (2 if symmetric else 1)
        assert 0 < count[0] <= 2 * phi * spec.bound * pairs

    def test_power_law_sampling_evaluates_order_edges(self):
        # rank 1: the unclipped expected upper-triangle edge count is
        # phi c ((sum x^-b)^2 - sum x^-2b) / 2; the row walks propose about
        # one pair per row and one per edge, and twice that is the ceiling
        N, b = 20_000, 0.3
        phi = density_from_degree_exponent(N, 0.35)
        spec, count = counted(power_law_kernel(b))
        net = sample_network(spec, N, phi, seed=1)
        xb = net.positions ** -b
        edges = phi * (1 - b) ** 2 * (xb.sum() ** 2 - (xb ** 2).sum()) / 2
        assert len(net.rows) > 0 and count[0] <= 2 * (N + edges)

    def test_signed_kernel_edges_follow_its_sign(self):
        # -1 edges only where J < 0, +1 only where J > 0, and the -1
        # count within a binomial interval of sum phi |J| over J < 0 pairs
        N, phi = 300, 1.0
        spec = signed_cosine()
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

    @pytest.mark.parametrize("phi", [0.0, -0.5, np.nan])
    def test_density_must_be_positive(self, phi):
        with pytest.raises(GraphonError, match="phi_N must be positive"):
            sample_network(constant_kernel(1.0), 10, phi, seed=0)

    def test_asymmetric_sampling_independent_directions(self):
        spec = directed_constant()
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
        assert row_dense(net, 2)[0] == 1.0
        assert row_dense(net, 1)[0] == -1.0

    def test_coupling_rules_enforced_at_construction(self):
        def build(rows, cols, w):
            return Network(N=3, positions=np.zeros(3), rows=np.array(rows), cols=np.array(cols),
                           weights=np.array(w, dtype=float), phi_N=1.0, seed=0, family="constant")

        for rows, cols, w in (([0], [3], [1]), ([-1], [0], [1]), ([0], [1], [2]),
                              ([0], [1], [0.5]), ([0, 0], [1, 1], [1, -1])):
            with pytest.raises(GraphonError):
                build(rows, cols, w)
        net = build([1, 0], [1, 2], [0, -1])  # self-loops and zero weights are allowed
        assert list(net.rows) == [0, 1] and list(degrees(net)) == [1, 1, 0]

    @pytest.mark.parametrize("changes", [
        {"N": 0, "positions": np.zeros(0)}, {"N": -3, "positions": np.zeros(0)},
        {"N": 3.0}, {"phi_N": 0.0}, {"phi_N": -1.0}, {"phi_N": np.nan}, {"phi_N": np.inf},
        {"positions": np.zeros(2)}, {"positions": np.zeros((3, 1))}, {"weights": np.ones(1)},
    ], ids=["N-zero", "N-negative", "N-float", "phi-zero", "phi-negative", "phi-nan",
            "phi-inf", "positions-short", "positions-2d", "weights-longer"])
    def test_scalars_and_shapes_checked_at_construction(self, changes):
        empty = np.zeros(0, dtype=np.int64)
        args = dict(N=3, positions=np.zeros(3), rows=empty, cols=empty, weights=empty,
                    phi_N=1.0, seed=0, family="constant")
        Network(**args)
        with pytest.raises(GraphonError):
            Network(**{**args, **changes})

    def test_non_integer_indices_rejected(self):
        def build(rows, cols):
            return Network(N=3, positions=np.zeros(3), rows=rows, cols=cols, weights=[1],
                           phi_N=1.0, seed=0, family="constant")

        for rows, cols in (([0.7], [1]), ([0], [1.2]), ([np.nan], [1])):
            with pytest.raises(GraphonError, match="integers"):
                build(rows, cols)
        net = build([2.0], np.array([1], dtype=np.uint8))  # integral values are indices
        assert net.rows.dtype == np.int64 and (net.rows[0], net.cols[0]) == (2, 1)


def signed_directed_triples(N, density, rng):
    """A Network from shuffled random triples with J != J^T, weights in
    {-1, 0, +1} and self-loops; column N - 1 has no in-neighbours."""
    mask = rng.random((N, N)) < density
    mask[:, -1] = False
    rows, cols = np.nonzero(mask)
    weights = rng.choice([-1.0, 0.0, 1.0], len(rows))
    perm = rng.permutation(len(rows))
    return Network(N=N, positions=np.zeros(N), rows=rows[perm], cols=cols[perm],
                   weights=weights[perm], phi_N=1.0, seed=0, family="constant")


def lexsorted(N, rows, cols, weights):
    """The canonical arrays by np.lexsort: rows, cols, int64 weights, indptr."""
    order = np.lexsort((cols, rows))
    rows, cols = np.asarray(rows, dtype=np.int64)[order], np.asarray(cols, dtype=np.int64)[order]
    return rows, cols, np.asarray(weights)[order].astype(np.int64), np.searchsorted(rows, np.arange(N + 1))


class TestPackedKeySort:
    """Construction sorts the entries once as int64 keys (j N + k) 3 + (w + 1)."""

    @pytest.mark.parametrize("N,density,seed,dtype", [
        (1, 0.0, 0, float), (1, 1.0, 1, float), (7, 0.0, 2, float), (23, 0.3, 3, float),
        (60, 0.2, 4, float), (31, 0.5, 5, bool), (45, 0.1, 6, np.int8),
    ])
    def test_equals_lexsort_oracle(self, N, density, seed, dtype):
        rng = np.random.default_rng(seed)
        rows, cols = np.nonzero(rng.random((N, N)) < density)
        choices = [False, True] if dtype is bool else [-1, 0, 1]
        weights = rng.choice(choices, len(rows)).astype(dtype)
        if len(rows) > 50:
            assert np.any(rows == cols) and np.any(weights == 0) and np.any(weights == 1)
        want = lexsorted(N, rows, cols, weights)
        perm = rng.permutation(len(rows))
        for order in (perm, perm[::-1], np.arange(len(rows))[::-1]):
            net = Network(N=N, positions=np.zeros(N), rows=rows[order], cols=cols[order],
                          weights=weights[order], phi_N=1.0, seed=0, family="constant")
            for got, ref in zip((net.rows, net.cols, net.weights, net.indptr), want):
                assert got.dtype == np.int64 and np.array_equal(got, ref)

    @pytest.mark.parametrize("w1,w2", [(1, 1), (-1, -1), (0, 0), (1, -1), (-1, 0)])
    @pytest.mark.parametrize("far", [False, True])
    def test_repeated_pair_rejected(self, w1, w2, far):
        N = 40
        rows, cols = np.nonzero(np.random.default_rng(7).random((N, N)) < 0.2)
        fresh = ~((rows == 5) & (cols == 9))
        rows, cols, weights = list(rows[fresh]), list(cols[fresh]), [1] * int(fresh.sum())
        # two copies of (5, 9): first and next to last in the input, or side by side
        for at, w in zip((0, len(rows)) if far else (len(rows) // 2,) * 2, (w1, w2)):
            rows.insert(at, 5)
            cols.insert(at, 9)
            weights.insert(at, w)
        with pytest.raises(GraphonError, match="repeated"):
            Network(N=N, positions=np.zeros(N), rows=np.array(rows), cols=np.array(cols),
                    weights=np.array(weights), phi_N=1.0, seed=0, family="constant")

    def test_key_overflow_rejected_before_any_allocation(self):
        N = 1 << 31  # 3 N^2 = 3 * 2^62 >= 2^63
        tracemalloc.start()
        try:
            with pytest.raises(GraphonError, match="2\\^63"):
                Network(N=N, positions=np.zeros(0), rows=[0], cols=[0], weights=[1],
                        phi_N=1.0, seed=0, family="constant")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("spec, N, phi, seed, entries, digest", [
        (cosine_kernel(1.0, 0.5), 500, 0.05, 1, 12444,
         "20eeb6efb7a7e09415fb01943e79210c7d274a4b87bfc0e83b76f3101a503efb"),
        (small_world_kernel(1.5, 0.1, 0.5), 500, 0.05, 2, 4002,
         "7c49a8481fb2f1bbe9a779352d947338b95d7ecf3df243a2facea146e79688d6"),
        (power_law_kernel(0.3), 500, 0.05, 3, 12544,
         "e89106164bf29739e6781030e976ccdf626acaedb099f24e8b5664b57e779a2c"),
        (dataclasses.replace(signed_cosine(), symmetric=False), 400, 0.5, 4, 25431,
         "70ffe48498eafd336d24ab5e7679d36638723152f6de1c54c8a0737addcefaa5"),
    ], ids=["cosine", "small-world", "power-law", "signed-directed"])
    def test_sampled_arrays_pinned(self, spec, N, phi, seed, entries, digest):
        # sha256 of the int64 rows, cols, weights and indptr the lexsort
        # construction gave for these seeds
        net = sample_network(spec, N, phi, seed=seed)
        h = hashlib.sha256()
        for arr in (net.rows, net.cols, net.weights, net.indptr):
            assert arr.dtype == np.int64
            h.update(arr.tobytes())
        assert len(net.rows) == entries and h.hexdigest() == digest


class TestInNeighbourIndex:
    """The cached index both event loops read, against the stable argsort of
    the columns that each loop made for itself before."""

    @pytest.mark.parametrize("N,density,seed", [(1, 0.0, 0), (5, 0.0, 1), (2, 1.0, 2),
                                                (17, 0.3, 3), (40, 0.15, 4)])
    def test_equals_stable_argsort_grouping(self, N, density, seed):
        net = signed_directed_triples(N, density, np.random.default_rng(seed))
        if len(net.rows) > 50:
            assert np.any(net.rows == net.cols) and np.any(net.weights == 0)
            assert np.any(net.weights < 0) and np.any(net.weights > 0)
        assert "_in_index" not in vars(net)  # built on first use only
        idx = net._in_index
        order = np.argsort(net.cols, kind="stable")
        assert np.array_equal(idx.order, order)
        assert np.array_equal(idx.ptr, np.searchsorted(net.cols[order], np.arange(N + 1)))
        plus = net.weights == 1
        heads = net.cols[plus]
        by_head = np.argsort(heads, kind="stable")
        start = np.searchsorted(heads[by_head], np.arange(N + 1))
        assert np.array_equal(idx.stubs, net.rows[plus][by_head])
        assert np.array_equal(idx.start, start) and np.array_equal(idx.n_stubs, np.diff(start))
        assert idx.k_max == int(np.diff(start).max(initial=0))
        assert idx.signed == bool(np.any(net.weights < 0))
        for k in range(N):  # column k: its in-neighbours by row
            group = order[idx.ptr[k]:idx.ptr[k + 1]]
            assert list(net.rows[group]) == sorted(net.rows[net.cols == k])
        assert idx.ptr[N] - idx.ptr[N - 1] == 0 and net._in_index is idx

    def test_arrays_read_only(self):
        idx = signed_directed_triples(12, 0.4, np.random.default_rng(5))._in_index
        for name in ("order", "ptr", "stubs", "start", "n_stubs"):
            arr = getattr(idx, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0


class TestSamplingLaw:
    """Each pair's +1 and -1 frequencies over many seeds against
    min(1, phi_N max(+-J, 0)).  A pair with p in (0, 1) must lie within
    5 binomial standard deviations, and the chi-square sum over those pairs
    within its mean plus 5 standard deviations (dof + 5 sqrt(2 dof)); a
    pair with p = 0 must never appear and one with p = 1 always."""

    SEEDS = 2000

    @pytest.mark.parametrize("spec, N, phi", [
        (cosine_kernel(1.0, 0.5), 16, 0.4),
        (directed_constant(), 12, 0.5),
        (signed_cosine(), 16, 1.0),
        (power_law_kernel(0.6), 16, 2.0),
    ], ids=["cosine", "directed-constant", "signed-cosine", "clipped-power-law"])
    def test_pair_frequencies(self, spec, N, phi):
        x = spec.positions(N)
        J = np.asarray(spec.kernel(x[:, None], x[None, :]), dtype=float)
        pairs = np.triu(np.ones((N, N), dtype=bool), 1) if spec.symmetric else ~np.eye(N, dtype=bool)
        plus, minus = np.zeros((N, N)), np.zeros((N, N))
        for seed in range(self.SEEDS):
            net = sample_network(spec, N, phi, seed=seed)
            plus[net.rows, net.cols] += net.weights == 1
            minus[net.rows, net.cols] += net.weights == -1
        S = self.SEEDS
        for count, p in ((plus, np.minimum(phi * np.maximum(J, 0.0), 1.0)),
                         (minus, np.minimum(phi * np.maximum(-J, 0.0), 1.0))):
            c, p = count[pairs], p[pairs]
            assert np.all(c[p == 0.0] == 0) and np.all(c[p == 1.0] == S)
            mid = (p > 0.0) & (p < 1.0)
            z = (c[mid] - S * p[mid]) / np.sqrt(S * p[mid] * (1.0 - p[mid]))
            dof = int(mid.sum())
            assert np.all(np.abs(z) <= 5.0)
            assert np.sum(z ** 2) <= dof + 5.0 * np.sqrt(2.0 * dof)
        assert (plus + minus)[pairs].sum() > 0


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
        eta = eta_diagnostic(net, spec)
        assert np.allclose(eta, 0.0, atol=1e-12)

    def test_empty_graph_value(self):
        J0 = 0.7
        spec = constant_kernel(J0)
        N = 40
        net = Network(N=N, positions=spec.positions(N),
                      rows=np.zeros(0, dtype=np.int64), cols=np.zeros(0, dtype=np.int64),
                      weights=np.zeros(0), phi_N=1.0, seed=0, family="constant")
        eta = eta_diagnostic(net, spec)
        assert np.allclose(eta, N * J0)
        assert eta.mean() == pytest.approx(N * J0)

    def test_sign_trick_dominates_random_test_vectors(self):
        spec = cosine_kernel(1.0, 0.5)
        N = 150
        net = sample_network(spec, N, 0.12, seed=8)
        eta = eta_diagnostic(net, spec)
        rng = np.random.default_rng(0)
        x = net.positions
        for _ in range(25):
            a = rng.integers(-1, 2, N).astype(float)
            j = int(rng.integers(0, N))
            d = row_dense(net, j) / net.phi_N - np.asarray(spec.kernel(x[j], x))
            assert abs(float(d @ a)) <= eta[j] + 1e-9

    def test_mean_eta_per_node_bounded(self):
        # the exact sign-trick value is an L1 row norm: O(N) per node with
        # per-pair mean 2 J (1 - phi J); check the normalized value stays
        # below its analytic ceiling across a size sweep
        spec = cosine_kernel(1.0, 0.5)
        for N in (300, 600):
            phi = density_from_degree_exponent(N, 0.7)
            net = sample_network(spec, N, phi, seed=21)
            eta = eta_diagnostic(net, spec)
            ceiling = 2.0 * spec.bound
            assert eta.mean() / N <= ceiling


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
        write_network(p, shuffled)
        back = read_network(p)
        assert np.array_equal(back.positions, shuffled.positions)
        # the canonical grid is what a file without the block reads back as
        write_network(p, net)
        assert "positions" not in p.read_text().splitlines()
        assert np.array_equal(read_network(p).positions, net.positions)

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

    @pytest.mark.parametrize("rows, cols, w, match", [
        ([0, 1], [2, 1], [1, 1], r"\(1, 1, 1\) is a self-loop"),
        ([0, 1], [1, 2], [-1, 0], r"\(1, 2, 0\) is of weight 0"),
    ], ids=["self-loop", "zero-weight"])
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, rows, cols, w, match):
        # a Network may hold self-loops and zero weights; a network file may not
        net = Network(N=3, positions=np.zeros(3), rows=np.array(rows), cols=np.array(cols),
                      weights=np.array(w), phi_N=1.0, seed=0, family="constant")
        p = tmp_path / "net.txt"
        with pytest.raises(GraphonError, match=match):
            write_network(p, net)
        assert not p.exists()


class TestMalformedNetworkFile:
    HEADER = "3 0.5 0 constant\n"

    def read(self, tmp_path, body):
        p = tmp_path / "net.txt"
        p.write_text(self.HEADER + body)
        return read_network(p)

    def test_edge_line_field_count(self, tmp_path):
        for body in ("0 1\n", "0 1 1 7\n", "0 1\n1 2\n", "0 1 1\n1 2\n", "0 1 1\n\n1 2 1 1\n"):
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

    @pytest.mark.parametrize("header", ["-3 0.1 0 circle", "0 0.1 0 circle", "3 nan 0 circle",
                                        "3 -1 0 circle", "1000000000000 0.1 0 circle"])
    def test_header_scalars(self, tmp_path, header):
        # checked before the positions are built: N = 10^12 is no MemoryError
        p = tmp_path / "net.txt"
        p.write_text(header + "\n")
        with pytest.raises(GraphonError, match="malformed network file"):
            read_network(p)

    def test_integer_indices_and_unit_weights_as_floats(self, tmp_path):
        net = self.read(tmp_path, "0 1 1.0\n\n2 0 -1.0\n")
        assert list(net.rows) == [0, 2] and list(net.weights) == [1, -1]
        for body in ("0.0 1 1\n", "0 1.0 1\n", "0 x 1\n", "0 1 nan\n", "0 99999999999999999999 1\n"):
            with pytest.raises(GraphonError, match="malformed network file"):
                self.read(tmp_path, body)

    def test_empty_edge_block(self, tmp_path):
        for body in ("", "\n\n"):
            assert len(self.read(tmp_path, body).rows) == 0

    def test_positions_block_length(self, tmp_path):
        for body in ("positions\n0.0\n1.0\nedges\n0 1 1\n",
                     "positions\n0.0\n1.0\n2.0\n3.0\nedges\n0 1 1\n"):
            with pytest.raises(GraphonError):
                self.read(tmp_path, body)
        with pytest.raises(GraphonError, match="missing 'edges' marker"):
            self.read(tmp_path, "positions\n0.0\n1.0\n2.0\n0 1 1\n")
