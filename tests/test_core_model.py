import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphonldp.core_model import (
    SIS_SPACE,
    ConstantRates,
    I,
    ModelError,
    SisParams,
    StateSpace,
    local_field,
    sis_rates,
)
from graphonldp.graphon import Network, constant_kernel, sample_network


def rate(fam, to_label, theta, from_label, w_s, w_i):
    """One channel's rate, read from a one-row ``rate_matrix`` call."""
    row = fam.rate_matrix(np.array([theta]), np.array([SIS_SPACE.index(from_label)]),
                          np.array([[w_s, w_i]]))
    return row[0, SIS_SPACE.index(to_label)]


class TestStateSpace:
    def test_sis_labels(self):
        assert SIS_SPACE.labels == ("S", "I")
        assert SIS_SPACE.size == 2

    def test_rejects_tiny_or_duplicate(self):
        with pytest.raises(ModelError):
            StateSpace(("S",))
        with pytest.raises(ModelError):
            StateSpace(("S", "S"))

    def test_codes_roundtrip(self):
        sp = StateSpace(("a", "b", "c"))
        assert list(sp.codes(["c", "a", "b"])) == [2, 0, 1]
        with pytest.raises(ModelError, match="unknown state label 'd'"):
            sp.codes(["a", "d"])


class TestSisRates:
    def test_no_infected_neighbors_no_infection(self):
        fam = sis_rates(SisParams(beta=1.0, alpha=1.0))
        assert rate(fam, "I", 0.0, "S", 0.5, 0.0) == 0.0

    def test_linear_form(self):
        fam = sis_rates(SisParams(beta=2.0, alpha=0.5))
        assert rate(fam, "I", 1.0, "S", 0.0, 0.3) == pytest.approx(0.6)

    def test_recovery_state_independent(self):
        fam = sis_rates(SisParams(beta=2.0, alpha=0.5))
        for w in ((0.0, 0.0), (1.0, 7.3)):
            assert rate(fam, "S", 2.0, "I", *w) == 0.5

    def test_self_transition_zero(self):
        fam = sis_rates(SisParams(beta=2.0, alpha=0.5))
        w = (0.1, 0.9)
        assert rate(fam, "S", 0.0, "S", *w) == 0.0
        assert rate(fam, "I", 0.0, "I", *w) == 0.0

    def test_bounded_below_flag(self):
        assert sis_rates(SisParams(beta=1.0, alpha=1.0)).bounded_below is False
        assert ConstantRates(SIS_SPACE, 0.7).bounded_below is True

    def test_invalid_params(self):
        with pytest.raises(ModelError):
            SisParams(beta=-1.0, alpha=1.0)
        with pytest.raises(ModelError):
            SisParams(beta=1.0, alpha=0.0)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 10.0))
    def test_infection_linear_in_field(self, w_i, scale):
        fam = sis_rates(SisParams(beta=1.7, alpha=0.3))
        base = rate(fam, "I", 0.0, "S", 0.0, w_i)
        scaled = rate(fam, "I", 0.0, "S", 0.0, scale * w_i)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)

    def test_rate_matrix_matches_eval(self):
        fam = sis_rates(SisParams(beta=2.0, alpha=0.5))
        theta = np.array([0.0, 1.0, 2.0])
        codes = np.array([0, 1, 0])
        w = np.array([[0.0, 0.3], [0.2, 0.1], [0.0, 0.0]])
        R = fam.rate_matrix(theta, codes, w)
        assert R[0, 1] == pytest.approx(0.6)
        assert R[1, 0] == pytest.approx(0.5)
        assert R[2, 1] == 0.0
        assert np.all(R[np.arange(3), codes] == 0.0)

    def test_rate_nonnegative(self):
        fam = sis_rates(SisParams(beta=2.0, alpha=0.5))
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 3, size=(50, 2))
        R = fam.rate_matrix(np.zeros(50), rng.integers(0, 2, 50), w)
        assert np.all(R >= 0)


def two_node_network(weight=1.0, phi=1.0):
    rows = np.array([0, 1])
    cols = np.array([1, 0])
    w = np.array([weight, weight])
    return Network(N=2, positions=np.array([0.0, np.pi]), rows=rows, cols=cols,
                   weights=w, phi_N=phi, seed=0, family="constant")


class TestLocalField:
    def test_all_susceptible_zero_infected_field(self):
        net = two_node_network()
        w = local_field(0, net, ["S", "S"])
        assert w[I] == 0.0

    def test_two_node_direct_sum(self):
        # N=2, J01=1, phi=1, neighbour infected: w_I = 1/(N phi) = 1/2
        net = two_node_network()
        w = local_field(0, net, ["S", "I"])
        assert w[I] == pytest.approx(0.5)
        assert w[SIS_SPACE.index("S")] == 0.0

    def test_index_out_of_range(self):
        net = two_node_network()
        with pytest.raises(IndexError):
            local_field(2, net, ["S", "S"])

    def test_dense_kernel_oracle(self):
        # sampled graphon field approaches N^-1 sum J(x_j, x_k) chi on large N
        spec = constant_kernel(0.8)
        N = 4000
        phi = 0.25
        net = sample_network(spec, N, phi, seed=11)
        rng = np.random.default_rng(1)
        config = rng.integers(0, 2, N)
        dense = np.mean(0.8 * (config == 1))
        for node in (0, 123, 2222):
            w = local_field(node, net, config)
            assert w[I] == pytest.approx(dense, abs=0.05)

    def test_bounded_by_kernel_bound(self):
        # with 0/1 couplings, w in [0, C_J] up to sampling margin
        spec = constant_kernel(0.8)
        net = sample_network(spec, 500, 0.3, seed=3)
        w = local_field(7, net, ["I"] * 500)
        assert 0.0 <= w[I] <= 3 * 0.8
