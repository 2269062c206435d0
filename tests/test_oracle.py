"""The library's channel routes against the exact model of tests/helpers.py.

The model computes over Gaussian rationals from the float inputs and rounds
once, so it gives the correctly rounded result. It is tested first on closed
forms. Then each route is pinned against it: bit for bit where the route
rounds once, and to the bound measured on these inputs elsewhere, with the
rounding steps that bound covers named.
"""

from fractions import Fraction

import numpy as np
import pytest

from helpers import exact_channel, exact_marginals, exact_probabilities
from qteleport.linalg import identity, partial_trace
from qteleport.protocol import (
    RESOURCE_INDICES,
    THREE_QUBITS,
    _marginals,
    build_initial_state,
    kraus_set,
    measurement_branches,
    teleport_channel,
)
from qteleport.states import ket_to_density, random_density, random_qubit_state
from qteleport.verify import corrupted_for_negative_control


def _product_input(resource):
    """sigma (x) beta_resource for a random sigma, and sigma; both hold only exact products."""
    psi = random_qubit_state(np.random.default_rng(resource))
    return build_initial_state(psi, resource), ket_to_density(psi.ket()).matrix


def _random_inputs(resource):
    rng = np.random.default_rng(100 + resource)
    return [random_density(rng, 8) for _ in range(5)]


def _quarter_trace(sigma):
    """Tr(sigma) / 4, rounded once: sigma's float trace need not be 1, and the model keeps what it is."""
    quarter = [(Fraction(sigma[0, 0].real) + Fraction(sigma[1, 1].real)) / 4,
               (Fraction(sigma[0, 0].imag) + Fraction(sigma[1, 1].imag)) / 4]
    return complex(*map(float, quarter))


def _largest_ulp(m):
    """One unit in the last place of the largest entry of m, the unit of the bounds below."""
    return float(np.spacing(np.abs(m).max()))


@pytest.mark.parametrize("resource", RESOURCE_INDICES)
class TestTheExactModel:
    def test_the_channel_of_a_product_input_is_a_quarter_of_the_identity_beside_sigma(self, resource):
        rho, sigma = _product_input(resource)
        assert np.array_equal(exact_channel(rho.matrix, kraus_set(resource)), np.kron(identity(4) / 4, sigma))

    def test_each_branch_of_a_product_input_has_a_quarter_of_the_trace(self, resource):
        rho, sigma = _product_input(resource)
        assert exact_probabilities(rho.matrix, kraus_set(resource)) == (_quarter_trace(sigma).real,) * 4

    def test_the_marginals_of_the_closed_form(self, resource):
        _, sigma = _product_input(resource)
        marginal_12, marginal_3 = exact_marginals(np.kron(identity(4) / 4, sigma))
        assert np.array_equal(marginal_12, identity(4) * _quarter_trace(sigma))
        assert np.array_equal(marginal_3, sigma)

    def test_the_model_reads_the_operators_of_its_set(self, resource):
        rho = _random_inputs(resource)[0]
        ks = kraus_set(resource)
        assert not np.array_equal(exact_channel(rho.matrix, corrupted_for_negative_control(ks)),
                                  exact_channel(rho.matrix, ks))


@pytest.mark.parametrize("resource", RESOURCE_INDICES)
class TestLibraryRoutesAgainstTheExactModel:
    def test_the_channel_of_a_product_input_is_exact(self, resource):
        rho, _ = _product_input(resource)
        ks = kraus_set(resource)
        assert np.array_equal(teleport_channel(rho, ks).matrix, exact_channel(rho.matrix, ks))

    def test_the_channel_is_within_one_ulp_of_its_largest_entry(self, resource):
        # Rounding steps: each entry of K rho and of (K rho) K^dag is a sum of two exact products, rounded once,
        # and the four outcome terms are added in order, rounded three times. So the matmul form is not correctly
        # rounded: 780 of the 2,560 entries of 40 such outputs differed from the model, by at most 2.78e-17.
        ks = kraus_set(resource)
        for rho in _random_inputs(resource):
            exact = exact_channel(rho.matrix, ks)
            assert np.abs(teleport_channel(rho, ks).matrix - exact).max() <= _largest_ulp(exact)

    def test_the_branch_probabilities_are_within_one_ulp(self, resource):
        # Rounding steps: each entry of P rho and of (P rho) P is a sum of two exact products, rounded once,
        # and the trace adds eight diagonal entries, rounded seven times.
        ks = kraus_set(resource)
        for rho in _random_inputs(resource):
            computed = [p for p, _ in measurement_branches(rho, ks)]
            for p, exact in zip(computed, exact_probabilities(rho.matrix, ks)):
                assert abs(p - exact) <= np.spacing(exact)

    def test_the_marginals(self, resource):
        # The reduction onto factors 0 and 1 adds two entries, rounded once, so it is exact bit for bit.
        # The reduction onto factor 2 adds four, rounded three times: within one ulp of its largest entry.
        ks = kraus_set(resource)
        for rho in _random_inputs(resource):
            out = teleport_channel(rho, ks)
            exact_12, exact_3 = exact_marginals(out.matrix)
            for marginal_12, marginal_3 in (
                [m.matrix for m in _marginals(out)],
                [partial_trace(out.matrix, THREE_QUBITS, keep) for keep in ({0, 1}, {2})],
            ):
                assert np.array_equal(marginal_12, exact_12)
                assert np.abs(marginal_3 - exact_3).max() <= _largest_ulp(exact_3)
