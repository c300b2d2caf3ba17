"""Tests for the MILP feasible-point check in the lpsolver wrapper."""

import numpy as np
from scipy import sparse

from repro.core.lpsolver import is_feasible_point


def knapsack(weights=(2.0, 3.0, 1.0), capacity=4.0):
    """``w'x <= capacity``, x binary: the model after the point, in
    :func:`is_feasible_point`'s argument order."""
    n = len(weights)
    matrix = sparse.csc_matrix(np.asarray(weights).reshape(1, -1))
    return matrix, np.array([-np.inf]), np.array([capacity]), np.ones(n), np.zeros(n), np.ones(n)


class TestValidateHint:
    def test_feasible_integral_hint_accepted(self):
        assert is_feasible_point(np.array([1.0, 0.0, 1.0]), *knapsack())

    def test_capacity_violation_rejected(self):
        assert not is_feasible_point(np.array([1.0, 1.0, 1.0]), *knapsack())

    def test_fractional_hint_rejected(self):
        assert not is_feasible_point(np.array([0.5, 0.0, 1.0]), *knapsack())

    def test_out_of_bounds_hint_rejected(self):
        assert not is_feasible_point(np.array([2.0, 0.0, 0.0]), *knapsack())

    def test_wrong_shape_rejected(self):
        assert not is_feasible_point(np.array([1.0, 0.0]), *knapsack())
