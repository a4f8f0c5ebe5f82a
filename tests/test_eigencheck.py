import numpy as np
import pytest

from conesphere.eigencheck import radial_residual
from conesphere.suites import eigen_suite


class TestRadialResidual:
    def test_reference_grid_bound(self):
        assert radial_residual(1001, 0.1) < 1e-4

    def test_halving_contracts_by_four(self):
        r1 = radial_residual(501, 0.1)
        r2 = radial_residual(1001, 0.1)
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)

    def test_measured_order_is_two(self):
        orders = eigen_suite()["results"]["convergence_orders"]
        assert len(orders) == 2
        assert all(1.9 <= o <= 2.1 for o in orders)

    def test_negative_control(self):
        # cos(2r) is not an eigenvalue-2 eigenfunction: residual stays O(1).
        res = radial_residual(1001, 0.1, u=lambda r: np.cos(2.0 * r))
        assert res > 0.5

