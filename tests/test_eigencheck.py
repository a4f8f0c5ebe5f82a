import math

import pytest

from conesphere.eigencheck import RadialGrid, convergence_orders, radial_residual
from conesphere.sphtrig import PI


class TestRadialResidual:
    def test_reference_grid_bound(self):
        assert radial_residual(RadialGrid(1001, 0.1)) < 1e-4

    def test_halving_contracts_by_four(self):
        r1 = radial_residual(RadialGrid(501, 0.1))
        r2 = radial_residual(RadialGrid(1001, 0.1))
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)

    def test_measured_order_is_two(self):
        orders = convergence_orders(1001, 0.1, refinements=2)
        assert all(1.9 <= o <= 2.1 for o in orders)

    def test_negative_control(self):
        # cos(2r) is not an eigenvalue-2 eigenfunction: residual stays O(1).
        res = radial_residual(RadialGrid(1001, 0.1),
                              u=lambda r: math.cos(2.0 * r))
        assert res > 0.5

    def test_independent_of_cone_factor(self):
        # The radial operator never sees the angular factor, so there is
        # nothing to vary: the residual is a pure function of the grid.
        a = radial_residual(RadialGrid(401, 0.2))
        b = radial_residual(RadialGrid(401, 0.2))
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(2, 0.1)
        with pytest.raises(ValueError):
            RadialGrid(100, 0.0)
        with pytest.raises(ValueError):
            RadialGrid(100, PI / 2)

