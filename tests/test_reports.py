import math

import numpy as np
import pytest

from conesphere import cli
from conesphere.metric import ConeAngleSpec
from conesphere.reports import SCAN_CSV_HEADER, render_csv
from conesphere.solver import ScanGrid, defect_scan


def expected_line(lengths, residuals, feasible):
    cells = [format(v, ".17g") for v in [*lengths, *residuals]]
    return ",".join(cells + ["1" if feasible else "0"])


class TestRenderCsv:
    def test_cells_match_format_17g(self):
        lengths = np.array([[0.1, 1.0 / 3.0, 2.0, 2.5, -0.0, 1e-300],
                            [math.nan, math.nan, 0.3, 2.6, math.nan, math.nan]])
        residuals = np.array([[1e-16, -2.5e-15, 0.0, math.pi],
                              [math.nan] * 4])
        feasible = np.array([True, False])
        lines = render_csv(ScanGrid(lengths, residuals, feasible)).split("\n")
        assert lines[0] == ",".join(SCAN_CSV_HEADER)
        assert lines[1:] == [expected_line(*row) for row in
                             zip(lengths.tolist(), residuals.tolist(),
                                 feasible.tolist())] + [""]
        assert lines[2].startswith("nan,nan,0.29999999999999999,")

    def test_every_row_matches_the_cell_oracle(self):
        # About 8k rows drawn from a small pool, so cells repeat across rows
        # and columns.  l1 alternates 0.0 and -0.0, and nan comes with both
        # sign bits: a key that compared floats would merge the zeros.
        pool = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-300,
                0.1, 1.0 / 3.0, 2.0, math.pi, -2.5e-15]
        rng = np.random.default_rng(7)
        n = 8003
        lengths = rng.choice(pool, (n, 6))
        lengths[:, 0] = [0.0, -0.0] * (n // 2) + [0.0]
        residuals = rng.choice(pool, (n, 4))
        feasible = rng.uniform(size=n) < 0.5
        assert set(np.signbit(lengths[np.isnan(lengths)])) == {False, True}
        assert 0 < feasible.sum() < n
        lines = render_csv(ScanGrid(lengths, residuals, feasible)).splitlines()
        assert lines[1:] == [expected_line(*row) for row in
                             zip(lengths.tolist(), residuals.tolist(),
                                 feasible.tolist())]
        assert [line.split(",")[0] for line in lines[1:4]] == ["0", "-0", "0"]


@pytest.mark.parametrize("branch, lo, hi", [("acute", "2.0", "2.4"),
                                            ("obtuse", "0.6", "1.0")])
def test_benchmark_windows_through_the_cli(tmp_path, branch, lo, hi):
    # The two 101^2 scan windows the benchmark writes.  The closure is
    # symmetric in (l3, l4) there, so most cells repeat.
    out = tmp_path / "scan.csv"
    cli.main(["scan", "--alpha", "1", "--beta", "2", "--eps", "0.05",
              "--branch", branch, "--l3-min", lo, "--l3-max", hi,
              "--l4-min", lo, "--l4-max", hi, "--grid", "101",
              "--out", str(out)])
    axis = np.linspace(float(lo), float(hi), 101)
    grid = defect_scan(ConeAngleSpec(1.0, 2.0), np.repeat(axis, 101),
                       np.tile(axis, 101), 0.05, branch)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SCAN_CSV_HEADER)
    assert lines[1:] == [expected_line(*row) for row in
                         zip(grid.lengths.tolist(), grid.residuals.tolist(),
                             grid.feasible.tolist())]
    cells = ",".join(lines[1:]).split(",")
    assert len(set(cells)) < len(cells) / 3
