import math

import numpy as np

from conesphere import reports
from conesphere.reports import SCAN_CSV_HEADER, render_csv
from conesphere.solver import ScanGrid


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

    def test_every_row_across_chunks(self):
        n = 2 * reports._CSV_CHUNK + 3
        rng = np.random.default_rng(7)
        lengths = rng.uniform(0.0, math.pi, (n, 6))
        residuals = rng.normal(0.0, 1e-3, (n, 4))
        feasible = rng.uniform(size=n) < 0.5
        lines = render_csv(ScanGrid(lengths, residuals, feasible)).splitlines()
        assert lines[1:] == [expected_line(*row) for row in
                             zip(lengths.tolist(), residuals.tolist(),
                                 feasible.tolist())]
