"""Set-up probe: a fresh interpreter that imports `conesphere.cli` and exits.

run.py times it from process start until the first line below arrives.
That line also carries the import times of numpy and of conesphere
itself; the second one the mean time of the reference loop.
Usage: python3 probe.py <checkout>/src
"""

import sys
import time

t0 = time.perf_counter()
src = sys.argv[1]
sys.path.insert(0, src)
import numpy  # noqa: E402

t1 = time.perf_counter()
import conesphere.cli  # noqa: E402

t2 = time.perf_counter()

import os  # noqa: E402

here = os.path.realpath(conesphere.cli.__file__)
status = "ready" if here.startswith(os.path.realpath(src) + os.sep) else "foreign"
sys.stdout.write(f"{status} {t1 - t0!r} {t2 - t1!r}\n")
sys.stdout.flush()

# Then how fast the host runs right now, to scale the set-up time.
from conebench import reference  # noqa: E402

sys.stdout.write(f"{reference.mean_time(20)!r}\n")
