"""Set-up probe, run in a fresh interpreter by ``bench/run.py``.

Usage: python3 bench/setup_child.py SRC_DIR P,E,N [P,E,N ...]

Times the import of ``padiclt`` from SRC_DIR plus one ``make_context`` per
(p, e, N) given, and prints the seconds it took.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import padiclt  # noqa: E402

for spec in sys.argv[2:]:
    padiclt.make_context(*(int(x) for x in spec.split(",")))
print(repr(time.perf_counter() - t0))
