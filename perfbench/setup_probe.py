"""Cold set-up probe, run in a fresh interpreter by run.py.

Times ``import degstab`` (which selects the backend) plus the first build
and self-validation of the twelve gallery graphs and the four stored
weightings. Only then does it import the calibration probe, so nothing
degstab needs is loaded early, and times the probe three times in this
same process. Prints the set-up seconds, the median probe seconds and the
backend name.

    python3 perfbench/setup_probe.py SRC_DIR
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import degstab  # noqa: E402
from degstab import gallery  # noqa: E402

for tag in gallery.SEQUENCE:
    gallery.gallery_graph(tag)
for tag in gallery.WEIGHTED_TAGS:
    gallery.gallery_weighting(tag)
elapsed = time.perf_counter() - start

import calibrate  # noqa: E402

probe = sorted(calibrate.probe() for _ in range(3))[1]
print(elapsed, probe, degstab.backend_name())
