"""Time one set-up in a fresh process: import gpagg, then generate and
normalize every draw of a workload. Prints one JSON line.

    python3 perfbench/setup_probe.py <scale> <workload> <seed>

``run.py`` starts several of these and reports their median as setup_s.
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import gpagg  # noqa: E402,F401 - the import is what is being timed

imported = time.perf_counter()
import pipeline  # noqa: E402
from workloads import SCALES  # noqa: E402

scale, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
pipeline.make_draws(SCALES[scale][workload], seed)
done = time.perf_counter()
print(json.dumps({"import_s": imported - started, "generate_s": done - imported, "setup_s": done - started}))
