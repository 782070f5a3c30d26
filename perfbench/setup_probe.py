"""Time one workload's set-up in a fresh process.

Usage (run.py starts it):  python3 perfbench/setup_probe.py WORKLOAD [--trace]

The field contexts, subfield views and coset tables are cached per
process, so each CLI call pays this set-up again; a fresh process is the
only way to measure it more than once.  Prints one JSON object with
``setup_s`` and, with ``--trace``, the set-up's per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cosetcodes  # noqa: E402,F401  (set-up is timed after the import)

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, trace = argv[0], argv[1:] == ["--trace"]
    settings = workloads.WORKLOADS[name].settings()
    tr = tracer.Tracer()
    with tr.installed() if trace else nullcontext():
        start = time.perf_counter()
        workloads.setup(settings)
        elapsed = time.perf_counter() - start
    out = {"setup_s": elapsed}
    if trace:
        out["layers"] = metrics.setup_layer_metrics(tr.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
