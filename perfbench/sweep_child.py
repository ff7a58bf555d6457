"""One untraced sweep in a fresh interpreter.

    python3 perfbench/sweep_child.py CONFIG.json RESULT.json [--setup-only]

Imports ``topickit`` and ``topickit.cli``, builds the default stop-word
list (set-up that every CLI call pays), stamps the monotonic clock, times
the reference workload (``pace.py``), then calls ``run_experiment`` once,
times the reference again and writes the sweep's wall time, the
reference timings, the process's peak RSS and the cell counts to
RESULT.json.  ``--setup-only`` stops after the first reference.  The
parent stamps the same clock before it starts this process, so the
difference is the set-up time.
"""

import json
import resource
import sys
import time

from pace import time_reference
from topickit.cli import RunConfig, run_experiment
from topickit.corpus import StopwordList


def main(argv: list[str]) -> int:
    config_path, result_path = argv[0], argv[1]
    with open(config_path, encoding="utf-8") as fh:
        config = RunConfig(**json.load(fh))
    StopwordList()
    result = {"ready": time.monotonic()}
    result["reference_s"] = [time_reference()]
    if "--setup-only" not in argv:
        start = time.perf_counter()
        manifest = run_experiment(config)
        result["sweep_s"] = time.perf_counter() - start
        result["reference_s"].append(time_reference())
        result["cells"] = len(manifest.cells)
        result["failed"] = len(manifest.failures)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
