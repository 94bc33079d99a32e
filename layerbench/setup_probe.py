"""One set-up of a workload in a fresh process: import krrdp, build the RunConfig.

``run.py`` starts this script and times it from the start of the process to
the ``ready`` line, which is the set-up a ``krrdp price`` run pays before its
first repetition.

    python3 layerbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from krrdp.config import build_run_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

build_run_config(WORKLOADS[sys.argv[1]].entries(int(sys.argv[2])))
print("ready", flush=True)
