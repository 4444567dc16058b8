"""Time the set-up a fresh interpreter pays before its first run.

Prints the seconds from before ``import gridfreq.cli`` to after
``load_config`` + ``build_plan`` of the config given as the only argument.
Nothing is imported ahead of the clock.
"""

import sys
import time

t0 = time.perf_counter()
from gridfreq.cli import build_plan, load_config  # noqa: E402

cfg, _ = load_config(sys.argv[1])
build_plan(cfg)
print(time.perf_counter() - t0)
