"""Measure one CLI invocation's set-up in a fresh interpreter.

    PERFBENCH_SPAWN=<time.monotonic() of the parent just before spawning> \\
        python3 perfbench/setup_probe.py <lyapexp argv>

Set-up is everything before the first engine call: interpreter start-up,
``import lyapexp.cli``, parsing the argv and loading its law or blocks
file.  It is timed from the parent's spawn time; CLOCK_MONOTONIC, which
``time.monotonic`` reads on Linux, is shared by all processes.  Prints
one JSON object.
"""

import json
import os
import sys
import time


def main():
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    t0 = time.perf_counter()
    import lyapexp.cli as cli
    import lyapexp.distributions as dist
    import lyapexp.highdim as highdim
    t1 = time.perf_counter()
    args = cli.build_parser().parse_args(sys.argv[1:])
    t2 = time.perf_counter()
    for key in ("spec", "field_law"):
        if getattr(args, key, None):
            dist.load_spec(getattr(args, key))
    if getattr(args, "blocks", None):
        highdim.load_blocks(args.blocks)
    setup_s = time.monotonic() - spawned
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": setup_s, "import_s": t1 - t0,
                      "parse_s": t2 - t1, "load_s": t3 - t2}))


if __name__ == "__main__":
    main()
