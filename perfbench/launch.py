"""Run the `farey` command line from this checkout's src/, traced on request.

    python3 perfbench/launch.py <farey arguments>

With PERFBENCH_TRACE=1 in the environment the layer functions are wrapped
before the command runs (see tracer.py), and one line
`PERFBENCH_TRACE {json}` with the per-layer totals is written to stderr as
the process ends.  Stdout is left exactly as `farey` writes it.
"""

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def main() -> int:
    from fareysums import cli

    if os.environ.get("PERFBENCH_TRACE") != "1":
        return cli.main(sys.argv[1:])

    import fareysums
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(fareysums)
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("\nPERFBENCH_TRACE " + json.dumps(tracer.snapshot()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
