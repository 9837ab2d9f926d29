"""Record the reference results that the correctness gate compares against.

    python3 perfbench/record.py

Writes expected/deviation_scan.json (the catalog of seeded windows with
their anchors, and every deviation result) and expected/cli_sessions.json
(exit code and stdout digest of every session).  The files hold the outputs
of the program at the commit that defined the benchmark.  Re-record only
when the workload definitions change, never to absorb a change of output.
"""

from __future__ import annotations

import json
import random
from itertools import islice

from workloads import (
    CLI_SESSIONS,
    DEVIATION_FIXED,
    EXPECTED,
    DeviationScan,
    _random_reduced,
    digest,
    fresh_import,
    op_key,
    result_fields,
    run_child,
)

WINDOW_CATALOG_SIZE = 32
WINDOW_ORDER = 5_040
# Windows of one order and one length cost about the same, so the pass cost
# does not depend on which windows a seed picks, and the median operation of
# a pass falls among them.  Under the exact-mode budget, so sum_exact is
# checked as well.
WINDOW_TERMS = 4_500


def window_catalog(fs) -> list[list]:
    rng = random.Random("deviation_scan/catalog")
    n = WINDOW_ORDER
    catalog = []
    while len(catalog) < WINDOW_CATALOG_SIZE:
        p, q = _random_reduced(rng, 1, n)
        lo = fs.Fraction(p, q)
        last = list(islice(fs.farey.iter_window(n, lo, fs.ONE), WINDOW_TERMS - 1, WINDOW_TERMS))
        if not last:  # fewer than WINDOW_TERMS terms above lo
            continue
        anchor = fs.farey.rank_fast(n, lo).rank
        catalog.append(["window", n, [p, q], list(last[0]), anchor])
    return catalog


def record_deviation() -> None:
    catalog = window_catalog(fresh_import())
    record = {"window_catalog": [op_key(op) for op in catalog], "results": {}}
    workload = DeviationScan(0, record)
    workload.setup()
    for op in [*DEVIATION_FIXED, *catalog]:
        result = workload.run(op, workload.prepare(op))
        record["results"][op_key(op)] = result_fields(result)
    with open(EXPECTED / "deviation_scan.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_cli() -> None:
    results = {}
    for argv in CLI_SESSIONS:
        child = run_child(argv, traced=False)
        results[" ".join(argv)] = {
            "exit_code": child.code,
            "stdout_bytes": len(child.stdout),
            "stdout_sha256": digest(child.stdout),
        }
    with open(EXPECTED / "cli_sessions.json", "w", encoding="utf-8") as handle:
        json.dump({"results": results}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    record_deviation()
    record_cli()
