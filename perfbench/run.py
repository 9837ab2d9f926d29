"""fareysums benchmark: three seeded closed-loop workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload rank_queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client issues one operation at a time.  A pass runs the workload's whole
operation list once; timed passes repeat until the next one would end after
--seconds.  Every result is checked outside the timed region.  Times are reported at the
machine's reference speed: each pass is scaled by the reference kernel timed
between its operations (see reference.py).  With --trace 0 the end-to-end
metrics are reported; with --trace 1 the run is split into an untraced half
and a traced half, and the per-layer metrics (per pass, including one
set-up) plus the tracing overhead are reported.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, derived
from workloads import ROOT, SRC, WORKLOADS, CliSessions, SourceMissing

SETUP_REPS = 7
TIME_UNITS = ("s", "ms", "ns")

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("totient.build_totient_table.calls", "count"),
    ("totient.build_totient_table.s", "s"),
    ("totient.sieve_entries", "count"),
    ("totient.mobius_upto.calls", "count"),
    ("totient.mobius_upto.s", "s"),
    ("totient.error_term_rows.s", "s"),
    ("farey.rank_fast.calls", "count"),
    ("farey.rank_fast.s", "s"),
    ("farey.rank_fast.ms_per_call", "ms"),
    ("farey.rank_oracle.calls", "count"),
    ("farey.rank_oracle.s", "s"),
    ("farey.farey_neighbors.calls", "count"),
    ("farey.farey_neighbors.s", "s"),
    ("farey.count_in_window.calls", "count"),
    ("farey.count_in_window.s", "s"),
    ("farey.enumerate_window.calls", "count"),
    ("farey.enumerate_window.s", "s"),
    ("farey.enumerate_window.terms", "count"),
    ("franel.full_franel_sum.s", "s"),
    ("franel.partial_franel_sum_range.s", "s"),
    ("franel.kanemitsu_sum.s", "s"),
    ("franel.dress_scan.s", "s"),
    ("franel.dress_scan_sweep.s", "s"),
    ("franel.vertex_partial_sum.s", "s"),
    ("franel.terms", "count"),
    ("franel.ns_per_term", "ns"),
    ("franel.exact_terms", "count"),
    ("mapping.map_window.s", "s"),
    ("mapping.build_f_prime.s", "s"),
    ("mapping.forward_map.calls", "count"),
    ("mapping.inverse_map.calls", "count"),
    ("index.exact_index_unit_fraction.calls", "count"),
    ("index.exact_index_unit_fraction.s", "s"),
    ("arith.gcd_triple.calls", "count"),
    ("arith.gcd_triple.s", "s"),
    ("cli.run.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.startup_s", "s"),
    ("tracing_overhead_s", "s"),
)


class Phase:
    """Passes of one workload, run until the next pass would end after `seconds`.

    There is no warm-up pass: the set-up fills the caches a pass reads, and
    the first pass's cold costs (the first dress_scan_sweep of a process pays
    three times the page faults of later ones) fall out of the median pass.
    After every operation the workload's reference kernel is timed once; a
    pass's `scale` turns its times into reference-speed times (see
    reference.py).
    """

    def __init__(self) -> None:
        self.passes: list[list[float]] = []
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, workload, seconds: float) -> None:
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            latencies, scale = self.one_pass(workload)
            self.passes.append(latencies)
            self.scales.append(scale)
            now = perf_counter()
            if now - start + (now - pass_start) > seconds:
                return

    def one_pass(self, workload) -> tuple[list[float], float]:
        latencies, kernel_times = [], []
        for op in workload.ops:
            self.attempted += 1
            latency, why = self.one_op(workload, op)
            latencies.append(latency)
            if why is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{op!r}: {why}")
            kernel_times.append(workload.kernel.time())
        return latencies, workload.kernel.scale(kernel_times)

    @staticmethod
    def one_op(workload, op) -> tuple[float, str | None]:
        """The operation's latency, and why it failed (None when it passed its check)."""
        args = workload.prepare(op)
        t0 = perf_counter()
        try:
            result = workload.run(op, args)
        except Exception as exc:  # a failed operation is counted, not fatal
            return perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        try:
            ok = workload.check(op, args, result)
        except Exception as exc:  # a check that cannot complete is a failed check
            return latency, f"check raised {type(exc).__name__}: {exc}"
        return latency, None if ok else "wrong result"

    @property
    def wall_s(self) -> float:
        return statistics.median(scale * sum(p) for p, scale in zip(self.passes, self.scales))

    @property
    def latencies(self) -> list[float]:
        return [scale * t for p, scale in zip(self.passes, self.scales) for t in p]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliSessions) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def setup_s(workload) -> float:
    """Median of SETUP_REPS set-ups, scaled by the kernel timed after each."""
    setups, kernel_times = [], []
    for _ in range(SETUP_REPS):
        setups.append(workload.setup())
        kernel_times.append(workload.kernel.time())
    return statistics.median(setups) * workload.kernel.scale(kernel_times)


def end_to_end(workload, phase: Phase, setup: float) -> dict[str, float]:
    lat = phase.latencies
    completed = len(lat) - phase.failed
    return {
        "wall_s": phase.wall_s,
        "ops_per_s": completed / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def per_layer(workload, seconds: float, untraced: Phase, traced: Phase) -> dict[str, float]:
    """Layer totals of one traced set-up plus the average of the timed traced passes."""
    tracer = Tracer()
    workload.setup(tracer)
    at_setup = workload.layer_totals()
    traced.run(workload, seconds)
    at_end = workload.layer_totals()
    n = len(traced.passes)
    values = {key: at_setup.get(key, 0) + (at_end[key] - at_setup.get(key, 0)) / n for key in at_end}
    values = derived(values)
    scale = statistics.median(traced.scales)
    values = {
        name: values.get(name, 0) * (scale if unit in TIME_UNITS else 1)
        for name, unit in PER_LAYER
    }
    values["tracing_overhead_s"] = traced.wall_s - untraced.wall_s
    return values


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    untraced = Phase()
    if trace:
        workload.setup()
        untraced.run(workload, seconds / 2)
        traced = Phase()
        metrics = per_layer(workload, seconds / 2, untraced, traced)
        units = dict(PER_LAYER)
        phases = (untraced, traced)
    else:
        setup = setup_s(workload)
        untraced.run(workload, seconds)
        metrics = end_to_end(workload, untraced, setup)
        units = dict(END_TO_END)
        phases = (untraced,)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        for line in phase.errors:
            print(f"perfbench: {name}: {line}", file=sys.stderr)

    samples = untraced.latencies
    print(f"# {name} seed={seed} trace={int(trace)}: {len(untraced.passes)} untraced passes "
          f"x {len(workload.ops)} ops, {len(samples)} latency samples; measured pass walls (s): "
          + " ".join(f"{sum(p):.3f}" for p in untraced.passes)
          + "; speed scales: " + " ".join(f"{scale:.3f}" for scale in untraced.scales))
    for key, value in metrics.items():
        print(f"{key:40s} {value:14.6g} {units[key]}")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} ({failed}/{attempted})")
    if not trace and len(samples) >= 100:  # p90 needs ten samples beyond it
        p90 = statistics.quantiles(samples, n=10)[-1]
        print(f"{'op_p90_ms':40s} {1e3 * p90:14.6g} ms ({len(samples)} samples)")
    if name == "deviation_scan" and not trace:
        terms_per_s = workload.terms_per_pass() / untraced.wall_s
        print(f"{'terms_per_s':40s} {terms_per_s:14.6g} 1/s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak memory and imports are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SourceMissing, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
