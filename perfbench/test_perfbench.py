"""Tests of the benchmark itself: seeded generation, the correctness gate, tracing.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import time

import pytest

import run
import workloads
from reference import Kernel
from tracer import Tracer
from workloads import CliSessions, DeviationScan, RankQueries


@pytest.mark.parametrize("cls", [RankQueries, DeviationScan, CliSessions])
def test_generator_is_deterministic_per_seed(cls):
    assert cls(5).ops == cls(5).ops
    assert cls(5).ops != cls(6).ops


def test_rank_queries_mix():
    kinds = [op[0] for op in RankQueries(3).ops]
    assert kinds.count("member") == 15
    assert kinds.count("nonmember") == 5
    assert kinds.count("count") == 5
    orders = sorted(op[1] for op in RankQueries(3).ops)
    assert workloads.RANK_ORDER_MIN <= orders[0] and orders[-1] <= workloads.RANK_ORDER_MAX


def _gate_failures(workload, op, corrupt) -> int:
    """Failures the runner counts for one pass of `op` whose result is corrupted."""
    workload.ops = [op]
    honest = run.Phase()
    honest.one_pass(workload)
    assert honest.failed == 0, honest.errors
    original = workload.run
    workload.run = lambda op, args: corrupt(original(op, args))
    phase = run.Phase()
    phase.one_pass(workload)
    return phase.failed


def test_gate_fails_rank_off_by_one():
    workload = RankQueries(1)
    workload.setup_order = 2_000
    workload.setup()
    op = ("member", 1_500, (2, 7))
    assert _gate_failures(workload, op, lambda r: (r[0] + 1, r[1])) == 1


def test_gate_fails_perturbed_sum_float():
    workload = DeviationScan(1)
    workload.setup()
    op = ["vertex", [1, 2], [1, 1], 10]

    def perturb(result):
        inner = dataclasses.replace(result.result, sum_float=result.result.sum_float * (1 + 1e-9))
        return dataclasses.replace(result, result=inner)

    assert _gate_failures(workload, op, perturb) == 1


def test_gate_fails_one_changed_cli_byte():
    workload = CliSessions(1)
    workload.setup()
    op = ("rank", "--order", "1500", "--fraction", "1/3")

    def flip(result):
        out = bytearray(result.stdout)
        out[0] ^= 1
        result.stdout = bytes(out)
        return result

    assert _gate_failures(workload, op, flip) == 1


def test_gate_expects_refused_enumerate():
    workload = CliSessions(1)
    op = ("enumerate", "--order", "100000")
    workload.ops = [op]
    phase = run.Phase()
    phase.one_pass(workload)
    assert phase.failed == 0, phase.errors


def test_tracer_sees_nested_calls_under_every_name():
    fs = workloads.fresh_import()
    tracer = Tracer()
    tracer.install(fs)
    result = fs.franel.full_franel_sum(12)
    values = tracer.snapshot()
    assert values["franel.full_franel_sum.calls"] == 1
    # franel looks these up under its own names; they are counted all the same
    assert values["totient.build_totient_table.calls"] == 1
    assert values["farey.iter_window.calls"] == 1
    assert values["franel.terms"] == result.term_count
    assert 0 <= values["franel.full_franel_sum.s"] <= values["franel.full_franel_sum.total_s"]
    assert fs.rank_fast is fs.farey.rank_fast


def test_benchmark_json_lists_the_reported_metrics():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class _Sleeps:
    """A workload whose operations and reference kernel each sleep 10 ms."""

    ops = [("sleep",)] * 3
    kernel = Kernel(lambda: time.sleep(0.01), reference_s=0.02)

    def prepare(self, op):
        return op

    def run(self, op, args):
        time.sleep(0.01)

    def check(self, op, args, result):
        return True


def test_pass_times_are_scaled_by_the_reference_kernel():
    phase = run.Phase()
    latencies, scale = phase.one_pass(_Sleeps())
    phase.passes.append(latencies)
    phase.scales.append(scale)
    # the kernel ran at half its reference speed, so every time reads about doubled
    assert 1.5 < scale < 2.1
    assert phase.latencies == [scale * t for t in latencies]
    assert phase.wall_s == scale * sum(latencies)
