"""The three workloads of the fareysums benchmark.

Each workload turns a seed into a fixed list of operations (plain tuples of
ints and strings, so the list is independent of the program), runs one
operation at a time, and checks every result outside the timed region.
Reference values for a check are computed once per distinct operation and
kept for the rest of the run, so later passes pay only the comparison.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction as Rat
from pathlib import Path
from time import perf_counter

from reference import COMPUTE, PROCESS_START
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected"
PACKAGE = "fareysums"


class SourceMissing(RuntimeError):
    pass


def fresh_import():
    """Import fareysums from this checkout's src/, dropping any loaded copy first."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} package under {SRC}")
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SourceMissing(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return package


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _log_grid(lo: int, hi: int, points: int) -> list[int]:
    """`points` integers spaced evenly in log from lo to hi, both included."""
    return [round(lo * (hi / lo) ** (k / (points - 1))) for k in range(points)]


def _random_reduced(rng: random.Random, den_lo: int, den_hi: int) -> tuple[int, int]:
    """A reduced p/q in [0, 1) with den_lo <= q <= den_hi."""
    while True:
        q = rng.randint(den_lo, den_hi)
        p = rng.randrange(q)
        if math.gcd(p, q) == 1:
            return p, q


class InProcess:
    """Shared machinery for the workloads that call the library in this process."""

    name = ""
    setup_order = 1
    kernel = COMPUTE

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops = self.generate(seed)
        self.references: dict = {}
        self.tracer: Tracer | None = None

    def setup(self, tracer: Tracer | None = None) -> float:
        """Import the package and build the tables the pass needs; return the seconds taken.

        The library functions used by the checks are taken before tracing is
        installed, so checking never shows up in the per-layer figures.
        """
        t0 = perf_counter()
        fs = self.fs = fresh_import()
        self.check_fns = _CheckFns(fs)
        if tracer is not None:
            tracer.install(fs)
        self.tracer = tracer
        self.table = fs.totient.build_totient_table(self.setup_order)
        fs.totient.mobius_upto(self.setup_order)
        return perf_counter() - t0

    def layer_totals(self) -> dict[str, float]:
        return self.tracer.snapshot() if self.tracer is not None else {}


class _CheckFns:
    """Untraced library entry points for the correctness gate."""

    def __init__(self, fs) -> None:
        self.Fraction = fs.Fraction
        self.rank_fast = fs.farey.rank_fast
        self.rank_oracle = fs.farey.rank_oracle


# ---------------------------------------------------------------- rank_queries

RANK_ORDER_MIN = 1_000
RANK_ORDER_MAX = 300_000
RANK_ORDERS = 25
# Kind of query per grid order, repeating: 60 % members, 20 % non-members, 20 % windows.
RANK_KINDS = ("count", "member", "nonmember", "member", "member")
NONMEMBER_DEN_MIN = 10**17
NONMEMBER_DEN_MAX = 10**18
ORACLE_MAX_ORDER = 2_000


class RankQueries(InProcess):
    """Seeded rank-family queries at orders spread log-uniformly over [1e3, 3e5].

    rank_fast costs about linear in the order, so the orders are a fixed log
    grid rather than drawn: drawn orders move the pass time and the median
    query by a tenth from seed to seed.  The seed draws the fractions asked at
    each order and the order in which the queries run.
    """

    name = "rank_queries"
    setup_order = RANK_ORDER_MAX

    @staticmethod
    def generate(seed: int) -> list[tuple]:
        rng = random.Random(f"rank_queries/{seed}")
        ops = []
        for k, n in enumerate(_log_grid(RANK_ORDER_MIN, RANK_ORDER_MAX, RANK_ORDERS)):
            kind = RANK_KINDS[k % len(RANK_KINDS)]
            if kind == "member":
                ops.append(("member", n, _random_reduced(rng, 1, n)))
            elif kind == "nonmember":
                ops.append(("nonmember", n, _random_reduced(rng, NONMEMBER_DEN_MIN, NONMEMBER_DEN_MAX)))
            else:
                a, b = _random_reduced(rng, 1, 2 * n), _random_reduced(rng, 1, 2 * n)
                lo, hi = sorted((a, b), key=lambda f: Rat(*f))
                ops.append(("count", n, lo, hi))
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        """The op's arguments as library values, built outside the timed region."""
        frac = self.fs.Fraction
        return op[1], *(frac(*pair) for pair in op[2:])

    def run(self, op, args):
        farey = self.fs.farey
        kind = op[0]
        if kind == "member":
            n, x = args
            return farey.rank_fast(n, x).rank, farey.farey_neighbors(n, x)
        if kind == "nonmember":
            n, x = args
            return farey.rank_fast(n, x).rank, next(farey.iter_window(n, x, self.fs.ONE))
        n, lo, hi = args
        return farey.count_in_window(n, lo, hi)

    def check(self, op, args, result) -> bool:
        ref = self.references.get(op)
        if ref is None:
            ref = self.references[op] = self._reference(op, args)
        kind, n = op[0], op[1]
        if ref["rank_one"] != 1 + self.table.summatory(n):
            return False
        if kind == "count":
            return result == ref["count"] and ref.get("oracle", result) == result
        rank, extra = result
        if ref.get("oracle", rank) != rank:
            return False
        x = args[1]
        if kind == "member":
            left, right = extra
            if not (_consecutive(n, left, x) and _consecutive(n, x, right)):
                return False
            return right is None or rank + 1 == self._rank_of(ref, n, (right.num, right.den))
        c, d = extra  # the smallest element of F_n above the non-member x, as a raw pair
        return x.num * d < c * x.den and d <= n and rank + 1 == self._rank_of(ref, n, (c, d))

    def _reference(self, op, args) -> dict:
        fns = self.check_fns
        kind, n = op[0], op[1]
        ref: dict = {"rank_one": fns.rank_fast(n, fns.Fraction(1, 1)).rank, "ranks": {}}
        small = n <= ORACLE_MAX_ORDER
        if kind == "count":
            lo, hi = args[1], args[2]
            member_lo = 1 if lo.den <= n else 0
            ref["count"] = fns.rank_fast(n, hi).rank - fns.rank_fast(n, lo).rank + member_lo
            if small:
                ref["oracle"] = fns.rank_oracle(n, hi).rank - fns.rank_oracle(n, lo).rank + member_lo
        elif small:
            ref["oracle"] = fns.rank_oracle(n, args[1]).rank
        return ref

    def _rank_of(self, ref: dict, n: int, key: tuple[int, int]) -> int:
        if key not in ref["ranks"]:
            ref["ranks"][key] = self.check_fns.rank_fast(n, self.check_fns.Fraction(*key)).rank
        return ref["ranks"][key]


def _consecutive(n: int, a, b) -> bool:
    """Whether a < b are neighbours in F_n; None stands for the end beyond 0/1 or 1/1."""
    if a is None or b is None:
        end = (0, 1) if a is None else (1, 1)
        other = b if a is None else a
        return other is not None and (other.num, other.den) == end
    return (
        a.den <= n and b.den <= n and a.den + b.den > n and b.num * a.den - a.num * b.den == 1
    )


# -------------------------------------------------------------- deviation_scan

DEVIATION_WINDOWS_PER_PASS = 16
# Operations are JSON-shaped (fractions as [num, den] lists) so that op_key
# matches the keys of the recorded results.
DEVIATION_FIXED = (
    ("full", 1000),
    ("full", 2520),
    ("kanemitsu", 2520),
    ("dress", 2000),
    ("sweep", 1000),
    ("vertex", [0, 1], [1, 0], 12),
    ("vertex", [1, 3], [1, 2], 10),
    ("vertex", [1, 2], [1, 1], 10),
)
FLOAT_REL_TOL = 1e-12


def op_key(op) -> str:
    return json.dumps(op, separators=(",", ":"))


class DeviationScan(InProcess):
    """Full, partial, vertex-section, prefix and max-deviation sums at orders up to 27720."""

    name = "deviation_scan"
    setup_order = 27_720  # the 0/1 section at i = 12 runs at N = lcm(2..12)

    def __init__(self, seed: int, expected: dict | None = None) -> None:
        self.expected = expected or load_expected(self.name)
        super().__init__(seed)

    def generate(self, seed: int) -> list[tuple]:
        rng = random.Random(f"deviation_scan/{seed}")
        catalog = [tuple(json.loads(key)) for key in self.expected["window_catalog"]]
        windows = rng.sample(catalog, DEVIATION_WINDOWS_PER_PASS)
        ops = [*DEVIATION_FIXED, *windows]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        frac = self.fs.Fraction
        return tuple(frac(*v) if isinstance(v, list) else v for v in op[1:])

    def run(self, op, args):
        franel = self.fs.franel
        kind = op[0]
        if kind == "full":
            return franel.full_franel_sum(args[0], self.table)
        if kind == "kanemitsu":
            return franel.kanemitsu_sum(args[0], self.table)
        if kind == "dress":
            return franel.dress_scan(args[0], self.table)
        if kind == "sweep":
            return franel.dress_scan_sweep(args[0])
        if kind == "vertex":
            vertex, co_vertex, i = args
            return franel.vertex_partial_sum(vertex, co_vertex, i, self.table)
        n, lo, hi, anchor = args
        return franel.partial_franel_sum_range(n, lo, hi, anchor, self.table)

    def check(self, op, args, result) -> bool:
        kind = op[0]
        if kind == "full" and result.term_count != 1 + self.table.summatory(op[1]):
            return False
        if kind == "sweep" and not result.all_ok:
            return False
        return fields_match(result_fields(result), self.expected["results"][op_key(op)])

    def terms_per_pass(self) -> int:
        """Farey terms the pass's scans report in term_count (as recorded and checked)."""
        return sum(
            value
            for op in self.ops
            for key, value in self.expected["results"][op_key(op)].items()
            if key.endswith("term_count")
        )


def result_fields(obj, prefix: str = "") -> dict:
    """A flat JSON-able record of a result dataclass (nested results are prefixed)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(result_fields(value, f"{prefix}{f.name}."))
            continue
        if isinstance(value, Rat):
            value = f"{value.numerator}/{value.denominator}"
        elif type(value).__name__ == "Fraction":
            value = f"{value.num}/{value.den}"
        out[prefix + f.name] = value
    return out


def fields_match(got: dict, want: dict) -> bool:
    """Exact equality, except floats, which must agree to FLOAT_REL_TOL relative."""
    if got.keys() != want.keys():
        return False
    for key, expected in want.items():
        value = got[key]
        if isinstance(expected, float) and isinstance(value, float):
            if not math.isclose(value, expected, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
                return False
        elif value != expected:
            return False
    return True


# ---------------------------------------------------------------- cli_sessions

CLI_SESSIONS = (
    ("enumerate", "--order", "600"),
    ("rank", "--order", "1500", "--fraction", "1/3"),
    ("rank", "--order", "200000", "--fraction", "1/3", "--method", "fast"),
    ("index", "--imax", "9", "--sweep"),
    ("map", "--vertex", "1/3", "--covertex", "1/2", "--q", "40", "--order", "840"),
    ("map", "--vertex", "1/3", "--covertex", "1/2", "--q", "40", "--order", "840", "--inverse"),
    ("gcd-check", "--exhaustive", "16"),
    ("franel", "--order", "1000"),
    ("franel", "--order", "5040", "--lo", "2/5", "--hi", "3/7"),
    ("franel", "--order", "2520", "--kanemitsu"),
    ("growth", "--vertex", "0/1", "--i", "4,6,8,10"),
    ("dress", "--sweep-to", "600"),
    ("totient", "--upto", "20000"),
    ("selftest",),
    ("enumerate", "--order", "100000"),  # refused by its budget estimate: exit 2
)
LAUNCHER = BENCH_DIR / "launch.py"
TRACE_ENV = "PERFBENCH_TRACE"  # read by launch.py, which writes TRACE_MARK lines
TRACE_MARK = "PERFBENCH_TRACE "
CHILD_TIMEOUT_S = 150


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    wall_s: float
    layers: dict


def run_child(argv, traced: bool) -> ChildResult:
    """One `farey` process from this checkout's src/, through the launcher."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} package under {SRC}")
    # FAREY_* settings would change the output; the sessions run on defaults
    env = {k: v for k, v in os.environ.items() if not k.startswith("FAREY_")}
    env[TRACE_ENV] = "1" if traced else "0"
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    wall = perf_counter() - t0
    layers = {}
    if traced:
        last = proc.stderr.decode("utf-8", "replace").rstrip("\n").rpartition("\n")[2]
        if last.startswith(TRACE_MARK):
            layers = json.loads(last[len(TRACE_MARK):])
    return ChildResult(proc.returncode, proc.stdout, wall, layers)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliSessions:
    """Every `farey` subcommand, each as a fresh process, in a seeded order."""

    name = "cli_sessions"
    kernel = PROCESS_START

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = load_expected(self.name)
        self.ops = self.generate(seed)
        self.traced = False
        self.totals: Counter = Counter()

    @staticmethod
    def generate(seed: int) -> list[tuple]:
        ops = list(CLI_SESSIONS)
        random.Random(f"cli_sessions/{seed}").shuffle(ops)
        return ops

    def setup(self, tracer: Tracer | None = None) -> float:
        """Start-up of a process that does no work: `farey --help`."""
        self.traced = tracer is not None
        child = self._child(("--help",))
        if child.code != 0:
            raise RuntimeError(f"farey --help exited with {child.code}")
        return child.wall_s

    def prepare(self, op):
        return op

    def run(self, op, args):
        return self._child(op)

    def check(self, op, args, result) -> bool:
        want = self.expected["results"][" ".join(op)]
        return result.code == want["exit_code"] and digest(result.stdout) == want["stdout_sha256"]

    def _child(self, argv) -> ChildResult:
        child = run_child(argv, self.traced)
        if self.traced:
            self.totals.update(child.layers)
            self.totals["cli.startup_s"] += child.wall_s - child.layers.get("cli.run.total_s", 0.0)
            self.totals["cli.stdout_bytes"] += len(child.stdout)
        return child

    def layer_totals(self) -> dict[str, float]:
        return dict(self.totals)


WORKLOADS = {cls.name: cls for cls in (RankQueries, DeviationScan, CliSessions)}
