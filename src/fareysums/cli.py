"""Command-line front end: reproducible, scriptable access to every operation.

Output is deterministic for identical argv and configuration: data rows carry
no timestamps, metadata travels on '#'-prefixed lines (CSV) or under "meta"
(JSON).  Exit codes: 0 success, 1 usage error, 2 computation error (budget or
domain), 3 falsified-theorem assertion.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction as Rat
from itertools import chain, combinations, islice
from math import comb
from random import Random

import numpy as np

from . import __version__
from .arith import Fraction, INFINITY, ONE, ZERO, det2, gcd_triple, gcd_triples, mediant, shear
from .errors import BudgetError, FareyError, PreconditionError, TheoremViolation
from .farey import _size_estimate, _window_pairs, enumerate_window, rank_fast, rank_oracle
from .franel import (
    DEFAULT_TERM_BUDGET,
    _prefix_cells,
    _section,
    _sweep_cells,
    dress_scan,
    dress_scan_sweep,
    full_franel_sum,
    growth_scan,
    kanemitsu_sum,
    partial_franel_sum_range,
)
from .index import asymptotic_index_zero, exact_index_unit_fraction
from .mapping import (
    MapParams, build_f_prime, cardinality_relation, forward_map, inverse_map, make_params, map_window,
)
from .totient import (
    DEFAULT_TABLE_LIMIT, build_totient_table, error_term_rows, farey_cardinality, lcm_range,
)


@dataclass
class Config:
    """Runtime limits and output shape: the default, then env FAREY_<FIELD>, then the flag."""

    table_limit: int = DEFAULT_TABLE_LIMIT
    term_budget: int = DEFAULT_TERM_BUDGET
    output_format: str = "csv"
    precision_digits: int = 12

    def __post_init__(self) -> None:
        if self.table_limit < 1 or self.term_budget < 1 or self.precision_digits < 1:
            raise PreconditionError("config values must be positive")
        if self.output_format not in ("csv", "json"):
            raise PreconditionError(f"unknown output format {self.output_format!r}")


def _config(args: argparse.Namespace) -> Config:
    """Each Config field from env FAREY_<FIELD> over its default, and the flag with its dest over both."""
    values = {}
    for field in fields(Config):
        env = os.environ.get(f"FAREY_{field.name.upper()}")
        if env is not None:
            values[field.name] = type(field.default)(env)
        if getattr(args, field.name) is not None:
            values[field.name] = getattr(args, field.name)
    return Config(**values)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _fraction(text: str) -> Fraction:
    """Fraction.parse, with its message kept: argparse reports a bare ValueError by type name."""
    try:
        return Fraction.parse(text)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# rows formatted into one string per write: a write per row costs more on a pipe
_ROWS_PER_WRITE = 4096
_TRIPLES_PER_BATCH = 4096  # triples that gcd-check hands gcd_triples at a time


@dataclass
class _Output:
    """Emitter for one table: metadata plus rows, as CSV or a single JSON object."""

    config: Config
    command: str
    argv: list[str]
    stream: io.TextIOBase

    def __post_init__(self) -> None:
        digits = self.config.precision_digits
        # a cell's formatter by its exact type; any other type (numpy scalars) takes _fmt_other
        self._formats = {
            int: str,
            str: str,
            float: lambda value: f"{value:.{digits}g}",
            bool: lambda value: "true" if value else "false",
            type(None): lambda value: "",
            Rat: lambda value: f"{value.numerator}/{value.denominator}",
        }

    def fmt(self, value) -> str:
        return self._formats.get(type(value), self._fmt_other)(value)

    def _fmt_other(self, value) -> str:
        """A cell of any other type: formatted as the first of bool, float, Rat it is an instance of."""
        for kind in (bool, float, Rat):
            if isinstance(value, kind):
                return self._formats[kind](value)
        return str(value)

    def _meta(self) -> dict:
        return {
            "command": " ".join([self.command, *self.argv]),
            "config": (
                f"table_limit={self.config.table_limit} term_budget={self.config.term_budget} "
                f"format={self.config.output_format} precision={self.config.precision_digits}"
            ),
            "version": f"fareysums {__version__}",
        }

    def table(self, header: list[str], rows) -> None:
        """Write the header and the rows, drawn from an iterable _ROWS_PER_WRITE at a time."""
        formats, other = self._formats, self._fmt_other
        cells = ([formats.get(type(cell), other)(cell) for cell in row] for row in rows)
        chunks = iter(lambda: list(islice(cells, _ROWS_PER_WRITE)), [])
        if self.config.output_format == "json":
            # the bytes of json.dumps({"meta": ..., "rows": [...]}, indent=2, sort_keys=True)
            skeleton = json.dumps({"meta": self._meta(), "rows": [0]}, indent=2, sort_keys=True)
            head, tail = skeleton.split("\n    0")
            order = sorted(range(len(header)), key=header.__getitem__)  # sort_keys
            keys = [(f"\n      {json.dumps(header[i])}: ", i) for i in order]
            self.stream.write(head)
            sep = ""
            for chunk in chunks:
                bodies = (",".join(key + json.dumps(row[i]) for key, i in keys) for row in chunk)
                self.stream.write(sep + ",".join(f"\n    {{{body}\n    }}" for body in bodies))
                sep = ","
            self.stream.write((tail if sep else "]\n}") + "\n")
            return
        for key, value in self._meta().items():
            self.stream.write(f"# {key}: {value}\n")
        # no cell holds a comma, a quote or a line break, so no CSV field needs quoting
        self.stream.write(",".join(header) + "\n")
        for chunk in chunks:
            self.stream.write("".join(",".join(row) + "\n" for row in chunk))


def _build_parser() -> _Parser:
    parser = _Parser(prog="farey", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    # each dest is a Config field, which _config reads the flag by
    common.add_argument("--format", dest="output_format", choices=["csv", "json"], help="output format")
    common.add_argument("--table-limit", type=int, help="totient table size cap")
    common.add_argument("--term-budget", type=int, help="streamed terms cap")
    common.add_argument(
        "--precision", dest="precision_digits", metavar="PRECISION", type=int,
        help="significant digits for reals",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="list F_N fractions in a range")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lo", type=_fraction, default=ZERO)
    p.add_argument("--hi", type=_fraction, default=ONE)

    p = sub.add_parser("rank", parents=[common], help="position of a fraction in F_N")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--fraction", type=_fraction, required=True)
    p.add_argument("--method", choices=["oracle", "fast"], default="fast")

    p = sub.add_parser("index", parents=[common], help="closed-form position of 1/q")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--asymptotic", action="store_true", help="print the O(N) asymptotic instead")
    p.add_argument("--sweep", action="store_true", help="CSV over every admissible q")

    p = sub.add_parser("map", parents=[common], help="bijective subinterval map")
    p.add_argument("--vertex", type=_fraction, required=True)
    p.add_argument("--covertex", type=_fraction, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("gcd-check", parents=[common], help="triple-gcd determinant identity scan")
    p.add_argument("--exhaustive", type=int, help="check all ordered triples of F_N for this N")
    p.add_argument("--random", type=int, help="number of random reduced triples")
    p.add_argument("--max-value", type=int, default=10_000, help="numerator/denominator cap for random triples")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("franel", parents=[common], help="deviation sum over F_N or a range of it")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lo", type=_fraction, help="range start (default 0/1)")
    p.add_argument("--hi", type=_fraction, help="range end (default 1/1)")
    p.add_argument("--kanemitsu", action="store_true", help="signed prefix sum up to 1/4")

    p = sub.add_parser("growth", parents=[common], help="vertex section sums against log N")
    p.add_argument("--vertex", type=_fraction, required=True)
    p.add_argument("--covertex", type=_fraction, default=None)
    p.add_argument("--i", type=_int_list, required=True, help="comma-separated section indices")

    p = sub.add_parser("dress", parents=[common], help="largest single deviation versus 1/N")
    orders = p.add_mutually_exclusive_group(required=True)
    orders.add_argument("--order", type=int)
    orders.add_argument("--sweep-to", type=int, help="check the bound for every order up to this")

    p = sub.add_parser("totient", parents=[common], help="dump n, phi, Phi, E, H columns")
    p.add_argument("--upto", type=int, required=True)

    sub.add_parser("selftest", parents=[common], help="small-order oracle cross-check suite")
    return parser


def _within_budget(work: str, estimate: float, unit: str, budget: int) -> None:
    """Refuse work whose estimated size is over its budget, before the work starts."""
    if estimate > budget:
        raise BudgetError(f"{work} needs about {estimate:.3g} {unit}, over budget {budget}")


def _cmd_enumerate(args, config: Config, out: _Output) -> int:
    n = args.order
    pairs = _window_pairs(n, args.lo, args.hi, config.term_budget)
    first = next(pairs, None)
    rows = []
    if first is not None:
        # rank_fast sieves mu and the Mertens sums up to N
        _within_budget(f"fast rank at order {n}", n, "sieve entries", config.table_limit)
        start = rank_fast(n, Fraction(*first)).rank
        # the rows are streamed, so their count from ranks is checked before the first is written
        count = rank_fast(n, args.hi).rank - start + 1
        _within_budget(f"window [{args.lo}, {args.hi}] at order {n}", count, "rows", config.term_budget)
        rows = ([start + j, f"{h}/{k}", h, k] for j, (h, k) in enumerate(chain([first], pairs)))
    out.table(["index", "fraction", "num", "den"], rows)
    return 0


def _cmd_rank(args, config: Config, out: _Output) -> int:
    if args.method == "fast":
        # rank_fast sieves mu and the Mertens sums up to N
        _within_budget(f"fast rank at order {args.order}", args.order, "sieve entries", config.table_limit)
        report = rank_fast(args.order, args.fraction)
    else:
        # the oracle takes one gcd per h <= d*x for each d <= N: about x*N(N+1)/2
        n = args.order
        steps = min(float(args.fraction), 1.0) * n * (n + 1) / 2
        _within_budget(f"oracle rank at order {n}", steps, "gcd steps", config.term_budget)
        report = rank_oracle(n, args.fraction)
    out.stream.write(f"{report.rank}\n")
    return 0


def _cmd_index(args, config: Config, out: _Output) -> int:
    table = build_totient_table(args.imax, budget=config.table_limit)
    if args.sweep:
        work = f"index sweep at order lcm(2..{args.imax})"
        # N >= 2**(I-1), so the N - ceil(N/I) + 1 rows are at least 2**(I-2): refused before N is formed
        if args.imax - 2 >= config.term_budget.bit_length():
            raise BudgetError(f"{work} needs at least 2**{args.imax - 2} rows, over budget {config.term_budget}")
        n = lcm_range(args.imax)
        first = -(-n // args.imax)
        _within_budget(work, n - first + 1, "rows", config.term_budget)
        rows = []
        for q in range(first, n + 1):
            exact = exact_index_unit_fraction(args.imax, q, table).value
            approx = asymptotic_index_zero(n, q)
            rows.append([q, exact, approx, exact - approx, (exact - approx) / n])
        out.table(["q", "exact", "asymptotic", "residual", "residual_over_N"], rows)
        return 0
    if args.q is None:
        raise _UsageError("index needs --q or --sweep")
    if args.asymptotic:
        # N >= 2**(I-1) puts 3N^2/(pi^2*q) above 2**(2I-4-bit_length(q)): past the float range
        # from 2**1024 on, refused before N is formed
        if args.q >= 1 and 2 * args.imax - 4 - args.q.bit_length() >= 1024:
            raise PreconditionError(
                f"the asymptotic rank 3*N^2/(pi^2*q) at q={args.q} for N = lcm(2..{args.imax}) "
                "is past the float range"
            )
        out.stream.write(out.fmt(asymptotic_index_zero(lcm_range(args.imax), args.q)) + "\n")
    else:
        out.stream.write(f"{exact_index_unit_fraction(args.imax, args.q, table).value}\n")
    return 0


def _cmd_map(args, config: Config, out: _Output) -> int:
    if args.i is None:
        params = make_params(args.vertex, args.covertex, args.q, args.order)
    else:
        params = MapParams(args.vertex, args.covertex, args.q, args.i, args.order)
    # either direction enumerates F_i
    _within_budget(f"map over F_{params.i}", _size_estimate(params.i, 1.0), "terms", config.term_budget)
    if args.inverse:
        window = map_window(params)
        rows = [[str(u), str(inverse_map(params, u))] for u in window.fractions]
    else:
        rows = [[str(f), str(forward_map(params, f))] for f in build_f_prime(params).members]
    out.table(["source", "image"], rows)
    return 0


def _random_triples(count: int, cap: int, seed: int):
    """count ascending triples of distinct fractions, each drawn as numerator then denominator."""
    rng = Random(seed)
    while count:
        lo, mid, hi = sorted(Fraction(rng.randint(0, cap), rng.randint(1, cap)) for _ in range(3))
        if lo < mid < hi:
            count -= 1
            yield lo, mid, hi


def _cmd_gcd_check(args, config: Config, out: _Output) -> int:
    if args.exhaustive is None and args.random is None:
        raise _UsageError("gcd-check needs --exhaustive and/or --random")
    exhaustive = random = ()
    triples = 0
    if args.random is not None:
        if args.random < 1:
            raise PreconditionError(f"--random needs at least 1 triple, got {args.random}")
        if args.max_value < 2:  # below 2 there are no three distinct fractions to draw
            raise PreconditionError(f"random triples need --max-value >= 2, got {args.max_value}")
        triples = args.random
        random = _random_triples(args.random, args.max_value, args.seed)
    if args.exhaustive is not None:
        window = enumerate_window(args.exhaustive, ZERO, ONE, budget=config.term_budget)
        triples += comb(len(window.fractions), 3)
        exhaustive = combinations(window.fractions, 3)
    _within_budget("gcd check", triples, "triples", config.term_budget)
    checked = bad = 0
    pending = chain(exhaustive, random)
    for batch in iter(lambda: list(islice(pending, _TRIPLES_PER_BATCH)), []):
        fractions = list(chain.from_iterable(batch))
        gcds = gcd_triples([f.num for f in fractions], [f.den for f in fractions])
        checked += len(batch)
        bad += int(np.count_nonzero((gcds[:, 0] != gcds[:, 1]) | (gcds[:, 0] != gcds[:, 2])))
    out.stream.write(f"{bad} counterexamples among {checked} triples\n")
    if bad:
        raise TheoremViolation(f"{bad} triple-gcd counterexamples found")
    return 0


def _cmd_franel(args, config: Config, out: _Output) -> int:
    if args.kanemitsu and (args.lo, args.hi) != (None, None):
        raise _UsageError("--kanemitsu sums the prefix up to 1/4 and takes no --lo or --hi")
    if args.kanemitsu:
        # its per-denominator sums are budgeted in cells, before any sieve; the table is
        # handed over unnamed, so that it is freed once kanemitsu_sum has read |F_N|
        _within_budget(f"signed prefix sum at order {args.order}", _prefix_cells(args.order), "cells",
                       config.term_budget)
        result = kanemitsu_sum(args.order, build_totient_table(args.order, budget=config.table_limit),
                               term_budget=config.term_budget)
    else:
        table = build_totient_table(args.order, budget=config.table_limit)
        lo = ZERO if args.lo is None else args.lo
        hi = ONE if args.hi is None else args.hi
        result = partial_franel_sum_range(args.order, lo, hi, None, table, term_budget=config.term_budget)
    names = [field.name for field in fields(result)]
    out.table([{"term_count": "terms"}.get(name, name) for name in names],
              [[getattr(result, name) for name in names]])
    return 0


def _cmd_growth(args, config: Config, out: _Output) -> int:
    co_vertex = args.covertex
    if co_vertex is None:
        if args.vertex != ZERO:
            raise _UsageError("--covertex is required unless the vertex is 0/1")
        co_vertex = INFINITY
    # every section is checked before the one table for the largest order is sieved
    order = max(_section(args.vertex, co_vertex, i).N for i in sorted(set(args.i)))
    table = build_totient_table(order, budget=config.table_limit)
    scan = growth_scan(args.vertex, co_vertex, args.i, table, term_budget=config.term_budget)
    rows = [
        [
            row.i,
            row.order,
            row.result.term_count,
            row.result.sum_float,
            row.sum_over_log,
            row.predicted,
        ]
        for row in scan.rows
    ]
    out.table(["i", "N", "terms", "sum", "sum_over_logN", "predicted"], rows)
    return 0


def _cmd_dress(args, config: Config, out: _Output) -> int:
    if args.sweep_to is not None:
        n = args.sweep_to
        _within_budget(f"dress sweep to order {n}", _sweep_cells(n), "cells", config.term_budget)
        sweep = dress_scan_sweep(n, build_totient_table(n, budget=config.table_limit))
        out.table(
            ["n_max", "all_ok", "violations", "worst_ratio", "worst_order"],
            [[sweep.n_max, sweep.all_ok, len(sweep.violations), sweep.worst_ratio, sweep.worst_order]],
        )
        if not sweep.all_ok:
            raise TheoremViolation(f"deviation bound violated at orders {sweep.violations[:10]}")
        return 0
    table = build_totient_table(args.order, budget=config.table_limit)
    report = dress_scan(args.order, table, term_budget=config.term_budget)
    out.table(
        ["order", "max_term", "argmax_rank", "rank2_term", "bound_ok"],
        [[report.order, report.max_term, report.argmax_rank, report.rank2_term, report.bound_ok]],
    )
    if not report.bound_ok:
        raise TheoremViolation(f"deviation bound violated at order {report.order}")
    return 0


def _cmd_totient(args, config: Config, out: _Output) -> int:
    table = build_totient_table(args.upto, budget=config.table_limit)
    out.table(["n", "phi", "Phi", "E", "H"], error_term_rows(args.upto, table))
    return 0


def _bijection_holds() -> bool:
    """Window match and round trip of every section with i <= 3 at five vertices with eta <= 3."""
    for vertex, co_vertex in [(ZERO, INFINITY), (Fraction(1, 2), ONE), (Fraction(1, 2), ZERO),
                              (Fraction(1, 3), Fraction(1, 2)), (ONE, ZERO)]:
        eta = vertex.den
        for i in (1, 2, 3):
            n = eta * i * (i + 1)
            for q in range(n // (eta * (i + 1)) + 1, n // (eta * i) + 1):
                params = MapParams(vertex, co_vertex, q, i, n)
                cardinality_relation(params)  # raises TheoremViolation itself
                if map_window(params).fractions != enumerate_window(n, *params.interval()).fractions:
                    return False
                members = build_f_prime(params).members
                if any(inverse_map(params, forward_map(params, f)) != f for f in members):
                    return False
    return True


# (label, check) pairs run in order by `farey selftest`; a check returns whether it held
_SELFTEST_CHECKS = [
    ("det2 spot values", lambda: det2(Fraction(4, 5), Fraction(1, 5)) == 15
     and det2(INFINITY, ZERO) == 1 and det2(Fraction(1, 2), Fraction(1, 3)) == 1),
    ("mediant spot values", lambda: mediant(ZERO, INFINITY) == ONE
     and mediant(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)),
    ("shear spot values", lambda: shear(Fraction(2, 3)) == Fraction(2, 5) and shear(ONE) == Fraction(1, 2)),
    ("triple-gcd identity over F_8", lambda: all(
        len(set(gcd_triple(*triple))) == 1
        for triple in combinations(enumerate_window(8, ZERO, ONE).fractions, 3)
    )),
    ("cardinalities", lambda: [farey_cardinality(n, build_totient_table(5)) for n in (5, 1)] == [11, 2]),
    ("closed-form positions in F_6", lambda: all(
        exact_index_unit_fraction(3, q).value == rank_oracle(6, Fraction(1, q)).rank
        == rank_fast(6, Fraction(1, q)).rank == expected
        for q, expected in [(2, 7), (3, 5), (6, 2)]
    )),
    ("closed form vs oracle through i_max=5", lambda: all(
        exact_index_unit_fraction(i_max, q).value == rank_oracle(n, Fraction(1, q)).rank
        for i_max in (2, 3, 4, 5)
        for n in [lcm_range(i_max)]
        for q in range(-(-n // i_max), n + 1)
    )),
    ("bijection round trip / window match (eta <= 3)", _bijection_holds),
    ("deviation sums", lambda: full_franel_sum(3).sum_exact == Rat(1, 2)
     and full_franel_sum(5).sum_exact == Rat(59, 110)),
    ("prefix sums", lambda: kanemitsu_sum(5).sum_exact == Rat(9, 220)
     and kanemitsu_sum(4).sum_exact == Rat(-1, 28)),
    ("deviation bound through order 60", lambda: dress_scan_sweep(60).all_ok),
]


def _cmd_selftest(args, config: Config, out: _Output) -> int:
    failures = []
    for label, check in _SELFTEST_CHECKS:
        ok = check()
        out.stream.write(f"{'ok' if ok else 'FAIL'} - {label}\n")
        if not ok:
            failures.append(label)
    if failures:
        raise TheoremViolation(f"selftest failures: {failures}")
    out.stream.write("selftest passed\n")
    return 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "rank": _cmd_rank,
    "index": _cmd_index,
    "map": _cmd_map,
    "gcd-check": _cmd_gcd_check,
    "franel": _cmd_franel,
    "growth": _cmd_growth,
    "dress": _cmd_dress,
    "totient": _cmd_totient,
    "selftest": _cmd_selftest,
}


def run(argv: list[str], stream=None) -> int:
    """Parse argv, execute one subcommand, and return the process exit code."""
    stream = stream or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        config = _config(args)
    except (_UsageError, ValueError) as exc:  # PreconditionError is a ValueError
        print(f"farey: usage error: {exc}", file=sys.stderr)
        return 1
    try:
        out = _Output(config, args.subcommand, argv[1:], stream)
        return _HANDLERS[args.subcommand](args, config, out)
    except _UsageError as exc:
        print(f"farey: usage error: {exc}", file=sys.stderr)
        return 1
    except TheoremViolation as exc:
        print(f"farey: FALSIFIED: {exc}", file=sys.stderr)
        return 3
    except FareyError as exc:
        print(f"farey: error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
