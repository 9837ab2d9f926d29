"""Refusals: one budget message shape, and whatever needs no table refused before any sieve."""

import io
from unittest.mock import Mock

import pytest

from fareysums import cli, franel, totient
from fareysums.arith import Fraction, ONE, ZERO
from fareysums.errors import BudgetError, PreconditionError, within_budget
from fareysums.franel import dress_scan, dress_scan_sweep, full_franel_sum, kanemitsu_sum, partial_franel_sum_range
from fareysums.totient import build_totient_table


class TestWithinBudget:
    def test_a_count_is_printed_in_full(self):
        with pytest.raises(BudgetError, match="^scan needs 1234567 terms, over budget 1234566$"):
            within_budget("scan", 1_234_567, "terms", 1_234_566)

    def test_an_estimate_is_printed_about_to_three_digits(self):
        with pytest.raises(BudgetError, match=r"^scan needs about 1\.23e\+06 terms, over budget 1234566$"):
            within_budget("scan", 1_234_567.0, "terms", 1_234_566)

    @pytest.mark.parametrize("amount", [10, 10.0, 0, -1.5])
    def test_an_amount_at_or_below_the_budget_passes(self, amount):
        within_budget("scan", amount, "terms", 10)


def _sweep_of_300_over_13699(monkeypatch):
    monkeypatch.setattr(franel, "SWEEP_MEMBER_BUDGET", 13_699)
    dress_scan_sweep(300)


# Every call of within_budget, once each: a library call that raises, or a CLI argv that exits 2.
# A counted amount is printed in full, an estimate as "about" and 3 significant digits.
_REFUSALS = [
    pytest.param(lambda mp: build_totient_table(1001, budget=1000),
                 "totient table needs 1001 entries, over budget 1000", id="totient-table"),
    # |F_100| = 3045 terms
    pytest.param(lambda mp: full_franel_sum(100, term_budget=100),
                 "deviation scan over [0/1, 1/1] at order 100 needs 3045 terms, over budget 100", id="franel-window"),
    # 100*ln(100) = 460.5 cells
    pytest.param(lambda mp: kanemitsu_sum(100, term_budget=460),
                 "signed prefix sum at order 100 needs about 461 cells, over budget 460", id="franel-kanemitsu"),
    # (|F_300| + 1)/2 = 13700 members
    pytest.param(_sweep_of_300_over_13699,
                 "sweep to 300 needs 13700 members of F_300 in [0, 1/2], over budget 13699", id="franel-sweep"),
    pytest.param(["enumerate", "--order", "1001", "--lo", "1/3", "--hi", "1/3", "--table-limit", "1000"],
                 "fast rank at order 1001 needs 1001 sieve entries, over budget 1000", id="cli-enumerate-sieve"),
    # |F_300| = 27399 rows, counted from ranks
    pytest.param(["enumerate", "--order", "300", "--term-budget", "27398"],
                 "window [0/1, 1/1] at order 300 needs 27399 rows, over budget 27398", id="cli-enumerate-rows"),
    pytest.param(["rank", "--order", "1001", "--fraction", "1/3", "--table-limit", "1000"],
                 "fast rank at order 1001 needs 1001 sieve entries, over budget 1000", id="cli-rank-fast"),
    # (1/3) * 300000 * 300001/2 = 1.500005e10 gcd steps
    pytest.param(["rank", "--order", "300000", "--fraction", "1/3", "--method", "oracle"],
                 "oracle rank at order 300000 needs about 1.5e+10 gcd steps, over budget 100000000",
                 id="cli-rank-oracle"),
    # N - ceil(N/20) + 1 = 232792560 - 11639628 + 1 rows at N = lcm(2..20)
    pytest.param(["index", "--imax", "20", "--sweep"],
                 "index sweep at order lcm(2..20) needs 221152933 rows, over budget 100000000", id="cli-index-sweep"),
    # i = floor(6/3) = 2; (3/pi^2)*4 + 4*ln(4) + 16 = 22.8 by the density estimate of F_2
    pytest.param(["map", "--vertex", "0/1", "--covertex", "1/0", "--q", "3", "--order", "6", "--term-budget", "22"],
                 "map over F_2 needs about 22.8 terms, over budget 22", id="cli-map"),
    # C(|F_12|, 3) = C(47, 3) triples
    pytest.param(["gcd-check", "--exhaustive", "12", "--term-budget", "16214"],
                 "gcd check needs 16215 triples, over budget 16214", id="cli-gcd-check"),
    pytest.param(["franel", "--order", "100", "--kanemitsu", "--term-budget", "460"],
                 "signed prefix sum at order 100 needs about 461 cells, over budget 460", id="cli-franel-kanemitsu"),
    # about 5.47e4 members of F_600 in [0, 1/2] and 4 passes over batches of orders by blocks
    pytest.param(["dress", "--sweep-to", "600", "--term-budget", "10"],
                 "dress sweep to order 600 needs about 3.16e+05 cells, over budget 10", id="cli-dress-sweep"),
]


@pytest.mark.parametrize("refused,message", _REFUSALS)
def test_every_refusal_names_the_amount_and_the_limit(refused, message, monkeypatch, capsys):
    if isinstance(refused, list):
        assert cli.run(refused, stream=io.StringIO()) == 2
        assert capsys.readouterr().err == f"farey: error: {message}\n"
    else:
        with pytest.raises(BudgetError) as refusal:
            refused(monkeypatch)
        assert str(refusal.value) == message


def _no_sieve(monkeypatch):
    for module in (cli, franel, totient):
        monkeypatch.setattr(module, "build_totient_table", Mock(side_effect=AssertionError("sieved")))
    for module in (franel, totient):
        monkeypatch.setattr(module, "mobius_upto", Mock(side_effect=AssertionError("sieved mu")))


_ORDER_ENTRIES = [
    pytest.param(lambda n: full_franel_sum(n), id="full_franel_sum"),
    pytest.param(lambda n: partial_franel_sum_range(n, ZERO, ONE), id="partial_franel_sum_range"),
    pytest.param(lambda n: partial_franel_sum_range(n, Fraction(1, 3), Fraction(1, 2)), id="partial-window"),
    pytest.param(lambda n: dress_scan(n), id="dress_scan"),
    pytest.param(lambda n: dress_scan_sweep(n), id="dress_scan_sweep"),
    pytest.param(lambda n: kanemitsu_sum(n), id="kanemitsu_sum"),
]


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("entry", _ORDER_ENTRIES)
def test_a_non_positive_order_is_refused_before_any_sieve(entry, n, monkeypatch):
    _no_sieve(monkeypatch)
    with pytest.raises(PreconditionError, match=f"^order must be >= 1, got {n}$"):
        entry(n)


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["franel", "--order"], ["franel", "--kanemitsu", "--order"], ["dress", "--order"], ["dress", "--sweep-to"]],
    ids=["franel", "franel-kanemitsu", "dress", "dress-sweep"],
)
def test_the_cli_refuses_a_non_positive_order_before_any_sieve(argv, n, monkeypatch, capsys):
    _no_sieve(monkeypatch)
    assert cli.run([*argv, n], stream=io.StringIO()) == 2
    assert capsys.readouterr().err == f"farey: error: order must be >= 1, got {n}\n"


# Windows refused by their ends alone, at an order whose table would take about 180 MB
_BAD_WINDOWS = [
    pytest.param("1/2", "1/3", "empty range: lo=1/2 > hi=1/3", id="empty"),
    pytest.param("3/2", "1/1", "lo=3/2 is outside [0/1, 1/1]", id="outside"),
    pytest.param("1/20000001", "1/2", "lo=1/20000001 is not in F_10000000", id="not-a-member"),
]


@pytest.mark.parametrize("lo,hi,message", _BAD_WINDOWS)
def test_a_bad_window_is_refused_before_any_sieve(lo, hi, message, monkeypatch):
    _no_sieve(monkeypatch)
    with pytest.raises(PreconditionError) as refusal:
        partial_franel_sum_range(10_000_000, Fraction.parse(lo), Fraction.parse(hi))
    assert str(refusal.value) == message


_PAST_THE_CAP = "order 3000000000 is past the deviation kernel's int64 domain: it must be below 3000000000"


@pytest.mark.parametrize(
    "argv,message",
    [
        *(pytest.param(["franel", "--order", "10000000", "--lo", lo, "--hi", hi], message, id=f"franel-{window.id}")
          for window in _BAD_WINDOWS for lo, hi, message in [window.values]),
        pytest.param(["franel", "--order", "3", "--kanemitsu"], "the prefix sum needs n >= 4, got 3",
                     id="franel-kanemitsu-below-4"),
        pytest.param(["franel", "--order", "3000000000", "--table-limit", "3000000000"], _PAST_THE_CAP,
                     id="franel-past-the-cap"),
        pytest.param(["dress", "--order", "3000000000", "--table-limit", "3000000000"], _PAST_THE_CAP,
                     id="dress-past-the-cap"),
    ],
)
def test_the_cli_refuses_what_needs_no_table_before_any_sieve(argv, message, monkeypatch, capsys):
    _no_sieve(monkeypatch)
    assert cli.run(argv, stream=io.StringIO()) == 2
    assert capsys.readouterr().err == f"farey: error: {message}\n"
