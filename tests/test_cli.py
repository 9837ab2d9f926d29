import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import weakref
from fractions import Fraction as Rat
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest

from fareysums import cli, farey, franel, index, totient


def run_cli(argv):
    stream = io.StringIO()
    code = cli.run(argv, stream=stream)
    return code, stream.getvalue()


class TestSingleValueCommands:
    def test_rank_example(self):
        code, out = run_cli(["rank", "--order", "6", "--fraction", "1/2"])
        assert code == 0
        assert out == "7\n"

    def test_rank_fast_method(self):
        code, out = run_cli(["rank", "--order", "100", "--fraction", "1/2", "--method", "fast"])
        assert code == 0
        assert out == "1523\n"

    def test_rank_defaults_to_fast(self, monkeypatch):
        def refuse(n, x):
            raise AssertionError("the oracle ran without --method oracle")

        monkeypatch.setattr(cli, "rank_oracle", refuse)
        code, out = run_cli(["rank", "--order", "300000", "--fraction", "1/3"])
        assert code == 0
        assert out == "9118916219\n"

    def test_rank_oracle_under_budget(self):
        code, out = run_cli(["rank", "--order", "100", "--fraction", "1/2", "--method", "oracle"])
        assert code == 0
        assert out == "1523\n"

    def test_rank_oracle_refused_over_budget(self, capsys):
        code, out = run_cli(["rank", "--order", "300000", "--fraction", "1/3", "--method", "oracle"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "needs about 1.5e+10 gcd steps, over budget 100000000" in err

    def test_index_example(self):
        code, out = run_cli(["index", "--imax", "3", "--q", "6"])
        assert code == 0
        assert out == "2\n"

    def test_index_asymptotic(self):
        code, out = run_cli(["index", "--imax", "3", "--q", "6", "--asymptotic"])
        assert code == 0
        assert out.strip() == "1.82378130556"


class TestTables:
    def test_enumerate_csv(self):
        code, out = run_cli(["enumerate", "--order", "6", "--lo", "1/3", "--hi", "1/2"])
        assert code == 0
        lines = out.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any("command:" in ln for ln in meta)
        assert data[0] == "index,fraction,num,den"
        assert data[1:] == ["5,1/3,1,3", "6,2/5,2,5", "7,1/2,1,2"]

    def test_enumerate_json(self):
        code, out = run_cli(["enumerate", "--order", "6", "--lo", "1/3", "--hi", "1/2",
                             "--format", "json"])
        assert code == 0
        body = json.loads(out)
        assert set(body) == {"meta", "rows"}
        assert [row["fraction"] for row in body["rows"]] == ["1/3", "2/5", "1/2"]

    @pytest.mark.parametrize(
        "argv,csv_sha256,json_sha256",
        [
            (["--order", "1"], "2b2f8c479389e40fa2af20ac27abcbb2db8cd66e305ffc8f53b26c1f00b8b941",
             "22adaf73dbeb86f9aaca5270de1e2451ca62e8d0af73aadb60da6503a2916ee5"),
            (["--order", "12"], "ce936644e348ac001015222151931c4cb3b1541fadb5fc1742d2a86a641e57f9",
             "8c5795e5e7c47dc35b11af9693d117b108afaf9b35c5f631047785abd4553da5"),
            (["--order", "100"], "b12c94dd67d4f71cca828196b7050ae6a7a683cdf1122ff9d6cc46e11471745a",
             "d2e419e85a7b69619ef0e8e9da830bb3a7f0069260ec6ddaa918aeabacddf24b"),
            # an empty window: the header alone, and "rows": []
            (["--order", "2", "--lo", "1/3", "--hi", "2/5"],
             "f23379a4f7e7364a5a9eaadcf33cf5b72830e93d9d080b66c32e244b3708f687",
             "57fac5ebc32fbc415b697c1f29ba6642f6d9a6548cf7cc95e23c8e9cf14d5686"),
        ],
    )
    def test_streamed_enumerate_keeps_the_held_rows_bytes(self, argv, csv_sha256, json_sha256, monkeypatch):
        # the digests of the output written when every row was held in a list first
        for name in [name for name in os.environ if name.startswith("FAREY_")]:
            monkeypatch.delenv(name)
        monkeypatch.setattr(cli, "enumerate_window", None)  # no list of the members is built
        for rows_per_write in (7, cli._ROWS_PER_WRITE):
            monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
            for fmt, want in (("csv", csv_sha256), ("json", json_sha256)):
                code, out = run_cli(["enumerate", *argv, "--format", fmt])
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_cells_of_other_types_format_as_their_kind(self):
        out = cli._Output(cli.Config(precision_digits=7), "enumerate", [], io.StringIO())
        cells = [None, True, 3, 1 / 7, Rat(3, 7), "1/2", np.int64(5), np.float64(1 / 7), np.int8(-3)]
        assert [out.fmt(cell) for cell in cells] == ["", "true", "3", "0.1428571", "3/7", "1/2", "5", "0.1428571", "-3"]
        out.table(["a", "b", "c"], [cells[:3], cells[3:6], cells[6:]])
        assert out.stream.getvalue().splitlines()[3:] == ["a,b,c", ",true,3", "0.1428571,3/7,1/2", "5,0.1428571,-3"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_as_they_are_drawn(self, fmt, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 2)
        stream = io.StringIO()
        out = cli._Output(cli.Config(output_format=fmt), "enumerate", [], stream)

        def rows():
            yield [1, "first"]
            yield [2, "second"]
            assert "second" in stream.getvalue()
            yield [3, "third"]

        out.table(["index", "fraction"], rows())
        assert "third" in stream.getvalue()

    def test_enumerate_refuses_past_the_budget_before_a_row(self, capsys):
        # F_300 has 27 399 members, and its size estimate (about 3.08e4) is within 1.25 budgets:
        # the count from ranks decides, before any output
        assert run_cli(["enumerate", "--order", "300", "--term-budget", "27398"]) == (2, "")
        assert "needs 27399 rows, over budget 27398" in capsys.readouterr().err
        code, out = run_cli(["enumerate", "--order", "300", "--term-budget", "27399"])
        assert code == 0 and out.endswith("\n27399,1/1,1,1\n")

    def test_map_forward_pairs(self):
        code, out = run_cli(["map", "--vertex", "0/1", "--covertex", "1/0",
                             "--q", "3", "--order", "6", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["source"], r["image"]) for r in rows] == [
            ("0/1", "1/3"), ("1/2", "2/5"), ("1/1", "1/2"),
        ]

    def test_map_inverse_pairs(self):
        code, out = run_cli(["map", "--vertex", "0/1", "--covertex", "1/0",
                             "--q", "3", "--order", "6", "--inverse", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["source"], r["image"]) for r in rows] == [
            ("1/3", "0/1"), ("2/5", "1/2"), ("1/2", "1/1"),
        ]

    def test_franel_exact_column(self):
        code, out = run_cli(["franel", "--order", "5", "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["sum_exact"] == "59/110"
        assert row["terms"] == "11"

    def test_franel_kanemitsu(self):
        code, out = run_cli(["franel", "--order", "5", "--kanemitsu", "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["sum_exact"] == "9/220"

    def test_franel_partial_range(self):
        code, out = run_cli(["franel", "--order", "6", "--lo", "0/1", "--hi", "1/3",
                             "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["rank_lo"] == "1" and row["rank_hi"] == "5"

    def test_growth_columns(self):
        code, out = run_cli(["growth", "--vertex", "0/1", "--i", "4,6"])
        assert code == 0
        data = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert data[0] == "i,N,terms,sum,sum_over_logN,predicted"
        assert data[1].startswith("4,12,") and data[2].startswith("6,60,")
        assert data[1].endswith(",")  # no prediction at this vertex

    def test_growth_eta_three_has_prediction(self):
        code, out = run_cli(["growth", "--vertex", "1/3", "--covertex", "1/2", "--i", "4",
                             "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert float(row["predicted"]) > 0

    @pytest.mark.parametrize("order", [1, 12, 100])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_franel_over_f_n_is_the_range_zero_to_one(self, order, fmt, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("franel took a second path")

        monkeypatch.setattr(cli, "full_franel_sum", refuse)
        argv = ["franel", "--order", str(order), "--format", fmt]
        code, out = run_cli([*argv, "--lo", "0/1", "--hi", "1/1"])
        # byte for byte but for the echoed command
        assert run_cli(argv) == (0, out.replace(" --lo 0/1 --hi 1/1", "")) and code == 0

    def test_dress_sweep_sieves_one_table(self, monkeypatch):
        limits = []

        def sieve(limit, *args, **kwargs):
            limits.append(limit)
            return totient.build_totient_table(limit, *args, **kwargs)

        for module in (cli, franel):
            monkeypatch.setattr(module, "build_totient_table", sieve)
        assert run_cli(["dress", "--sweep-to", "600"])[0] == 0
        assert limits == [600]

    def test_dress_single(self):
        code, out = run_cli(["dress", "--order", "6", "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["bound_ok"] == "true"

    def test_dress_sweep(self):
        code, out = run_cli(["dress", "--sweep-to", "60", "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["all_ok"] == "true" and row["violations"] == "0"

    def test_totient_dump(self):
        code, out = run_cli(["totient", "--upto", "6"])
        assert code == 0
        data = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert data[0] == "n,phi,Phi,E,H"
        assert len(data) == 7
        assert data[6].startswith("6,2,12,1.057")

    def test_index_sweep(self):
        code, out = run_cli(["index", "--imax", "3", "--sweep"])
        assert code == 0
        data = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert data[0] == "q,exact,asymptotic,residual,residual_over_N"
        assert len(data) == 1 + (6 - 2 + 1)


class TestGcdCheck:
    def test_exhaustive_f12(self):
        code, out = run_cli(["gcd-check", "--exhaustive", "12"])
        assert code == 0
        assert out.strip() == "0 counterexamples among 16215 triples"

    def test_random_triples(self):
        code, out = run_cli(["gcd-check", "--random", "2000", "--max-value", "500", "--seed", "9"])
        assert code == 0
        assert out.strip() == "0 counterexamples among 2000 triples"

    def test_random_triples_keep_the_seeded_draw_order(self):
        # numerator then denominator from Random(seed), three times, as recorded runs drew them
        triples = [tuple(map(str, t)) for t in cli._random_triples(3, 10_000, 0)]
        assert triples == [
            ("663/4243", "6311/6891", "1396/1327"),
            ("7808/5867", "3317/2485", "3186/1193"),
            ("1553/4105", "4617/2290", "4134/1141"),
        ]

    @pytest.mark.parametrize("max_value", [2**31 - 1, 2**31, 2**40])
    def test_values_on_both_sides_of_the_int64_edge(self, max_value):
        # gcd_triples' determinants are int64 below 2**31 and Python ints from it on
        code, out = run_cli(["gcd-check", "--random", "50", "--max-value", str(max_value)])
        assert (code, out.strip()) == (0, "0 counterexamples among 50 triples")

    def test_needs_a_mode(self):
        code, _ = run_cli(["gcd-check"])
        assert code == 1


class TestExitCodes:
    def test_usage_error_bad_fraction(self, capsys):
        code, _ = run_cli(["rank", "--order", "6", "--fraction", "nonsense"])
        assert code == 1
        assert capsys.readouterr().err == (
            "farey: usage error: argument --fraction: expected a fraction 'num/den', got 'nonsense'\n"
        )

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["enumerate", "--order", "6", "--lo", "1/"], "1/"),
            (["map", "--vertex", "0/1", "--covertex", "x", "--q", "2", "--order", "6"], "x"),
            (["franel", "--order", "6", "--hi", "2/x"], "2/x"),
            (["growth", "--vertex", "1.5", "--i", "4"], "1.5"),
        ],
    )
    def test_bad_fraction_keeps_the_parse_message(self, argv, text, capsys):
        assert run_cli(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("farey: usage error: argument --")
        assert err.endswith(f"expected a fraction 'num/den', got {text!r}\n")

    @pytest.mark.parametrize(
        "argv,conflict",
        [
            (["franel", "--order", "20", "--kanemitsu", "--lo", "0/1"], "takes no --lo or --hi"),
            (["franel", "--order", "20", "--hi", "1/4", "--kanemitsu"], "takes no --lo or --hi"),
            (["dress", "--order", "20", "--sweep-to", "60"], "--sweep-to: not allowed with argument --order"),
        ],
    )
    def test_flags_the_command_would_ignore_are_refused(self, argv, conflict, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_totient_table", Mock(side_effect=AssertionError("sieved")))
        assert run_cli(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("farey: usage error: ") and conflict in err

    def test_usage_error_unknown_subcommand(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_computation_error_budget(self, monkeypatch):
        monkeypatch.setenv("FAREY_TERM_BUDGET", "10")
        code, _ = run_cli(["franel", "--order", "100"])
        assert code == 2

    def test_computation_error_out_of_domain(self):
        code, _ = run_cli(["index", "--imax", "3", "--q", "100"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["franel", "--order", "3000", "--table-limit", "100"],
            ["dress", "--order", "3000", "--table-limit", "100"],
            ["growth", "--vertex", "0/1", "--i", "6", "--table-limit", "10"],
        ],
    )
    def test_table_limit_bounds_every_table(self, argv, capsys):
        assert run_cli(argv) == (2, "")
        order = 60 if argv[0] == "growth" else int(argv[2])  # the growth section's N = lcm(2..6)
        assert f"totient table needs {order} entries, over budget {argv[-1]}" in capsys.readouterr().err

    def test_falsified_theorem_exit_code(self, monkeypatch):
        # force the identity check to report unequal gcds to exercise the wiring
        monkeypatch.setattr(cli, "gcd_triples", lambda nums, dens: np.tile([1, 2, 3], (len(nums) // 3, 1)))
        code, out = run_cli(["gcd-check", "--exhaustive", "3"])
        assert code == 3
        assert out.strip().endswith("among 10 triples")

    def test_a_sweep_past_the_bound_is_falsified(self, monkeypatch, capsys):
        # order 3 deviates by 1/2 > 1/3
        monkeypatch.setattr(franel, "_sweep_maxima", lambda n_max, table=None: iter([(2, 1, 4), (3, 1, 2)]))
        code, out = run_cli(["dress", "--sweep-to", "3"])
        assert code == 3
        assert out.splitlines()[-1] == "3,false,1,1.5,3"
        assert "FALSIFIED: deviation bound violated at orders [3]" in capsys.readouterr().err

    def test_an_order_past_the_bound_is_falsified(self, monkeypatch, capsys):
        report = franel.DressReport(6, 0.25, 2, False, 0.125)
        monkeypatch.setattr(cli, "dress_scan", lambda n, table, term_budget: report)
        code, out = run_cli(["dress", "--order", "6"])
        assert code == 3
        assert out.splitlines()[-1] == "6,0.25,2,0.125,false"
        assert "FALSIFIED: deviation bound violated at order 6" in capsys.readouterr().err

    def test_a_list_with_a_non_integer_is_a_usage_error(self, capsys):
        assert run_cli(["growth", "--vertex", "0/1", "--i", "4,x"]) == (1, "")
        assert "expected comma-separated integers, got '4,x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["index", "--imax", "5"], "index needs --q or --sweep"),
            (["growth", "--vertex", "1/2", "--i", "4"], "--covertex is required unless the vertex is 0/1"),
        ],
    )
    def test_a_missing_flag_is_a_usage_error(self, argv, message, capsys):
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == f"farey: usage error: {message}\n"

    def test_an_unknown_output_format_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("FAREY_OUTPUT_FORMAT", "xml")
        assert run_cli(["rank", "--order", "6", "--fraction", "1/2"]) == (1, "")
        assert capsys.readouterr().err == "farey: usage error: unknown output format 'xml'\n"


class TestOutOfDomain:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["enumerate", "--order", "0"], 2),
            (["rank", "--order", "6", "--fraction", "1/0"], 2),
            (["index", "--imax", "1", "--q", "1"], 2),
            (["map", "--vertex", "0/1", "--covertex", "1/0", "--q", "0", "--order", "6"], 2),
            (["map", "--vertex", "1/0", "--covertex", "0/1", "--q", "2", "--order", "6"], 2),
            (["gcd-check", "--random", "3", "--max-value", "0"], 2),
            (["gcd-check", "--random", "3", "--max-value", "1"], 2),
            (["gcd-check", "--random", "-3"], 2),
            (["franel", "--order", "0"], 2),
            (["growth", "--vertex", "0/1", "--i", "1"], 2),
            (["growth", "--vertex", "0/1", "--i", ","], 1),
            (["dress", "--order", "0"], 2),
            (["dress", "--sweep-to", "0"], 2),
            (["totient", "--upto", "0"], 2),
            (["selftest", "--table-limit", "-1"], 1),
            (["franel", "--order", "20", "--term-budget", "0"], 1),
            (["franel", "--order", "20", "--table-limit", "0"], 1),
            (["franel", "--order", "20", "--precision", "0"], 1),
            (["index", "--imax", "20000", "--q", "1"], 2),
            (["index", "--imax", "20000", "--sweep"], 2),
            (["growth", "--vertex", "0/1", "--i", "60000"], 2),
            (["index", "--imax", "400", "--q", "1", "--asymptotic"], 2),
        ],
    )
    def test_every_subcommand_refuses_without_a_traceback(self, argv, code, capsys):
        assert run_cli(argv) == (code, "")
        prefix = "farey: error: " if code == 2 else "farey: usage error: "
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize(
        "argv,i",
        [
            (["index", "--imax", "20000", "--q", "1"], 20000),
            (["index", "--imax", "20000", "--sweep"], 20000),
            (["growth", "--vertex", "0/1", "--i", "64"], 64),
            (["growth", "--vertex", "0/1", "--i", "200000"], 200000),
            # 2*515 - 4 - 1 >= 1024: the asymptotic rank is past the float range
            (["index", "--imax", "515", "--q", "1", "--asymptotic"], 515),
            (["index", "--imax", "50000", "--q", "1", "--asymptotic"], 50000),
        ],
    )
    def test_lcm_orders_are_refused_before_they_are_formed(self, argv, i, monkeypatch, capsys):
        def bounded(k):
            if k > 63:
                raise AssertionError(f"lcm(2..{k}) was formed")
            return totient.lcm_range(k)

        for module in (cli, franel, index):
            monkeypatch.setattr(module, "lcm_range", bounded)
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        # the order is named, not printed
        assert f"lcm(2..{i})" in err and len(err) < 200


class TestWorkBudgets:
    @pytest.mark.parametrize(
        "argv,estimate,limit",
        [
            # lcm(2..20) - ceil(lcm(2..20)/20) + 1 = 232792560 - 11639628 + 1 rows, counted
            (["index", "--imax", "20", "--sweep"], "needs 221152933 rows", "budget 100000000"),
            # C(|F_60|, 3) = C(1103, 3) triples, counted
            (["gcd-check", "--exhaustive", "60"], "needs 223045351 triples", "budget 100000000"),
            (["dress", "--sweep-to", "600", "--table-limit", "10"], "totient table needs 600 entries", "budget 10"),
            # about 5.47e4 members of F_600 in [0, 1/2] in 365 blocks of 150, and 4 passes
            # over batches of 179 orders by all blocks
            (["dress", "--sweep-to", "600", "--term-budget", "10"], "needs about 3.16e+05 cells", "budget 10"),
            (["gcd-check", "--random", "1000", "--term-budget", "999"], "needs 1000 triples", "budget 999"),
            # F_400 holds about 4.9e4 members, about 5.34e4 by the density estimate
            (["map", "--vertex", "0/1", "--covertex", "1/0", "--q", "401", "--order", "160400",
              "--term-budget", "10"], "needs about 5.34e+04 terms", "budget 10"),
            (["map", "--vertex", "0/1", "--covertex", "1/0", "--q", "401", "--order", "160400",
              "--term-budget", "10", "--inverse"], "needs about 5.34e+04 terms", "budget 10"),
            # ranking the window's first member would sieve mu to N
            (["enumerate", "--order", "3000000", "--lo", "1/3", "--hi", "1/3", "--table-limit", "1000"],
             "needs 3000000 sieve entries", "budget 1000"),
        ],
        # each id gives the refused amount to 3 significant digits, and argv2's the table limit
        ids=[
            "argv0-2.21e+08 rows-budget 100000000",
            "argv1-2.23e+08 triples-budget 100000000",
            "argv2-table limit 600-budget 10",
            "argv3-3.16e+05 cells-budget 10",
            "argv4-1e+03 triples-budget 999",
            "argv5-5.34e+04 terms-budget 10",
            "argv6-5.34e+04 terms-budget 10",
            "argv7-3e+06 sieve entries-budget 1000",
        ],
    )
    def test_refused_before_the_work_starts(self, argv, estimate, limit, capsys):
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("farey: error: ")
        assert estimate in err and limit in err

    def test_fast_rank_is_bounded_by_the_table_limit(self, monkeypatch, capsys):
        sieve = totient.mobius_upto

        def bounded(limit):
            if limit > 1000:
                raise AssertionError(f"mu was sieved to {limit}")
            return sieve(limit)

        monkeypatch.setattr(totient, "mobius_upto", bounded)
        argv = ["rank", "--fraction", "1/3", "--table-limit", "1000", "--order"]
        assert run_cli([*argv, "1001"]) == (2, "")
        assert "needs 1001 sieve entries, over budget 1000" in capsys.readouterr().err
        assert run_cli([*argv, "1000"]) == (0, "101401\n")

    def test_kanemitsu_at_a_million_within_the_default_budgets(self):
        # its 7.6e10 terms are past any enumeration; its about 1.38e7 cells are not
        code, out = run_cli(["franel", "--order", "1000000", "--kanemitsu", "--format", "json", "--precision", "17"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["prefix_rank"] == "75990888179"
        assert float(row["sum_float"]) == franel.kanemitsu_sum(10**6).sum_float

    def test_kanemitsu_is_budgeted_in_cells_before_any_sieve(self, monkeypatch, capsys):
        # 10**6 * ln(10**6) = 13 815 510.6 cells
        for module in (cli, franel):
            monkeypatch.setattr(module, "build_totient_table", Mock(side_effect=AssertionError("sieved")))
        for module in (franel, totient):
            monkeypatch.setattr(module, "mobius_upto", Mock(side_effect=AssertionError("sieved mu")))
        argv = ["franel", "--order", "1000000", "--kanemitsu", "--term-budget", "13815510"]
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("farey: error: ")
        assert "needs about 1.38e+07 cells, over budget 13815510" in err

    def test_kanemitsu_frees_the_table_before_its_sums(self, monkeypatch):
        # only |F_N| is read from the table, so nothing holds it while the sums run
        tables, alive = [], []
        sieve, sums = cli.build_totient_table, franel._prefix_sums

        def build(*args, **kwargs):
            table = sieve(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def prefix_sums(n):
            alive.extend(ref() is not None for ref in tables)
            return sums(n)

        monkeypatch.setattr(cli, "build_totient_table", build)
        monkeypatch.setattr(franel, "_prefix_sums", prefix_sums)
        code, out = run_cli(["franel", "--order", "2520", "--kanemitsu"])
        assert code == 0 and "sum_float" in out
        assert alive == [False]

    @staticmethod
    def _refuse_triples(monkeypatch):
        """Make gcd-check fail on the first member it enumerates or the first triples it checks."""
        def refuse(*args):
            raise AssertionError("worked over the budget")

        window = farey.iter_window  # the stream of members under _window_pairs and enumerate_window
        monkeypatch.setattr(farey, "iter_window", lambda *args: map(refuse, window(*args)))
        monkeypatch.setattr(cli, "gcd_triples", refuse)

    def test_exhaustive_triples_are_counted_before_any_member(self, monkeypatch, capsys):
        self._refuse_triples(monkeypatch)
        # F_12 holds 47 fractions: C(47, 3) = 16215 triples
        assert run_cli(["gcd-check", "--exhaustive", "12", "--term-budget", "16214"]) == (2, "")
        assert "needs 16215 triples, over budget 16214" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [16215, 16224])
    def test_exhaustive_and_random_triples_are_counted_together(self, budget, monkeypatch, capsys):
        self._refuse_triples(monkeypatch)
        # C(47, 3) = 16215 exhaustive triples plus 10 random ones
        argv = ["gcd-check", "--exhaustive", "12", "--random", "10", "--term-budget", str(budget)]
        assert run_cli(argv) == (2, "")
        assert f"needs 16225 triples, over budget {budget}" in capsys.readouterr().err

    def test_exhaustive_and_random_triples_within_the_budget(self):
        argv = ["gcd-check", "--exhaustive", "12", "--random", "10", "--term-budget", "16225"]
        assert run_cli(argv) == (0, "0 counterexamples among 16225 triples\n")


class TestConfig:
    def test_defaults_in_the_meta_line(self):
        _, out = run_cli(["enumerate", "--order", "1"])
        assert "# config: table_limit=10000000 term_budget=100000000 format=csv precision=12\n" in out

    def test_env_controls_precision(self, monkeypatch):
        monkeypatch.setenv("FAREY_PRECISION_DIGITS", "4")
        _, out = run_cli(["index", "--imax", "3", "--q", "6", "--asymptotic"])
        assert out.strip() == "1.824"

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("FAREY_PRECISION_DIGITS", "4")
        _, out = run_cli(["index", "--imax", "3", "--q", "6", "--asymptotic", "--precision", "7"])
        assert out.strip() == "1.823781"

    def test_env_format(self, monkeypatch):
        monkeypatch.setenv("FAREY_OUTPUT_FORMAT", "json")
        _, out = run_cli(["dress", "--order", "6"])
        assert json.loads(out)["rows"][0]["order"] == "6"

    def test_determinism(self):
        argv = ["growth", "--vertex", "1/2", "--covertex", "1/1", "--i", "4,6"]
        assert run_cli(argv) == run_cli(argv)


class TestSelftest:
    def test_selftest_passes(self):
        code, out = run_cli(["selftest"])
        assert code == 0
        assert "selftest passed" in out
        assert "FAIL" not in out


    @pytest.mark.parametrize("broken", ["map_window", "inverse_map"])
    def test_a_broken_bijection_fails_its_check(self, broken, monkeypatch):
        fakes = {
            "map_window": lambda params: Mock(fractions=[]),  # matches no window of F_N
            "inverse_map": lambda params, u: cli.ZERO,  # round-trips only 0/1
        }
        monkeypatch.setattr(cli, broken, fakes[broken])
        assert cli._bijection_holds() is False
        code, out = run_cli(["selftest"])
        assert code == 3
        assert "FAIL - bijection round trip / window match (eta <= 3)\n" in out
        assert "selftest passed" not in out

    def test_a_failing_check_is_reported_and_the_rest_still_run(self, monkeypatch):
        checks = list(cli._SELFTEST_CHECKS)
        label, _ = checks[3]
        checks[3] = (label, lambda: False)
        monkeypatch.setattr(cli, "_SELFTEST_CHECKS", checks)
        code, out = run_cli(["selftest"])
        assert code == 3
        lines = out.splitlines()
        assert lines[3] == f"FAIL - {label}"
        assert lines[4:] == [f"ok - {later}" for later, _ in checks[4:]]


_RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "cli_sessions.json").read_text()
)["results"]


@pytest.mark.parametrize("command", sorted(_RECORDED))
def test_recorded_session_output_is_byte_identical(command, monkeypatch):
    for name in [name for name in os.environ if name.startswith("FAREY_")]:
        monkeypatch.delenv(name)
    code, out = run_cli(command.split(" "))
    want = _RECORDED[command]
    assert code == want["exit_code"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"]


def test_python_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fareysums", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: farey")


def test_the_module_entry_calls_main(monkeypatch, capsys):
    # `python -m fareysums` in this process: __main__ hands sys.argv to main
    monkeypatch.setattr(sys, "argv", ["farey", "rank", "--order", "6", "--fraction", "1/2"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("fareysums", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "7\n"
