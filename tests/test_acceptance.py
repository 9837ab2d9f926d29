"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the printed PASS/FAIL
lines and the measured constants.  Criterion 8 is expected to fail; the ratio
it pins down provably grows with the order (see the criterion's docstring),
and the test reports that honestly instead of loosening the band.
"""

from fractions import Fraction as Rat
from itertools import combinations, islice
from math import gcd
from random import Random

import numpy as np

from fareysums.arith import Fraction, INFINITY, ONE, ZERO, gcd_triples
from fareysums.cli import _TRIPLES_PER_BATCH
from fareysums.errors import TheoremViolation
from fareysums.farey import enumerate_window, farey_neighbors, rank_oracle
from fareysums.franel import dress_scan_sweep, full_franel_sum, growth_scan, kanemitsu_sum, vertex_partial_sum
from fareysums.index import asymptotic_index_zero, exact_index_unit_fraction
from fareysums.mapping import MapParams, build_f_prime, cardinality_relation, forward_map, inverse_map, map_window
from fareysums.totient import build_totient_table, lcm_range

from oracles import brute_farey


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_exact_index_formula():
    """Closed form equals the gcd-counting oracle for every admissible q, i_max 2..8."""
    checked = 0
    for i_max in range(2, 9):
        n = lcm_range(i_max)
        table = build_totient_table(i_max)
        for q in range(-(-n // i_max), n + 1):
            exact = exact_index_unit_fraction(i_max, q, table).value
            oracle = rank_oracle(n, Fraction(1, q)).rank
            assert exact == oracle, f"i_max={i_max} q={q}: {exact} != {oracle}"
            checked += 1
    report(1, True, f"closed form == oracle at {checked} (i_max, q) points, zero tolerance")


def test_criterion_02_spot_positions():
    """I_6(1/2)=7, I_6(1/3)=5, I_6(1/6)=2, recomputed from a full brute listing."""
    listing = brute_farey(6)
    for q, expected in ((2, 7), (3, 5), (6, 2)):
        assert listing.index(Rat(1, q)) + 1 == expected
        assert exact_index_unit_fraction(3, q).value == expected
        assert rank_oracle(6, Fraction(1, q)).rank == expected
    report(2, True, "spot positions of 1/2, 1/3, 1/6 in F_6 match the brute listing")


def _first_unequal(triples) -> int | None:
    """The index of the first (lo, mid, hi) triple of (num, den) pairs whose three gcds differ, or None."""
    pairs = np.asarray(triples).reshape(-1, 2)
    gcds = gcd_triples(pairs[:, 0], pairs[:, 1])
    bad = np.flatnonzero((gcds[:, 0] != gcds[:, 1]) | (gcds[:, 0] != gcds[:, 2]))
    return int(bad[0]) if bad.size else None


def _random_pairs(seed: int, count: int) -> np.ndarray:
    """The first count pairs (randint(0, 10_000), randint(1, 10_000)) of Random(seed), as a (count, 2) int32 array.

    numpy's MT19937, set to Random(seed)'s state, replays its 32-bit words.
    randint draws getrandbits(14), a word shifted right by 18, until it is in
    range: a numerator takes the first r <= 10 000, a denominator the first
    r < 10 000, plus 1.  So only a word r = 10 000 is read two ways: kept at
    a numerator's turn, skipped at a denominator's.
    """
    _, state, _ = Random(seed).getstate()
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937", "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    # a word is in range with probability about 10 001/16 384: 2 % more words than expected suffice
    words, chunks = 2 * count * 16_384 * 102 // (10_001 * 100) + 1000, []
    for done in range(0, words, 1 << 20):
        r = (bits.random_raw(min(1 << 20, words - done)) >> 18).astype(np.int32)
        chunks.append(r[r <= 10_000])
    draws = np.concatenate(chunks)
    skipped = []
    for i in np.flatnonzero(draws == 10_000).tolist():
        if (i - len(skipped)) % 2:  # a denominator's turn
            skipped.append(i)
    draws = np.delete(draws, skipped)[: 2 * count]
    assert draws.size == 2 * count
    return draws.reshape(-1, 2) + np.array([0, 1], dtype=np.int32)


def test_criterion_03_triple_gcd_identity():
    """Zero counterexamples over all F_12 triples and 1e6 random reduced triples."""
    fractions = enumerate_window(12, ZERO, ONE).fractions
    exhaustive = 0
    triples = combinations(fractions, 3)
    for batch in iter(lambda: list(islice(triples, _TRIPLES_PER_BATCH)), []):
        bad = _first_unequal([[(f.num, f.den) for f in triple] for triple in batch])
        assert bad is None, "counterexample: {}, {}, {}".format(*batch[bad])
        exhaustive += len(batch)
    # Random(20260811)'s triples of three (numerator, denominator) draws, each
    # reduced, sorted by (value, denominator), and dropped when two are equal;
    # the first 10**6 kept, with room for the dropped ones
    pairs = _random_pairs(20260811, 3 * 1_000_100)
    pairs //= np.gcd(pairs[:, :1], pairs[:, 1:])
    triples = pairs.reshape(-1, 3, 2)
    order = np.lexsort((triples[..., 1], triples[..., 0] / triples[..., 1]))
    triples = np.take_along_axis(triples, order[..., None], axis=1)
    (a, b), (c, d), (e, f) = triples[:, 0].T, triples[:, 1].T, triples[:, 2].T
    triples = triples[(a * d != c * b) & (c * f != e * d)][:1_000_000]
    randomized = len(triples)
    assert randomized == 1_000_000
    for start in range(0, randomized, _TRIPLES_PER_BATCH):
        batch = triples[start : start + _TRIPLES_PER_BATCH]
        bad = _first_unequal(batch)
        assert bad is None, "counterexample: {}, {}, {}".format(*batch[bad])
    report(3, True, f"0 counterexamples among {exhaustive} F_12 triples and {randomized} random triples")


def test_random_pairs_replay_randint():
    # the prefix holds a word r = 10 000 read at a numerator's turn (pair 6073)
    # and one skipped at a denominator's (pair 932)
    class Recorded(Random):
        def __init__(self, seed):
            self.drawn = []
            super().__init__(seed)

        def getrandbits(self, k):
            self.drawn.append(super().getrandbits(k))
            return self.drawn[-1]

    rng = Recorded(20260811)
    want = [[rng.randint(0, 10_000), rng.randint(1, 10_000)] for _ in range(10_000)]
    assert _random_pairs(20260811, 10_000).tolist() == want
    kept = sum(num == 10_000 for num, _ in want)
    assert kept > 0 and rng.drawn.count(10_000) > kept


def _all_map_params():
    for eta in range(1, 7):
        vertices = [ZERO, ONE] if eta == 1 else [
            Fraction(chi, eta) for chi in range(1, eta) if gcd(chi, eta) == 1
        ]
        for vertex in vertices:
            if vertex == ZERO:
                co_vertices = [INFINITY]
            else:
                left, right = farey_neighbors(eta, vertex)
                co_vertices = [c for c in (left, right) if c is not None]
            for co_vertex in co_vertices:
                for i in range(1, 7):
                    for m in (1, 2, 3):
                        n = eta * i * (i + 1) * m
                        for q in range(n // (eta * (i + 1)) + 1, n // (eta * i) + 1):
                            yield MapParams(vertex, co_vertex, q, i, n)


def test_criterion_04_bijection():
    """Round trip, exact window image, monotone direction, and size relations.

    The size relation is exact: at q = N/(eta*i) with a finite co-vertex the
    filter drops precisely the reduced h/i with eta*h < i*b (for i = 1 that is
    0/1 itself, so |filtered| = |F_1| - 1), and elsewhere it drops nothing.
    cardinality_relation checks that count on every parameter set; any
    parameter set where it raises is listed.
    """
    cases = 0
    bijection_failures = []
    size_failures = []
    for params in _all_map_params():
        members = build_f_prime(params).members
        window = map_window(params)
        lo, hi = params.interval()
        if window.fractions != enumerate_window(params.N, lo, hi).fractions:
            bijection_failures.append(("window", params))
        if any(inverse_map(params, forward_map(params, f)) != f for f in members):
            bijection_failures.append(("round-trip", params))
        if any(forward_map(params, inverse_map(params, u)) != u for u in window.fractions):
            bijection_failures.append(("round-trip-back", params))
        images = [forward_map(params, f) for f in members]
        oriented = images if params.s == 1 else images[::-1]
        if not all(a < b for a, b in zip(oriented, oriented[1:])):
            bijection_failures.append(("monotonicity", params))
        try:
            cardinality_relation(params)
        except TheoremViolation:
            size_failures.append(params)
        cases += 1
    assert not bijection_failures, bijection_failures[:3]
    ok = not size_failures
    detail = (
        f"round trip, window image, and monotonicity: 0 failures on {cases} parameter sets; "
        f"exact size relation: {len(size_failures)} failures"
    )
    report(4, ok, detail)
    assert ok, (
        f"{len(size_failures)} size-relation failures: "
        f"{[(str(p.vertex), str(p.co_vertex), p.q, p.N) for p in size_failures[:6]]} ..."
    )


def test_criterion_05_asymptotic_envelope():
    """max |I_N(1/q) - 3N^2/(pi^2 q)|/N stays level across N (max/min <= 3)."""
    per_order = {}
    for i_max in (6, 8, 10, 12):
        n = lcm_range(i_max)
        table = build_totient_table(i_max)
        qs = sorted({int(round(q)) for q in np.geomspace(-(-n // i_max), n, 50)})
        qs = [q for q in qs if q * i_max >= n and q <= n]
        per_order[n] = max(
            abs(exact_index_unit_fraction(i_max, q, table).value - asymptotic_index_zero(n, q)) / n
            for q in qs
        )
    spread = max(per_order.values()) / min(per_order.values())
    detail = (
        "per-order max |residual|/N: "
        + ", ".join(f"N={n}: {v:.4f}" for n, v in per_order.items())
        + f"; spread {spread:.3f} (limit 3)"
    )
    ok = spread <= 3.0
    report(5, ok, detail)
    assert ok, detail


def test_criterion_06_franel_exact_values():
    """Full deviation sums at orders 3 and 5, exact and float, against a fresh oracle."""
    for n, expected in ((3, Rat(1, 2)), (5, Rat(59, 110))):
        seq = brute_farey(n)
        m = len(seq)
        oracle = sum((abs(x - Rat(j, m)) for j, x in enumerate(seq, start=1)), start=Rat(0))
        assert oracle == expected
        result = full_franel_sum(n)
        assert result.sum_exact == expected
        assert abs(result.sum_float - float(expected)) / float(expected) <= 1e-9
    report(6, True, "deviation sums: F_3 -> 1/2 and F_5 -> 59/110, float within 1e-9")


def test_criterion_07_growth_near_simple_vertices():
    """sum/log N stays within a 10x band over i in {4..12} at vertices 0/1 and 1/2."""
    details = []
    ok = True
    for vertex, co_vertex in ((ZERO, INFINITY), (Fraction(1, 2), ONE)):
        scan = growth_scan(vertex, co_vertex, [4, 6, 8, 10, 12])
        col = [row.sum_over_log for row in scan.rows]
        spread = max(col) / min(col)
        ok &= spread <= 10.0
        details.append(f"{vertex}: spread {spread:.3f}")
    detail = "; ".join(details) + " (limit 10)"
    report(7, ok, detail)
    assert ok, detail


def test_criterion_08_growth_eta_three():
    """Measured/predicted section sum at vertex 1/3 within [0.2, 5] for i in {4, 6, 8}.

    This band is NOT attainable as stated.  The prediction divides the measured
    sum by log(N/3)*(N/3)*(3/pi^2)*|1/3 - I_N(1/3)/|F_N||, but the rank of 1/3
    tracks |F_N|/3 to within a few units (|3*I - M| <= 6 for every order tested
    here), so the prediction term is Theta(log N / N) while the measured sum is
    Theta(log N): the ratio grows roughly linearly with N.  It passes at i=4
    (N=36) by accident of small numbers and fails beyond.  Kept as specified,
    failing honestly; the computed values are printed for the record.
    """
    ratios = {}
    for i in (4, 6, 8):
        section = vertex_partial_sum(Fraction(1, 3), Fraction(1, 2), i)
        ratios[i] = section.measured_over_predicted
        print(
            f"  eta=3 section i={i}: N={section.order} measured={section.result.sum_float:.6f} "
            f"predicted={section.predicted:.6f} ratio={section.measured_over_predicted:.3f}"
        )
    ok = all(0.2 <= r <= 5.0 for r in ratios.values())
    detail = (
        "measured/predicted at i=4,6,8: "
        + ", ".join(f"{r:.2f}" for r in ratios.values())
        + " (band [0.2, 5]; diverges with N, see docstring)"
    )
    report(8, ok, detail)
    assert ok, detail


def test_criterion_09_deviation_bound():
    """max_j |F_N(j) - j/|F_N|| <= 1/N for every N <= 2000, checked exactly."""
    sweep = dress_scan_sweep(2000)
    detail = (
        f"bound held for all N <= 2000; worst N*max_term = {sweep.worst_ratio:.6f} "
        f"at N = {sweep.worst_order}"
    )
    report(9, sweep.all_ok, detail if sweep.all_ok else f"violations at {sweep.violations[:5]}")
    assert sweep.all_ok


def test_criterion_10_prefix_sum_values():
    """Signed prefix sums: order 5 -> 9/220 and order 4 -> -1/28, recomputed."""
    for n, expected in ((5, Rat(9, 220)), (4, Rat(-1, 28))):
        seq = brute_farey(n)
        m = len(seq)
        r = sum(1 for x in seq if x <= Rat(1, 4))
        oracle = sum((x - Rat(r, 2 * m) for x in seq[:r]), start=Rat(0))
        assert oracle == expected
        assert kanemitsu_sum(n).sum_exact == expected
    report(10, True, "prefix sums at orders 5 and 4 match hand-enumerated values exactly")
