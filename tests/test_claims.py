import inspect
import json
import math
import random
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clirun import run_python
from oracles import naive_set

from ramify import claims
from ramify.arith import ResourceBudgetError
from ramify.claims import (
    CLAIMS,
    Verdict,
    claim_character_bounds,
    claim_character_properties,
    claim_circle,
    claim_double_sum,
    claim_existence,
    claim_goldbach_equivalence,
    claim_lower_bound,
    claim_magnification,
    claim_pigeonhole,
    claim_quadratic_residues,
    claim_threshold_scale,
    claim_upper_bound,
    claim_zero_class,
    replay_counterexample,
    replay_report,
    run_claim,
)
from ramify.counting import (
    build_sieve,
    count_ramifiers,
    multi_modulus_ramifiers,
    ramifier_counts,
    threshold,
)
from ramify.ramification import admits_ramifier, character, ramifier_witnesses

SCRIPTS = Path(__file__).parent.parent / "scripts"


def shift_by_point_calls(m_max, n_max):
    """C11 (i) by two point calls per (m, n), the route the runner took
    before it read one sieve row per modulus: every mismatch, ascending."""
    mismatches = []
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1):
            lhs, rhs = character(n, m), character(n + 2 * m, m)
            if lhs != rhs:
                mismatches.append(
                    {"property": "i", "m": m, "n": n, "value_at_n": lhs, "value_at_shift": rhs}
                )
    return mismatches


def factorial_shifts_by_point_calls(m_max, n_max):
    """C11 (ii), (v) and (iv) by point calls, the route the runner took
    before (ii) and (iv) read a sieve row: the failure counts and every
    failure in the runner's order, (ii) and (v) per n, then (iv)."""
    fails = {"ii": 0, "v": 0, "iv": 0}
    found = []
    for m in range(2, min(m_max, 8) + 1):
        f = math.factorial(m)
        for n in range(2, n_max + 1):
            if character(n + f, m) != character(n, m):
                fails["ii"] += 1
                found.append({"property": "ii", "m": m, "n": n})
            if character(n * f, m) != character(n, m) * character(f, m):
                fails["v"] += 1
                found.append({"property": "v", "m": m, "n": n})
    for m in range(2, m_max + 1):
        for n in range(2, n_max + 1):
            if n % m <= 1 and character(n, m) != 0:
                fails["iv"] += 1
                found.append({"property": "iv", "m": m, "n": n})
    return fails, found


def first_per_modulus(mismatches, cap):
    kept = {}
    for c in mismatches:
        kept.setdefault(c["m"], []).append(c)
    return [c for cs in kept.values() for c in cs[:cap]]


def character_properties(m_max, n_max, cap):
    """C11 with its per-modulus cap on the recorded (i) counterexamples set
    to cap for this one run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "MAX_COUNTEREXAMPLES", cap)
        return claim_character_properties(m_max, n_max)


def shift_part(report):
    """The (i) total from the notes and the recorded (i) counterexamples."""
    total = int(report.notes.split("(i) fails ")[1].split(" ")[0])
    return total, [c for c in report.counterexamples if c["property"] == "i"]


def magnification_by_witnesses(m_max, x):
    """C9's (instances, counterexamples) through Witness objects."""
    instances, counterexamples = 0, []
    for m in range(2, m_max + 1):
        for n in build_sieve(m, x).ramifiers():
            a1 = n % m
            if math.gcd(abs(n - m), a1) != 1:
                continue
            for w in ramifier_witnesses(n, m):
                instances += 1
                if w.r % a1 and math.gcd(w.r, a1) != 1:
                    counterexamples.append({"m": m, "n": n, "a1": a1, "r": w.r})
    return instances, counterexamples


def pigeonhole_part(report):
    """(count, smallest-instance note or None) of a C8 report."""
    note = report.notes.split("; ")[0]
    return report.actual, note if note.startswith("smallest instance") else None


def instance_note(found):
    if not found:
        return None
    n0, ms = found[0]
    return f"smallest instance: n = {n0} ramifies in moduli {ms}"


class TestRegistry:
    def test_complete_mapping(self):
        assert list(CLAIMS) == [f"C{i}" for i in range(1, 14)]
        for info in CLAIMS.values():
            assert info.statement and info.title
            assert info.kind in {
                "proposition",
                "theorem",
                "corollary",
                "conjecture",
                "consequence",
            }

    def test_statement_kind_census(self):
        kinds = [c.kind for c in CLAIMS.values()]
        assert kinds.count("proposition") == 4
        assert kinds.count("theorem") == 6
        assert kinds.count("corollary") == 1
        assert kinds.count("conjecture") == 1
        assert kinds.count("consequence") == 1

    def test_exit_policy(self):
        # conjectures and asymptotic claims never drive the exit code
        for info in CLAIMS.values():
            if info.asymptotic or info.kind == "conjecture":
                assert not info.affects_exit
            else:
                assert info.affects_exit
        asserted = {cid for cid, info in CLAIMS.items() if info.affects_exit}
        asymptotic = {cid for cid, info in CLAIMS.items() if info.asymptotic}
        conjecture = {cid for cid, info in CLAIMS.items() if info.kind == "conjecture"}
        assert asserted == {"C1", "C2", "C3", "C8", "C9", "C11", "C13"}
        assert asymptotic == {"C4", "C6", "C7", "C10", "C12"}
        assert conjecture == {"C5"}

    def test_declared_on_the_runner(self):
        # the statement is the runner's docstring and the parameters its
        # signature, both taken when the claim is registered
        for info in CLAIMS.values():
            assert inspect.getdoc(info.runner).startswith(info.statement)
            assert info.parameters == tuple(inspect.signature(info.runner).parameters)
        assert CLAIMS["C11"].parameters == ("m_max", "n_max")

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_claim("C99")


class TestVerdictLogic:
    def test_fails_iff_counterexamples(self):
        reports = [
            claim_existence(6),
            claim_zero_class(12, 200),
            claim_quadratic_residues(13),
            claim_upper_bound((5,), (20,)),
            claim_goldbach_equivalence(60),
            claim_lower_bound((5,), (20,)),
            claim_double_sum((20,)),
            claim_pigeonhole(10),
            claim_magnification(10, 200),
            claim_circle(8, (20,)),
            claim_character_properties(6, 60),
            claim_character_bounds((5,), (50,)),
            claim_threshold_scale((20,)),
        ]
        for r in reports:
            fails = r.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
            assert fails == bool(r.counterexamples), r.claim_id
            assert replay_report(r), r.claim_id
            assert "natural logarithm" in r.notes


class TestExistence:
    def test_m2_is_the_sole_counterexample(self):
        r = claim_existence(10)
        assert r.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
        assert r.counterexamples == [{"m": 2}]

    def test_m2_boundary(self):
        r = claim_existence(2)
        assert r.counterexamples == [{"m": 2}]


class TestZeroClass:
    def test_holds_at_spec_scale(self):
        r = claim_zero_class(20, 500)
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert r.actual == 0

    def test_single_probe(self):
        assert character(15, 5) == 0


class TestQuadraticResidues:
    def test_holds_to_50(self):
        r = claim_quadratic_residues(50)
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert r.counterexamples == []

    def test_identity_residue_note(self):
        r = claim_quadratic_residues(7)
        assert "non-ramifier" in r.notes


class TestGoldbachEquivalence:
    def test_no_mismatch_to_400(self):
        r = claim_goldbach_equivalence(400)
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert r.params["checked"] == 199


class TestBoundClaims:
    def test_upper_cell_5_20(self):
        r = claim_upper_bound((5,), (20,))
        assert r.verdict == Verdict.INDETERMINATE_ASYMPTOTIC
        assert r.actual == [6]
        assert r.claimed[0] == pytest.approx(14.1386, abs=1e-3)
        assert r.discrepancy[0] == pytest.approx(-8.1386, abs=1e-3)

    def test_lower_conflict_noted(self):
        r = claim_lower_bound((5,), (20,))
        assert r.claimed == [12.0] and r.actual == [6]
        assert "claimed lower bound 12 exceeds the exact count 6" in r.notes

    def test_lower_ceiling_conflict_noted(self):
        r = claim_lower_bound((3,), (100,))
        assert "trivial ceiling" in r.notes

    def test_double_sum_matches_oracle(self):
        r = claim_double_sum((20, 50))
        assert r.actual[0] == sum(len(naive_set(m, 20)) for m in range(2, 21))
        assert r.actual[1] == sum(len(naive_set(m, 50)) for m in range(2, 51))
        assert r.claimed[0] == pytest.approx(20 * math.log(20) / 2)
        assert "[5, 20]" in r.notes

    def test_circle_cell_5_20(self):
        r = claim_circle(5, (20,))
        i = r.params["cells"].index({"m": 5, "x": 20})
        assert r.actual[i] == 14
        root = math.sqrt(20 - math.log(20))
        assert r.claimed[i] == pytest.approx(20 * (root - 1) / root)
        assert r.actual[i] <= r.claimed[i]

    def test_character_bounds_rows(self):
        r = claim_character_bounds((5, 50), (100,))
        bounds = {(c["m"], c["bound"]) for c in r.params["cells"]}
        assert bounds == {(5, "lower"), (5, "upper"), (50, "lower"), (50, "upper")}
        # m = 5 sits below threshold(100) = 11 and must be flagged
        assert "(m=5, x=100)" in r.notes

    @pytest.mark.parametrize(
        "m_values, x_values",
        [((3, 5, 10, 50), (100, 1000, 10000)), ((57, 60, 63), (2950, 3000, 3050))],
    )
    def test_grid_claims_match_the_sweep(self, m_values, x_values):
        # the claims read sieves; the sweep is a route independent of them
        grid = [(m, x) for m in m_values for x in x_values]
        swept = {(m, x): ramifier_counts(x, m, m)[0] for m, x in grid}
        upper = claim_upper_bound(m_values, x_values)
        lower = claim_lower_bound(m_values, x_values)
        band = claim_character_bounds(m_values, x_values)
        for r in (upper, lower):
            assert [(c["m"], c["x"]) for c in r.params["cells"]] == grid
            assert r.actual == [swept[cell] for cell in grid]
        assert [(c["m"], c["x"], c["bound"]) for c in band.params["cells"]] == [
            (m, x, bound) for m, x in grid for bound in ("lower", "upper")
        ]
        assert band.actual == [swept[cell] for cell in grid for _ in range(2)]
        assert band.claimed == [
            c for pair in zip(lower.claimed, upper.claimed) for c in pair
        ]


class TestPigeonhole:
    def test_x7_smallest_instance(self):
        r = claim_pigeonhole(7)
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert "n = 3" in r.notes and "[4, 6]" in r.notes

    def test_x2_below_scale(self):
        r = claim_pigeonhole(2)
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert "below the scale" in r.notes

    def test_x100(self):
        assert claim_pigeonhole(100).actual > 0

    def test_budget_charges_32_bits_per_n(self):
        # 32 bits per n in [0, x + 1]; the default budget is 2**30 bits
        with pytest.raises(ResourceBudgetError):
            claim_pigeonhole(2**25 - 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            claim_pigeonhole(1)


class TestPigeonholeBulkRoute:
    def test_matches_multi_modulus_list(self):
        for x in [*range(2, 201), 2500, 3000, 5000]:
            found = multi_modulus_ramifiers(x)
            assert pigeonhole_part(claim_pigeonhole(x)) == (len(found), instance_note(found)), x

    def test_matches_naive_sets(self, naive_sets_200):
        for x in range(2, 201):
            moduli = {n: [] for n in range(2, x + 1)}
            for m in range(2, x + 1):
                for n in naive_sets_200[m]:
                    if n > x:
                        break
                    moduli[n].append(m)
            found = [(n, ms) for n, ms in moduli.items() if len(ms) >= 2]
            assert pigeonhole_part(claim_pigeonhole(x)) == (len(found), instance_note(found)), x

    @pytest.mark.parametrize("x, count", [(7, 3), (10, 8), (50, 48), (100, 98)])
    def test_fixed_cases(self, x, count):
        # frozen from scripts/brute_force_fixtures.py
        expected = "smallest instance: n = 3 ramifies in moduli [4, 6]"
        assert pigeonhole_part(claim_pigeonhole(x)) == (count, expected)


class TestMagnification:
    def test_holds_small_sweep(self):
        r = claim_magnification(12, 300)
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert r.params["instances"] > 0

    @pytest.mark.parametrize("m_max, x", [(5, 7), (12, 300), (30, 2000), (60, 3000)])
    def test_matches_witness_route(self, m_max, x):
        r = claim_magnification(m_max, x)
        assert (r.params["instances"], r.counterexamples) == magnification_by_witnesses(m_max, x)

    def test_domain(self):
        with pytest.raises(ValueError):
            claim_magnification(5, 1)

    def test_filtered_instance(self):
        # gcd(|7-5|, 2) = 2, so (7, 5) must not enter the hypothesis set
        r = claim_magnification(5, 7)
        assert all(not (c["n"] == 7 and c["m"] == 5) for c in r.counterexamples)


def magnification_by_pairs(progressions, m_max, x):
    """C9's (instances, counterexamples) from the (n, r) pairs that the
    given _progressions stand for, one pair at a time, sorted by (m, n, r)."""
    instances, counterexamples = 0, []
    for m in range(2, m_max + 1):
        for r, period, starts in progressions(m, x):
            for n in (n for n0 in starts for n in range(n0, x + 1, period)):
                a1 = n % m
                if math.gcd(abs(n - m), a1) == 1:
                    instances += 1
                    if r % a1 and math.gcd(r, a1) != 1:
                        counterexamples.append({"m": m, "n": n, "a1": a1, "r": r})
    counterexamples.sort(key=lambda c: (c["m"], c["n"], c["r"]))
    return instances, counterexamples


def fabricated_progressions(m, x):
    """Progressions that break C9, in no sorted order: a1 = 4 at m = 5 with
    r = 10 and r = 6, each of which shares the factor 2 with a1 but is no
    multiple of it; starts descend, and both r reach n = 44 and 74."""
    if m == 3:
        yield 4, 12, [2]  # a1 = 2 divides r: instances only
    if m == 4:
        yield 6, 12, [6]  # gcd(m, a1) = 2: outside the hypothesis
    if m == 5:
        yield 10, 20, [34, 24]
        yield 6, 30, [14]
        yield 6, x + 1, [4]  # one member, n < m


def fabricated_witnesses(n, m):
    """ramifier_witnesses as fabricated_progressions (to x = 100) has it:
    one witness per progression that holds n."""
    return [
        types.SimpleNamespace(r=r)
        for r, period, starts in fabricated_progressions(m, 100)
        if any(n >= n0 and (n - n0) % period == 0 for n0 in starts)
    ]


class TestMagnificationFabricated:
    """C9 finds no counterexample at any tested scale, so its list and its
    sort are held on progressions made up to break the claim."""

    def test_counterexamples_sorted(self, monkeypatch):
        monkeypatch.setattr(claims, "_progressions", fabricated_progressions)
        instances, expected = magnification_by_pairs(fabricated_progressions, 5, 100)
        assert len(expected) == 12 and expected[0] == {"m": 5, "n": 4, "a1": 4, "r": 6}
        r = claim_magnification(5, 100)
        assert (r.params["instances"], r.counterexamples) == (instances, expected)
        assert r.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE

    def test_replays_under_the_fabrication(self, monkeypatch):
        monkeypatch.setattr(claims, "_progressions", fabricated_progressions)
        r = claim_magnification(5, 100)
        monkeypatch.setattr(claims, "ramifier_witnesses", fabricated_witnesses)
        assert replay_report(r)
        # a witness r that a1 divides is an instance, not a violation
        assert not replay_counterexample("C9", {"m": 3, "n": 2, "a1": 2, "r": 4})
        monkeypatch.undo()
        assert not any(replay_counterexample("C9", c) for c in r.counterexamples)


def sieve_with_zero_one_flags(m, x):
    """build_sieve(m, x) with n = m + 1, 2m and 3m + 1 flagged besides, so
    that C11 (iv) fails in both of its residue classes."""
    flags = bytearray(build_sieve(m, x).flags)
    for n in (m + 1, 2 * m, 3 * m + 1):
        if n <= x:
            flags[n] = 1
    return types.SimpleNamespace(m=m, x=x, flags=bytes(flags))


def rows_with_zero_one_flags(x, m_lo, m_hi):
    """counting.rows with the rows of sieve_with_zero_one_flags."""
    return (sieve_with_zero_one_flags(m, x) for m in range(m_lo, m_hi + 1))


class TestZeroOneClassesFabricated:
    """C11 (iv) holds at every tested scale; its list is held on rows
    with flags set in the classes 0 and 1."""

    def test_both_classes_recorded(self, monkeypatch):
        monkeypatch.setattr(claims, "rows", rows_with_zero_one_flags)
        m_max, n_max = 6, 40
        expected = [
            {"property": "iv", "m": m, "n": n}
            for m in range(2, m_max + 1)
            for n, flag in enumerate(sieve_with_zero_one_flags(m, n_max + 2 * m).flags)
            if 2 <= n <= n_max and n % m <= 1 and flag
        ]
        assert {"property": "iv", "m": 5, "n": 6} in expected  # class 1
        r = claim_character_properties(m_max, n_max)
        assert [c for c in r.counterexamples if c["property"] == "iv"] == expected
        assert f"(iv) exhaustive: {len(expected)} failures" in r.notes


#: (n, m) pairs whose character the fabricated world below inverts: (ii)
#: fails at n = 7 and 9 for m = 4 (m! = 24), (v) at n = 7 (7 * 24 = 168)
#: and (iv) at n = 9, in residue class 1.
FLIPS = {(7, 4), (168, 4), (9, 4)}


def flipped_character(n, m):
    return character(n, m) ^ ((n, m) in FLIPS)


def flipped_sieve(m, x):
    """build_sieve(m, x) with the flags of FLIPS inverted."""
    flags = bytearray(build_sieve(m, x).flags)
    for n, m_flip in FLIPS:
        if m_flip == m and n <= x:
            flags[n] ^= 1
    return types.SimpleNamespace(m=m, x=x, flags=bytes(flags))


def flipped_rows(x, m_lo, m_hi):
    return (flipped_sieve(m, x) for m in range(m_lo, m_hi + 1))


class TestCharacterPropertiesFabricated:
    """C11 (ii), (iv) and (v) hold at every tested scale; their recording
    and replays are held in a world whose character inverts FLIPS."""

    def test_records_and_replays(self, monkeypatch):
        monkeypatch.setattr(claims, "character", flipped_character)
        monkeypatch.setattr(claims, "build_sieve", flipped_sieve)
        monkeypatch.setattr(claims, "rows", flipped_rows)
        r = claim_character_properties(6, 40)
        fabricated = [c for c in r.counterexamples if c["property"] != "i"]
        # per n within a modulus, the (ii) entry comes before the (v) entry
        assert fabricated == [
            {"property": "ii", "m": 4, "n": 7},
            {"property": "v", "m": 4, "n": 7},
            {"property": "ii", "m": 4, "n": 9},
            {"property": "iv", "m": 4, "n": 9},
        ]
        assert "(ii) exhaustive for m <= 6: 2 failures" in r.notes
        assert "(v) exhaustive for m <= 6: 1 failures" in r.notes
        assert replay_report(r)
        monkeypatch.undo()
        assert not any(replay_counterexample("C11", c) for c in fabricated)


def circle_by_sieves(m_max, x_values):
    """C10's cells, claimed and actual values and notes by one sieve per
    (m, x), the loop the runner ran before it read one sweep's rows per x."""
    cells, claimed, actual, notes, empty = [], [], [], [], 0
    for m in range(2, m_max + 1):
        for x in x_values:
            s = count_ramifiers(m, x)
            root = math.sqrt(x - math.log(x))
            bound = x * (root - 1) / root
            cells.append({"m": m, "x": x})
            claimed.append(bound)
            actual.append(s.radius)
            if not s.has_ramifiers:
                empty += 1
            elif s.radius > bound:
                notes.append(
                    f"radius exceeds the bound at (m={m}, x={x}): {s.radius} > {bound:.2f}"
                )
    if empty:
        notes.append(f"{empty} cells have no ramifiers; radius reported as 0")
    return cells, claimed, actual, notes


def shift_and_zero_one_by_sieves(m_max, n_max, cap):
    """C11's (i) counterexamples, capped per modulus, its (i) failure count
    and its (iv) counterexamples by one sieve to n_max + 2m per modulus, the
    loop the runner ran before it read one sweep's rows."""
    found_i, total_i, found_iv = [], 0, []
    for m in range(2, m_max + 1):
        flags = build_sieve(m, n_max + 2 * m).flags
        mismatches = [n for n in range(2, n_max + 1) if flags[n] != flags[n + 2 * m]]
        total_i += len(mismatches)
        found_i += [
            {"property": "i", "m": m, "n": n,
             "value_at_n": flags[n], "value_at_shift": flags[n + 2 * m]}
            for n in mismatches[:cap]
        ]
        found_iv += [
            {"property": "iv", "m": m, "n": n}
            for n in range(2, n_max + 1) if n % m <= 1 and flags[n]
        ]
    return found_i, total_i, found_iv


class TestRowRoute:
    """C10 and C11 (i) and (iv) read one sweep's rows; each is held against
    the sieve loop it replaced."""

    @pytest.mark.parametrize(
        "m_max, x_values", [(60, (3000,)), (300, (100,)), (12, (200,)), (30, (100, 1000))]
    )
    def test_circle(self, m_max, x_values):
        r = claim_circle(m_max, x_values)
        cells, claimed, actual, notes = circle_by_sieves(m_max, x_values)
        assert r.params["cells"] == cells
        assert (r.claimed, r.actual) == (claimed, actual)
        assert r.notes == "; ".join([*notes, claims.LOG_NOTE])

    @pytest.mark.parametrize("m_max, n_max", [(60, 3000), (300, 100), (12, 200)])
    @pytest.mark.parametrize("cap", [0, 1, 25])
    def test_shift_and_zero_one(self, m_max, n_max, cap):
        r = character_properties(m_max, n_max, cap)
        found_i, total_i, found_iv = shift_and_zero_one_by_sieves(m_max, n_max, cap)
        got = {p: [c for c in r.counterexamples if c["property"] == p] for p in ("i", "iv")}
        assert got["i"] == found_i
        assert got["iv"] == found_iv
        assert f"(i) fails {total_i} times" in r.notes
        assert f"(iv) exhaustive: {len(found_iv)} failures" in r.notes


class TestCharacterProperties:
    def test_shift_counterexample_5_7(self):
        r = claim_character_properties(10, 200)
        assert r.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
        target = [
            c
            for c in r.counterexamples
            if c["property"] == "i" and c["m"] == 5 and c["n"] == 7
        ]
        assert target and replay_counterexample("C11", target[0])
        assert character(7, 5) == 1 and character(17, 5) == 0

    def test_only_property_i_fails(self):
        r = claim_character_properties(8, 300)
        assert {c["property"] for c in r.counterexamples} == {"i"}
        assert "(iii) the value at 1" in r.notes

    def test_counterexample_cap_is_per_modulus(self):
        r = character_properties(10, 200, 5)
        per_m: dict[int, int] = {}
        for c in r.counterexamples:
            if c["property"] == "i":
                per_m[c["m"]] = per_m.get(c["m"], 0) + 1
        assert per_m and all(v <= 5 for v in per_m.values())
        # the cap keeps every failing modulus represented
        full = character_properties(10, 200, 10**6)
        assert set(per_m) == {c["m"] for c in full.counterexamples if c["property"] == "i"}


class TestShiftBulkRoute:
    def test_matches_point_calls_at_60_3000(self):
        mismatches = shift_by_point_calls(60, 3000)
        for cap in (0, 1, 25):
            r = character_properties(60, 3000, cap)
            assert shift_part(r) == (len(mismatches), first_per_modulus(mismatches, cap))

    @given(
        st.integers(2, 24),
        st.integers(2, 400),
        st.sampled_from([0, 1, 25]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_point_calls_random(self, m_max, n_max, cap):
        mismatches = shift_by_point_calls(m_max, n_max)
        r = character_properties(m_max, n_max, cap)
        assert shift_part(r) == (len(mismatches), first_per_modulus(mismatches, cap))

    def test_fixed_total(self):
        # frozen from scripts/brute_force_fixtures.py
        assert shift_part(claim_character_properties(10, 200))[0] == 361

    def test_matches_the_brute_force_script(self):
        # the script imports nothing from the package
        proc = run_python(str(SCRIPTS / "brute_force_fixtures.py"))
        assert proc.returncode == 0, proc.stderr
        fixtures = json.loads(proc.stdout)
        assert shift_part(claim_character_properties(10, 200))[0] == (
            fixtures["shift_mismatches_m10_n200"]
        )
        for x, pigeonhole in fixtures["pigeonhole"].items():
            n0, ms = pigeonhole["least"]
            expected = f"smallest instance: n = {n0} ramifies in moduli {ms}"
            assert pigeonhole_part(claim_pigeonhole(int(x))) == (pigeonhole["count"], expected)


class TestFactorialShiftRowRoute:
    @pytest.mark.parametrize(
        "m_max, n_max", [(60, 3000), (8, 5), (3, 400), (12, 2), (8, 200), (10, 200), (30, 600)]
    )
    def test_matches_point_calls(self, m_max, n_max):
        fails, found = factorial_shifts_by_point_calls(m_max, n_max)
        cap = min(m_max, 8)
        for max_counterexamples in (0, 1, 25):
            r = character_properties(m_max, n_max, max_counterexamples)
            assert f"(ii) exhaustive for m <= {cap}: {fails['ii']} failures" in r.notes
            assert f"(iv) exhaustive: {fails['iv']} failures" in r.notes
            assert f"(v) exhaustive for m <= {cap}: {fails['v']} failures" in r.notes
            assert [c for c in r.counterexamples if c["property"] != "i"] == found


class TestThresholdScale:
    def test_x20_counterexamples(self):
        r = claim_threshold_scale((20,))
        assert r.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
        assert {"x": 20, "m": 3, "n": 5} in r.counterexamples
        assert {"x": 20, "m": 4, "n": 2} in r.counterexamples

    def test_x2_vacuous(self):
        r = claim_threshold_scale((2,))
        assert r.verdict == Verdict.HOLDS_AT_SCALE
        assert r.counterexamples == []

    def test_least_ramifier_matches_the_sieve(self):
        # the runner reads the least ramifier n <= x of each modulus from the
        # bands below 2m; the first flag of the sieve to x is the independent
        # route.  A seeded sample of the 39,334 cells with x < 700 and m below
        # threshold(x) + 40, so that most moduli have a ramifier n <= x.
        grid = [(x, m) for x in range(2, 700) for m in range(2, threshold(x) + 40)]
        for x, m in random.Random(17).sample(grid, 8_000):
            w = admits_ramifier(m)
            got = w.n if w is not None and w.n <= x else -1
            assert got == build_sieve(m, x).flags.find(1), (x, m)

    def test_report_matches_the_sieve(self):
        xs = (2, 20, 100, 699)
        expected = []  # from the first flag of each sieve, the independent route
        for x in xs:
            for m in range(2, threshold(x)):
                n = build_sieve(m, x).flags.find(1)
                if n >= 0:
                    expected.append({"x": x, "m": m, "n": n})
        r = claim_threshold_scale(xs)
        assert r.counterexamples == expected
        assert r.actual == [sum(c["x"] == x for c in expected) for x in xs]


class TestReplay:
    def test_rejects_fabricated_counterexamples(self):
        assert not replay_counterexample("C2", {"m": 5, "n": 15})
        assert not replay_counterexample("C2", {"m": 5, "n": 7})  # 5 does not divide 7
        # 1**2 is 1, not 7
        assert not replay_counterexample("C3", {"p": 5, "a": 1, "exponent": 2, "element": 7})
        assert not replay_counterexample("C11", {"property": "i", "m": 3, "n": 5})
        assert not replay_counterexample("C13", {"x": 20, "m": 3, "n": 4})
        assert not replay_counterexample("C9", {"m": 5, "n": 7, "a1": 2, "r": 4})
        assert not replay_counterexample("C4", {})

    def test_c8_replays_by_the_point_predicate(self):
        # no n <= 2 ramifies in two moduli; n = 3 does in 4 and 6
        assert replay_counterexample("C8", {"x": 2})
        assert replay_counterexample("C8", {"x": 5})
        assert not replay_counterexample("C8", {"x": 6})


class TestReplayFabricated:
    """C2, C3 and C5 record nothing at any tested scale; each replay is held
    on a record that a fabricated predicate makes a violation."""

    def test_zero_class(self, monkeypatch):
        monkeypatch.setattr(claims, "character", lambda n, m: character(n, m) ^ ((n, m) == (15, 5)))
        r = claim_zero_class(5, 20)
        assert r.counterexamples == [{"m": 5, "n": 15}]
        assert replay_report(r)
        monkeypatch.undo()
        assert not replay_report(r)

    def test_quadratic_residues(self, monkeypatch):
        # 4 is a quadratic residue mod 5, and 4**2 = 16
        cx = {"p": 5, "a": 4, "exponent": 2, "element": 16}
        monkeypatch.setattr(claims, "character", lambda n, m: 1)
        assert replay_counterexample("C3", cx)
        # each record below fails exactly one condition of the claim
        for other in [
            {"p": 9, "a": 8, "exponent": 4, "element": 8**4},  # 9 is no prime
            {"p": 5, "a": 9, "exponent": 2, "element": 81},  # a is not below p
            {"p": 5, "a": 2, "exponent": 2, "element": 4},  # 2 is no residue mod 5
            {"p": 5, "a": 4, "exponent": 3, "element": 64},  # neither (p - 1)/2 nor p - 1
            {"p": 5, "a": 4, "exponent": 2, "element": 17},  # not 4**2
        ]:
            assert not replay_counterexample("C3", other), other
        monkeypatch.undo()
        assert not replay_counterexample("C3", cx)

    def test_goldbach_equivalence(self, monkeypatch):
        # the sweep records the missing certificate, the point search replays it
        real_sweep, real_point = claims.goldbach_sweep, claims.admits_strong_ramifier

        def sweep(m_max, primes):
            counts, certs = real_sweep(m_max, primes)
            certs[3] = None  # m = 10
            return counts, certs

        monkeypatch.setattr(claims, "goldbach_sweep", sweep)
        monkeypatch.setattr(
            claims, "admits_strong_ramifier", lambda m, p: None if m == 10 else real_point(m, p)
        )
        r = claim_goldbach_equivalence(20)
        assert r.counterexamples == [{"m": 10, "partitions": 2, "certificate_found": False}]
        assert replay_report(r)
        monkeypatch.undo()
        assert not replay_report(r)
