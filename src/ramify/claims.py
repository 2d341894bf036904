"""Registry of quantitative claims about ramifiers, checked at desk scale.

Thirteen statements (C1..C13) make up the registry: four propositions,
six theorems, one corollary, one conjecture, and the threshold
consequence of playing the two counting bounds against each other.  Each
claim runs as an exhaustive finite check or as an exact main-term
comparison and yields a ClaimReport.

A claim is declared once, by the ``_claim`` decorator on its runner: the
decorator records id, title, kind and whether the claim is asymptotic;
the runner's docstring is the statement and its signature names the
parameters.  Runners are defined in id order, which is registry order.

Verdict policy: a claim with an unwritten O(.) term is never judged
true or false from finite data; it is INDETERMINATE_ASYMPTOTIC and only
the signed discrepancy between the exact value and the claimed main
term is published (conflicts, such as a claimed floor exceeding the
exact count, go to the notes).  Exhaustive finite checks are
HOLDS_AT_SCALE, or FAILS_WITH_COUNTEREXAMPLE exactly when the
counterexample list is non-empty.  Every recorded counterexample can be
replayed through the core predicates via replay_counterexample.

Claims that only count read bulk answers: C5 takes its partition counts
from the prime-pair word of each even m (``goldbach_counts``, the counts
of ``ramification.goldbach_sweep``) and holds them against the point
search ``admits_strong_ramifier``, C8 its count from the
closed-form band counts, C9 its witness pairs (n, r) from the sieve's
progressions (``counting._progressions``), one member at a time, C10 and
C11 properties (i) and (iv) the flag row of each modulus from one packed
divisor sweep (``counting.rows``), and C11 (ii) one sieve row per modulus
m <= 8.  Replays stay on the point predicates, so each replay re-derives
a recorded violation independently of the bulk route.

Sweeps iterate ascending (m, then n, then r), so reports are
byte-reproducible.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import compress, islice
from typing import Any, Callable

from .arith import DEFAULT_BUDGET_BITS, _check_budget, is_prime, prime_table
from .counting import (
    _low_moduli,
    _progressions,
    build_sieve,
    count_ramifiers,
    ramifier_counts,
    rows,
    summarize_sieve,
    threshold,
)
from .ramification import (
    admits_ramifier,
    admits_strong_ramifier,
    character,
    goldbach_counts,
    goldbach_partitions,
    ramifier_witnesses,
)

LOG_NOTE = "log convention: natural logarithm in every bound formula"


class Verdict(str, Enum):
    HOLDS_AT_SCALE = "HOLDS_AT_SCALE"
    FAILS_WITH_COUNTEREXAMPLE = "FAILS_WITH_COUNTEREXAMPLE"
    INDETERMINATE_ASYMPTOTIC = "INDETERMINATE_ASYMPTOTIC"


@dataclass
class ClaimReport:
    """Evaluation of one claim: parameters, claimed vs exact values, the
    signed discrepancy, a verdict, and replayable counterexamples."""

    claim_id: str
    params: dict[str, Any]
    claimed: Any
    actual: Any
    discrepancy: Any
    verdict: Verdict
    counterexamples: list[dict] = field(default_factory=list)
    notes: str = ""

    def to_dict(self) -> dict[str, Any]:
        # shallow: the values are plain JSON data, so nothing needs a copy
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "verdict": self.verdict.value
        }


@dataclass(frozen=True)
class ClaimInfo:
    claim_id: str
    title: str
    kind: str  # proposition | theorem | corollary | conjecture | consequence
    asymptotic: bool
    statement: str
    parameters: tuple[str, ...]  # the runner's, taken when it is registered
    runner: Callable[..., ClaimReport]

    @property
    def affects_exit(self) -> bool:
        """Only asserted claims drive the exit code: a failing conjecture
        or asymptotic claim is reported, never fatal."""
        return not self.asymptotic and self.kind != "conjecture"


CLAIMS: dict[str, ClaimInfo] = {}


def _claim(claim_id: str, title: str, kind: str, *, asymptotic: bool = False):
    """Register the decorated runner as claim ``claim_id``; the first
    paragraph of its docstring is the statement."""

    def register(runner: Callable[..., ClaimReport]) -> Callable[..., ClaimReport]:
        CLAIMS[claim_id] = ClaimInfo(
            claim_id,
            title,
            kind,
            asymptotic,
            statement=inspect.getdoc(runner).split("\n\n")[0],
            parameters=tuple(inspect.signature(runner).parameters),
            runner=runner,
        )
        return runner

    return register


def _finish(
    claim_id: str,
    params: dict,
    claimed: Any,
    actual: Any,
    notes: list[str],
    counterexamples: list[dict] | None = None,
) -> ClaimReport:
    """The report, with discrepancy actual - claimed (cellwise for cell
    lists, None without a claimed value) and the registry's verdict policy."""
    if claimed is None:
        discrepancy = None
    elif isinstance(claimed, list):
        discrepancy = [a - c for a, c in zip(actual, claimed)]
    else:
        discrepancy = actual - claimed
    if counterexamples:
        verdict = Verdict.FAILS_WITH_COUNTEREXAMPLE
    elif CLAIMS[claim_id].asymptotic:
        verdict = Verdict.INDETERMINATE_ASYMPTOTIC
    else:
        verdict = Verdict.HOLDS_AT_SCALE
    return ClaimReport(
        claim_id=claim_id,
        params=params,
        claimed=claimed,
        actual=actual,
        discrepancy=discrepancy,
        verdict=verdict,
        counterexamples=counterexamples or [],
        notes="; ".join([*notes, LOG_NOTE]),
    )


def _finish_cells(
    claim_id: str,
    params: dict,
    entries: list[tuple[dict, Any, Any]],
    notes: list[str],
    counterexamples: list[dict] | None = None,
) -> ClaimReport:
    """_finish for a report over cells: entries holds one (cell, claimed,
    actual) triple per cell, and the cells go last into params."""
    cells, claimed, actual = map(list, zip(*entries)) if entries else ([], [], [])
    return _finish(claim_id, {**params, "cells": cells}, claimed, actual, notes, counterexamples)


def _grid(m_values: tuple[int, ...], x_values: tuple[int, ...]):
    """The count_ramifiers summary of every (m, x) cell, m-major, each
    built as it is reached."""
    return (count_ramifiers(m, x) for m in m_values for x in x_values)


def _grid_params(m_values: tuple[int, ...], x_values: tuple[int, ...]) -> dict:
    """The params of a report over the (m, x) grid, less its cells."""
    return {"m_values": list(m_values), "x_values": list(x_values)}


@_claim("C1", "existence", "proposition")
def claim_existence(m_max: int = 10) -> ClaimReport:
    """Every m >= 2 has some modulus t in (1, m] that admits a ramifier."""
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    counterexamples = []
    some_t_admits = False
    for m in range(2, m_max + 1):
        some_t_admits = some_t_admits or admits_ramifier(m) is not None
        if not some_t_admits:
            counterexamples.append({"m": m})
    notes = []
    if counterexamples:
        notes.append(
            "m = 2 admits no ramifier: a residue split 1 + 1 = 2 would need an "
            "inner modulus strictly between 1 and 2"
        )
    return _finish("C1", {"m_max": m_max}, 0, len(counterexamples), notes, counterexamples)


@_claim("C2", "zero-class", "proposition")
def claim_zero_class(m_max: int = 50, x: int = 5000) -> ClaimReport:
    """No multiple of m ramifies in modulus m."""
    counterexamples = []
    checked = 0
    for m in range(2, m_max + 1):
        for n in range(m, x + 1, m):
            checked += 1
            if character(n, m) == 1:
                counterexamples.append({"m": m, "n": n})
    return _finish(
        "C2",
        {"m_max": m_max, "x": x, "checked": checked},
        0,
        len(counterexamples),
        [f"{checked} multiples checked exhaustively"],
        counterexamples,
    )


@_claim("C3", "quadratic-residues", "theorem")
def claim_quadratic_residues(p_max: int = 50) -> ClaimReport:
    """For an odd prime p and a quadratic residue a coprime to p, the
    power sequence a, a^2, ..., a^(p-1) holds at least two non-ramifiers
    modulo p, sitting at exponents (p-1)/2 and p-1."""
    primes = prime_table(max(p_max, 3))
    counterexamples = []
    pairs_checked = 0
    for p in primes.primes:
        if p > p_max or p == 2:
            continue
        for a in range(1, p):
            if pow(a, (p - 1) // 2, p) != 1:
                continue
            pairs_checked += 1
            for exponent in ((p - 1) // 2, p - 1):
                # A residue a1 <= 1 mod p admits no inner modulus, and Euler
                # gives a^exponent = 1 (mod p), so the plain integer is built
                # and tested only when its residue could ramify.  This also
                # covers e = 1 (a = 1), below the predicate domain n >= 2.
                if pow(a, exponent, p) < 2:
                    continue
                e = a**exponent
                if character(e, p) == 1:
                    counterexamples.append(
                        {"p": p, "a": a, "exponent": exponent, "element": e}
                    )
    notes = [
        f"{pairs_checked} (p, a) pairs checked at the two pinned exponents",
        "powers are taken as plain integers, not reduced residues",
        "a = 1 yields the element 1, below the n >= 2 domain and counted as a non-ramifier",
    ]
    return _finish(
        "C3",
        {"p_max": p_max, "pairs_checked": pairs_checked},
        0,
        len(counterexamples),
        notes,
        counterexamples,
    )


@_claim("C4", "upper-bound", "theorem", asymptotic=True)
def claim_upper_bound(
    m_values: tuple[int, ...] = (3, 5, 10, 50),
    x_values: tuple[int, ...] = (100, 1000, 10000),
) -> ClaimReport:
    """The count of ramifiers n <= x in modulus m is at most
    (1 - 1/m) x - log x / log m + O(1)."""
    entries, notes = [], []
    for s in _grid(m_values, x_values):
        entries.append(({"m": s.m, "x": s.x}, s.upper_main, s.count))
        if s.count > s.upper_main:
            notes.append(
                f"count exceeds the main term at (m={s.m}, x={s.x}): "
                f"{s.count} > {s.upper_main:.2f}"
            )
    return _finish_cells("C4", _grid_params(m_values, x_values), entries, notes)


@_claim("C5", "goldbach-equivalence", "conjecture")
def claim_goldbach_equivalence(m_max: int = 1000) -> ClaimReport:
    """An even m >= 4 admits a strong ramifier iff m is a sum of two primes.

    Forward is definitional; backward is checked by running the actual
    search."""
    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    primes = prime_table(m_max)
    counterexamples = []
    checked = 0
    certified = 0
    counts = goldbach_counts(m_max, primes)
    for m, partitions in zip(range(4, m_max + 1, 2), counts):
        checked += 1
        cert = admits_strong_ramifier(m, primes)
        if bool(partitions) != (cert is not None):
            counterexamples.append(
                {
                    "m": m,
                    "partitions": partitions,
                    "certificate_found": cert is not None,
                }
            )
        elif cert is not None:
            cert.validate()
            certified += 1
    notes = [
        f"{checked} even moduli swept, {certified} certificates found and re-validated",
        "read under canonical residues with the ramifying integer free to differ "
        "from the modulus; the literal self-modulus reading would force residue 0",
    ]
    return _finish(
        "C5",
        {"m_max": m_max, "checked": checked},
        0,
        len(counterexamples),
        notes,
        counterexamples,
    )


@_claim("C6", "lower-bound", "theorem", asymptotic=True)
def claim_lower_bound(
    m_values: tuple[int, ...] = (3, 5, 10, 50),
    x_values: tuple[int, ...] = (100, 1000, 10000),
) -> ClaimReport:
    """The count of ramifiers n <= x in modulus m is at least
    (x^2 - x m) / m^2 + O_m(1)."""
    entries, notes = [], []
    for s in _grid(m_values, x_values):
        m, x, bound = s.m, s.x, s.lower_main
        entries.append(({"m": m, "x": x}, bound, s.count))
        if bound > s.count:
            notes.append(
                f"main-term conflict at (m={m}, x={x}): claimed lower bound "
                f"{bound:g} exceeds the exact count {s.count}"
            )
        if bound > x - 1:
            notes.append(
                f"claimed lower bound {bound:g} exceeds the trivial ceiling "
                f"{x - 1} at (m={m}, x={x})"
            )
    return _finish_cells("C6", _grid_params(m_values, x_values), entries, notes)


@_claim("C7", "double-sum", "theorem", asymptotic=True)
def claim_double_sum(x_values: tuple[int, ...] = (100, 1000)) -> ClaimReport:
    """The double count of ramification pairs (n, m) with n, m <= x is at
    least x log x / 2 + O(x)."""
    entries, notes = [], []
    for x in x_values:
        counts = ramifier_counts(x, 2, x)
        full = sum(counts)
        t = threshold(x)
        restricted = sum(counts[t - 2 :])
        entries.append(({"x": x}, x * math.log(x) / 2, full))
        notes.append(
            f"x={x}: moduli in [{t}, {x}] (the range the derivation actually "
            f"bounds) contribute {restricted} of {full}"
        )
    return _finish_cells("C7", {"x_values": list(x_values)}, entries, notes)


@_claim("C8", "pigeonhole", "corollary")
def claim_pigeonhole(x: int = 100) -> ClaimReport:
    """Some n <= x ramifies in at least two moduli m <= x."""
    if x < 2:
        raise ValueError("x must be >= 2")
    # 32 bits per n in [0, x + 1] caps x below 2**25, which bounds the per-n walk
    _check_budget(x, 32 * (x + 2), DEFAULT_BUDGET_BITS)

    def moduli(n: int) -> list[int]:
        return [m for m in range(2, x + 1) if character(n, m)]

    # Two band moduli settle n, as every band member is a proved ramifier;
    # any other n asks the point predicate of every modulus.
    found = [
        n for n in range(2, x + 1)
        if sum(map(len, _low_moduli(n, x))) >= 2 or len(moduli(n)) >= 2
    ]
    counterexamples = []
    notes = []
    if found:
        n0 = found[0]
        notes.append(f"smallest instance: n = {n0} ramifies in moduli {moduli(n0)}")
    elif x >= 7:
        counterexamples.append({"x": x})
    else:
        notes.append(f"x = {x} is below the scale where an instance is asserted")
    return _finish("C8", {"x": x}, None, len(found), notes, counterexamples)


@_claim("C9", "magnification", "theorem")
def claim_magnification(m_max: int = 30, x: int = 2000) -> ClaimReport:
    """For a ramifier n in modulus m with gcd(|n - m|, a1) = 1, every
    witnessing inner modulus r satisfies a1 | r or gcd(r, a1) = 1."""
    if x < 2:
        raise ValueError("x must be >= 2")
    _check_budget(x, 8 * (x + 1), DEFAULT_BUDGET_BITS)  # the sieve's cap on x
    counterexamples = []
    instances = 0
    for m in range(2, m_max + 1):
        for r, period, starts in _progressions(m, x):
            for n0 in starts:
                a1 = n0 % m
                # n - m = a1 (mod m), so gcd(m, a1) divides gcd(n - m, a1)
                if math.gcd(m, a1) != 1:
                    continue
                breaks = r % a1 != 0 and math.gcd(r, a1) != 1
                for n in range(n0, x + 1, period):
                    if math.gcd(n - m, a1) == 1:
                        instances += 1
                        if breaks:
                            counterexamples.append({"m": m, "n": n, "a1": a1, "r": r})
    counterexamples.sort(key=lambda c: (c["m"], c["n"], c["r"]))
    notes = [
        f"{instances} witnessing moduli examined under the coprimality hypothesis",
        "the difference n - m enters the hypothesis as |n - m|",
    ]
    return _finish(
        "C9",
        {"m_max": m_max, "x": x, "instances": instances},
        0,
        len(counterexamples),
        notes,
        counterexamples,
    )


@_claim("C10", "circle-radius", "proposition", asymptotic=True)
def claim_circle(
    m_max: int = 30, x_values: tuple[int, ...] = (100, 1000)
) -> ClaimReport:
    """The circle radius max |n - m| over ramifiers n <= x is at most
    x (sqrt(x - log x) - 1) / sqrt(x - log x)."""
    entries, notes = [], []
    empty = 0
    per_x = [list(map(summarize_sieve, rows(x, 2, m_max))) for x in x_values]
    for column in zip(*per_x):  # the summaries of one m, one per x
        for s in column:
            m, x = s.m, s.x
            root = math.sqrt(x - math.log(x))
            bound = x * (root - 1) / root
            entries.append(({"m": m, "x": x}, bound, s.radius))
            if not s.has_ramifiers:
                empty += 1
            elif s.radius > bound:
                notes.append(
                    f"radius exceeds the bound at (m={m}, x={x}): "
                    f"{s.radius} > {bound:.2f}"
                )
    if empty:
        notes.append(f"{empty} cells have no ramifiers; radius reported as 0")
    return _finish_cells("C10", {"m_max": m_max, "x_values": list(x_values)}, entries, notes)


_SHIFT_CAP = 8  # factorial shifts grow too fast beyond 8!


@_claim("C11", "character-properties", "proposition")
def claim_character_properties(
    m_max: int = 10, n_max: int = 200, max_counterexamples: int = 25
) -> ClaimReport:
    """The five stated character identities.
    (i) invariance under n -> n + 2m, (ii) invariance under n -> n + m!,
    (iii) vanishing at 1, (iv) vanishing on the residue classes 0 and 1,
    (v) multiplicativity against m!.

    max_counterexamples caps the recorded list per modulus, so every
    failing modulus stays represented in the report."""
    counterexamples: list[dict] = []
    total_i = 0
    zero_one: list[tuple[int, int]] = []  # the (m, n) of (iv) that ramify
    # every flag read below lies in [0, n_max + 2m], a prefix of each row
    for sieve in rows(n_max + 2 * m_max, 2, m_max):
        m, flags = sieve.m, sieve.flags  # flags[n] is character(n, m)
        zero_one += sorted(
            (m, n)
            for a in (0, 1)  # the flags of 0 and 1 are 0
            for n in compress(range(a, n_max + 1, m), flags[a : n_max + 1 : m])
        )
        # byte n - 2 of differ is character(n, m) ^ character(n + 2m, m)
        differ = (
            int.from_bytes(flags[2 : n_max + 1], "little")
            ^ int.from_bytes(flags[2 + 2 * m : n_max + 2 * m + 1], "little")
        ).to_bytes(max(n_max - 1, 0), "little")
        total_i += differ.count(1)
        counterexamples += [
            {"property": "i", "m": m, "n": n,
             "value_at_n": flags[n], "value_at_shift": flags[n + 2 * m]}
            for n in islice(compress(range(2, n_max + 1), differ), max(max_counterexamples, 0))
        ]
    fails_ii = fails_v = 0
    for m in range(2, min(m_max, _SHIFT_CAP) + 1):
        f = math.factorial(m)
        c_f = character(f, m)
        flags = build_sieve(m, n_max + f).flags  # flags[n] is character(n, m)
        for n, c_n, c_shift in zip(
            range(2, n_max + 1), flags[2 : n_max + 1], flags[2 + f : n_max + f + 1]
        ):
            if c_shift != c_n:
                fails_ii += 1
                counterexamples.append({"property": "ii", "m": m, "n": n})
            if character(n * f, m) != c_n * c_f:
                fails_v += 1
                counterexamples.append({"property": "v", "m": m, "n": n})
    counterexamples += [{"property": "iv", "m": m, "n": n} for m, n in zero_one]
    fails_iv = len(zero_one)
    recorded_i = sum(1 for c in counterexamples if c["property"] == "i")
    notes = [
        f"(i) fails {total_i} times for m <= {m_max}, n <= {n_max}"
        f" ({recorded_i} recorded, at most {max_counterexamples} per modulus);"
        " whether a restricted domain was intended is left open",
        f"(ii) exhaustive for m <= {min(m_max, _SHIFT_CAP)}: {fails_ii} failures",
        "(iii) the value at 1 lies below the n >= 2 domain; vacuously consistent",
        f"(iv) exhaustive: {fails_iv} failures",
        f"(v) exhaustive for m <= {min(m_max, _SHIFT_CAP)}: {fails_v} failures",
    ]
    return _finish(
        "C11",
        {"m_max": m_max, "n_max": n_max, "max_counterexamples": max_counterexamples},
        0,
        total_i + fails_ii + fails_iv + fails_v,
        notes,
        counterexamples,
    )


@_claim("C12", "character-partial-sums", "theorem", asymptotic=True)
def claim_character_bounds(
    m_values: tuple[int, ...] = (3, 5, 10, 50),
    x_values: tuple[int, ...] = (100, 1000, 10000),
) -> ClaimReport:
    """For m at or above the threshold scale, the character partial sum
    over n <= x lies between the two counting main terms."""
    entries, notes = [], []
    for s in _grid(m_values, x_values):
        m, x, low, up = s.m, s.x, s.lower_main, s.upper_main
        t = threshold(x)
        applicable = m >= t
        for bound_name, bound in (("lower", low), ("upper", up)):
            cell = {"m": m, "x": x, "bound": bound_name, "applicable": applicable}
            entries.append((cell, bound, s.count))
        if not applicable:
            notes.append(
                f"(m={m}, x={x}): below the stated modulus scale {t}; evaluated anyway"
            )
        elif not low <= s.count <= up:
            notes.append(
                f"partial sum outside the main-term band at (m={m}, x={x}): "
                f"{low:.2f} <= {s.count} <= {up:.2f} is false"
            )
    return _finish_cells("C12", _grid_params(m_values, x_values), entries, notes)


@_claim("C13", "threshold-scale", "consequence")
def claim_threshold_scale(x_values: tuple[int, ...] = (20,)) -> ClaimReport:
    """No modulus below floor(x / sqrt(x - ln x)) + 1 admits a ramifier
    n <= x."""
    entries, counterexamples = [], []
    for x in x_values:
        t = threshold(x)
        violations = 0
        for m in range(2, t):
            w = admits_ramifier(m)
            if w is not None and w.n <= x:
                violations += 1
                counterexamples.append({"x": x, "m": m, "n": w.n})
        entries.append(({"x": x, "threshold": t}, 0, violations))
    return _finish_cells("C13", {"x_values": list(x_values)}, entries, [], counterexamples)


def run_claim(claim_id: str, **params: Any) -> ClaimReport:
    """Run one claim by id with explicit parameters."""
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim id {claim_id!r}")
    return CLAIMS[claim_id].runner(**params)


def report_rows(reports: list[ClaimReport]) -> list[list]:
    """CSV rows: the header, then one row per cell of a report with cells
    and one row per other report, its scalar parameters as m and x."""
    rows: list[list] = [
        ["claim_id", "param_m", "param_x", "claimed", "actual", "discrepancy", "verdict"]
    ]
    for r in reports:
        p = r.params
        if p.get("cells"):
            cells = zip(p["cells"], r.claimed, r.actual, r.discrepancy)
        else:
            m, x = p.get("m_max", p.get("p_max", "")), p.get("x", p.get("n_max", ""))
            cells = [({"m": m, "x": x}, r.claimed, r.actual, r.discrepancy)]
        for cell, c, a, d in cells:
            rows.append(
                [
                    r.claim_id,
                    cell.get("m", ""),
                    cell.get("x", ""),
                    "" if c is None else c,
                    a,
                    "" if d is None else d,
                    r.verdict.value,
                ]
            )
    return rows


def replay_counterexample(claim_id: str, cx: dict) -> bool:
    """Re-derive a recorded violation from the core predicates.

    Returns True when the counterexample still exhibits the violation it
    was recorded for, making reports self-certifying.
    """
    if claim_id == "C1":
        return all(admits_ramifier(t) is None for t in range(2, cx["m"] + 1))
    if claim_id == "C2":
        return cx["n"] % cx["m"] == 0 and character(cx["n"], cx["m"]) == 1
    if claim_id == "C3":
        p, a, e = cx["p"], cx["a"], cx["exponent"]
        residue = p > 2 and is_prime(p) and 0 < a < p and pow(a, (p - 1) // 2, p) == 1
        if not residue or e not in ((p - 1) // 2, p - 1) or cx["element"] != a**e:
            return False
        return cx["element"] >= 2 and character(cx["element"], p) == 1
    if claim_id == "C5":
        primes = prime_table(cx["m"])
        return bool(goldbach_partitions(cx["m"], primes)) != (
            admits_strong_ramifier(cx["m"], primes) is not None
        )
    if claim_id == "C8":
        x = cx["x"]
        return all(sum(character(n, m) for m in range(2, x + 1)) < 2 for n in range(2, x + 1))
    if claim_id == "C9":
        m, n, a1, r = cx["m"], cx["n"], cx["a1"], cx["r"]
        if n % m != a1 or math.gcd(abs(n - m), a1) != 1:
            return False
        if r not in [w.r for w in ramifier_witnesses(n, m)]:
            return False
        return r % a1 != 0 and math.gcd(r, a1) != 1
    if claim_id == "C11":
        m, n = cx["m"], cx["n"]
        prop = cx["property"]
        if prop == "i":
            return character(n, m) != character(n + 2 * m, m)
        if prop == "ii":
            return character(n + math.factorial(m), m) != character(n, m)
        if prop == "iv":
            return n % m <= 1 and character(n, m) != 0
        if prop == "v":
            f = math.factorial(m)
            return character(n * f, m) != character(n, m) * character(f, m)
        return False
    if claim_id == "C13":
        return (
            cx["m"] < threshold(cx["x"])
            and cx["n"] <= cx["x"]
            and character(cx["n"], cx["m"]) == 1
        )
    return False


def replay_report(report: ClaimReport) -> bool:
    """True when every counterexample in the report replays its violation."""
    return all(
        replay_counterexample(report.claim_id, cx) for cx in report.counterexamples
    )
