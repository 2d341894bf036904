"""Command-line front end: point checks, sieving scans, the claim
harness, and Goldbach partition/certificate sweeps.

Text output goes to stdout for humans; JSON (stable key order) and CSV
are the machine interfaces.  Every machine payload is wrapped in an
envelope carrying the tool version, the echoed invocation, and a
timestamp.  Exit codes: 0 affirmative/success, 1 negative result or
claim failure, 2 usage error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Any, Callable, Iterable

from . import __version__
from .arith import DEFAULT_BUDGET_BITS, ResourceBudgetError, is_prime, prime_table
from .claims import CLAIMS, ClaimInfo, Verdict, report_rows, run_claim
from .counting import build_sieve, summarize_sieve
from .ramification import StrongWitness, admits_strong_ramifier, goldbach_counts, index_of

LIST_CAP = 10_000  # scan payloads above this many ramifiers are truncated


class _Spliced(str):
    """The JSON text of one payload value, as json.dumps(indent=2) writes it
    at the payload's depth; _envelope_json writes it in place of the value."""


_SPLICE = "<spliced {}>"  # the placeholder of a _Spliced payload value
_ITEM_PAD = " " * 6  # the indent of a payload list's items


def _envelope_json(argv: list[str], payload: dict[str, Any]) -> str:
    """The stable wrapper around every machine-readable payload, as JSON.

    The envelope is dumped with a placeholder string for each _Spliced
    payload value, and each placeholder is then replaced by its text.  The
    echoed command, the only text a caller chooses, sorts before "payload",
    and a payload with _Spliced values holds no other text, so the last
    occurrence of each placeholder is its own.
    """
    spliced = {key: value for key, value in payload.items() if isinstance(value, _Spliced)}
    envelope = {
        "tool_version": __version__,
        "command": "ramify " + " ".join(argv),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "payload": {**payload, **{key: _SPLICE.format(key) for key in spliced}},
    }
    text = json.dumps(envelope, sort_keys=True, indent=2)
    parts = []
    for key in sorted(spliced, reverse=True):  # the placeholders from the last
        text, _, tail = text.rpartition(json.dumps(_SPLICE.format(key)))
        parts += [tail, spliced[key]]
    return "".join([text, *reversed(parts)])


def _row_template(value: Any) -> str:
    """The JSON text of value as an item of a payload list, with each "%d"
    string in it a %d slot; the slots follow the sorted keys."""
    text = json.dumps(value, sort_keys=True, indent=2).replace('"%d"', "%d")
    return _ITEM_PAD + text.replace("\n", "\n" + _ITEM_PAD)


def _json_list(items: Iterable[str]) -> _Spliced:
    """A payload list from the JSON text of its items, each at the list's depth.

    The bulk lists are written this way because json.dumps with an indent
    runs the pure-Python encoder, a generator call per value.
    """
    body = ",\n".join(items)
    return _Spliced(f"[\n{body}\n    ]" if body else "[]")


def _deliver(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)  # not text + "\n", a copy of a payload of many MB
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _emit(
    args: argparse.Namespace,
    argv: list[str],
    payload: Callable[[], Any],
    text_lines: Callable[[], list[str]],
    csv_rows: Callable[[], list[list]],
) -> None:
    """Print the output the format asks for; each output is built by its
    zero-argument callable, and only the printed one is built."""
    fmt = "json" if args.json else args.format
    if fmt == "json" or (args.out and fmt == "text"):
        _deliver(_envelope_json(argv, payload()), args.out)
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows())
        _deliver(buf.getvalue().rstrip("\n"), args.out)
    else:
        _deliver("\n".join(text_lines()), args.out)


# --- subcommands -------------------------------------------------------------


def _cmd_check(args: argparse.Namespace, argv: list[str]) -> int:
    n, m = args.n, args.m
    rec = index_of(n, m)
    indices = list(rec.all_indices) if rec else []
    a1, a2 = n % m, m - n % m
    rs = indices  # one witness (m, n, a1, r, a2) per index r
    if args.strong and rs and not (is_prime(a1) and is_prime(a2)):
        rs = []
    keys = ("m", "n", "p1", "r", "p2") if args.strong else ("m", "n", "a1", "r", "a2")
    payload = {
        "n": n,
        "m": m,
        "strong": args.strong,
        "character": 1 if indices else 0,
        "is_ramifier": bool(rs),
        "index": indices[0] if indices else None,
    }
    kind = "strong ramifier" if args.strong else "ramifier"
    head = [
        f"n={n} mod m={m}: character {payload['character']}, "
        + (kind if rs else f"not a {kind}")
    ]
    if indices:
        head.append(f"index {indices[0]}, all indices {indices}")
    line = "witness " + " ".join(f"{k}={{}}" for k in keys)  # "witness m={} n={} ..."

    def json_payload() -> dict[str, Any]:
        witness = _row_template(dict(zip(keys, (m, n, a1, "%d", a2))))  # r is the slot
        return {
            **payload,
            "all_indices": _json_list(map(_row_template("%d").__mod__, indices)),
            "witnesses": _json_list(map(witness.__mod__, rs)),
        }

    _emit(
        args,
        argv,
        json_payload,
        lambda: head + [line.format(m, n, a1, r, a2) for r in rs],
        lambda: [keys] + [(m, n, a1, r, a2) for r in rs],
    )
    return 0 if rs else 1


def _cmd_scan(args: argparse.Namespace, argv: list[str]) -> int:
    sieve = build_sieve(args.m, args.x, budget_bits=args.budget_bits)
    summary = summarize_sieve(sieve)
    truncated = summary.count > LIST_CAP
    ns = None if truncated else sieve.ramifiers()
    payload = {"summary": asdict(summary), "ramifiers": ns, "truncated": truncated}
    lines = [
        f"m={summary.m} x={summary.x}: {summary.count} ramifiers, "
        f"radius {summary.radius}",
        f"upper main term {summary.upper_main:.4f}, "
        f"lower main term {summary.lower_main:.4f}",
        "ramifiers: "
        + (f"(truncated, {summary.count} > {LIST_CAP})" if truncated else str(ns)),
    ]
    _emit(
        args,
        argv,
        lambda: payload,
        lambda: lines,
        lambda: [["n", "character"]] + [[n, sieve.flags[n]] for n in range(2, args.x + 1)],
    )
    return 0


def _claim_params(info: ClaimInfo, m_max: int, x: int) -> dict[str, Any]:
    """The runner's keyword arguments, set from --m-max and --x by name."""
    m = max(m_max, 4) if info.claim_id == "C5" else m_max  # C5 sweeps even m >= 4
    from_flags = {
        "m_max": m, "p_max": m, "m_values": (m,), "x": x, "n_max": x, "x_values": (x,)
    }
    return {name: from_flags[name] for name in info.parameters if name in from_flags}


def _cmd_claims(args: argparse.Namespace, argv: list[str]) -> int:
    ids = list(CLAIMS)
    if args.ids is not None:
        unknown = [cid for cid in args.ids if cid not in CLAIMS]
        if unknown:
            print(f"unknown claim id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        ids = [cid for cid in ids if cid in args.ids]
    reports = [run_claim(cid, **_claim_params(CLAIMS[cid], args.m_max, args.x)) for cid in ids]
    failing = [
        r.claim_id
        for r in reports
        if r.verdict == Verdict.FAILS_WITH_COUNTEREXAMPLE
        and CLAIMS[r.claim_id].affects_exit
    ]

    def text_lines() -> list[str]:
        lines = []
        for r in reports:
            info = CLAIMS[r.claim_id]
            lines.append(
                f"{r.claim_id} {info.title} [{info.kind}]: {r.verdict.value}"
                + (f" ({len(r.counterexamples)} counterexamples)" if r.counterexamples else "")
            )
        if failing:
            lines.append(f"asserted claims failing: {', '.join(failing)}")
        return lines

    _emit(
        args,
        argv,
        lambda: {"reports": [r.to_dict() for r in reports], "failing_asserted_claims": failing},
        text_lines,
        lambda: report_rows(reports),
    )
    return 1 if failing else 0


#: A row of the goldbach payload, with a certificate and without.
_GOLDBACH_ROW = _row_template(
    {"certificate": dict.fromkeys(("n", "p1", "p2", "r"), "%d"), "m": "%d", "partitions": "%d"}
)
_GOLDBACH_ROW_NULL = _row_template({"certificate": None, "m": "%d", "partitions": "%d"})


def _goldbach_rows(
    ms: Iterable[int], counts: Iterable[int], certs: Iterable[StrongWitness | None]
) -> _Spliced:
    """The goldbach payload's rows: each m with its partition count and
    its certificate or null."""
    return _json_list(
        _GOLDBACH_ROW_NULL % (m, p)
        if c is None
        else _GOLDBACH_ROW % (c.n, c.p1, c.p2, c.r, m, p)
        for m, p, c in zip(ms, counts, certs)
    )


def _cmd_goldbach(args: argparse.Namespace, argv: list[str]) -> int:
    if args.m_max < 4:
        print("--m-max must be >= 4", file=sys.stderr)
        return 2
    primes = prime_table(args.m_max)
    ms = range(4, args.m_max + 1, 2)
    counts = goldbach_counts(args.m_max, primes)
    certs = [admits_strong_ramifier(m, primes) for m in ms]
    mismatches = sum(bool(p) != (c is not None) for p, c in zip(counts, certs))

    def payload() -> dict[str, Any]:
        rows = _goldbach_rows(ms, counts, certs)
        return {"rows": rows, "checked": len(ms), "mismatches": mismatches}

    def text_lines() -> list[str]:
        lines = [
            f"m={m}: {p} partitions, "
            + ("NONE" if c is None else f"n={c.n} p1={c.p1} r={c.r} p2={c.p2}")
            for m, p, c in zip(ms, counts, certs)
        ]
        lines.append(f"equivalence counterexamples: {mismatches}")
        return lines

    def csv_rows() -> list[list]:
        header = [
            "m", "partitions", "certificate_n", "certificate_p1", "certificate_r", "certificate_p2"
        ]
        return [header] + [
            [m, p] + (["", "", "", ""] if c is None else [c.n, c.p1, c.r, c.p2])
            for m, p, c in zip(ms, counts, certs)
        ]

    _emit(args, argv, payload, text_lines, csv_rows)
    return 1 if mismatches else 0


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    common.add_argument("--json", action="store_true", help="shorthand for --format json")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")

    parser = argparse.ArgumentParser(
        prog="ramify",
        description="Ramifier queries, sieving scans, and the claim harness.",
    )
    parser.add_argument("--version", action="version", version=f"ramify {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[common], help="witnesses for one (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--strong", action="store_true", help="require prime residues")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("scan", parents=[common], help="sieve all n <= x for one m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument(
        "--budget-bits", type=int, default=DEFAULT_BUDGET_BITS, metavar="N",
        help="sieve memory budget in bits; the sieve charges 8 bits per n <= x",
    )
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("claims", parents=[common], help="run the claim registry")
    p.add_argument(
        "--ids", type=lambda s: [c.strip() for c in s.split(",") if c.strip()],
        metavar="C1,C2,...", help="claims to run (default: all)",
    )
    p.add_argument("--m-max", type=int, default=20, metavar="N")
    p.add_argument("--x", type=int, default=500, metavar="N")
    p.set_defaults(func=_cmd_claims)

    p = sub.add_parser("goldbach", parents=[common], help="even-modulus sweep")
    p.add_argument("--m-max", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_goldbach)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "check" and (args.n < 2 or args.m < 2):
        parser.error("n and m must both be >= 2")
    if args.subcommand == "scan" and (args.m < 2 or args.x < 2):
        parser.error("--m and --x must both be >= 2")
    if args.subcommand == "claims" and (args.m_max < 2 or args.x < 2):
        parser.error("--m-max and --x must both be >= 2")
    if args.subcommand == "claims" and args.ids == []:
        parser.error("--ids names no claim")
    try:
        return args.func(args, argv)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # within --budget-bits, but more than the host can allocate
        print("resource budget exceeded: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
