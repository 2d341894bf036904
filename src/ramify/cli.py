"""Command-line front end: point checks, sieving scans, the claim
harness, and Goldbach partition/certificate sweeps.

Text output goes to stdout for humans; JSON (stable key order) and CSV
are the machine interfaces.  Every machine payload is wrapped in an
envelope carrying the tool version, the echoed invocation, and a
timestamp.  Exit codes: 0 affirmative/success, 1 negative result or
claim failure, 2 usage error or unwritable --out, 3 resource budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain, islice
from typing import IO, Any

from . import __version__
from .arith import DEFAULT_BUDGET_BITS, ResourceBudgetError, is_prime, prime_table
from .claims import CLAIMS, ClaimInfo, Verdict, report_rows, run_claim
from .counting import build_sieve, summarize_sieve
from .ramification import goldbach_sweep, index_of

LIST_CAP = 10_000  # scan payloads above this many ramifiers are truncated

_SPLICE = "<spliced {}>"  # the placeholder of a bulk payload list
_ITEM_PAD = " " * 6  # the indent of a payload list's items
_BATCH = 4096  # lines or list items joined into one write, not a write call each


def _write_envelope(fh: IO[str], argv: list[str], payload: dict[str, Any]) -> None:
    """Write the stable wrapper around every machine-readable payload, as JSON.

    A payload value that is an iterator is a bulk list of the JSON texts of
    its items (see _row_template): json.dumps with an indent runs the
    pure-Python encoder, a generator call per value.  The rest is dumped with
    a placeholder string for each bulk list, written in its place.  The
    echoed command, the only text a caller chooses, sorts before "payload",
    and a payload with bulk lists holds no other text, so the last
    occurrence of each placeholder is its own.
    """
    bulk = {key: value for key, value in payload.items() if isinstance(value, Iterator)}
    envelope = {
        "tool_version": __version__,
        "command": "ramify " + " ".join(argv),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "payload": {**payload, **{key: _SPLICE.format(key) for key in bulk}},
    }
    text = json.dumps(envelope, sort_keys=True, indent=2)
    tails = []
    for key in sorted(bulk, reverse=True):  # the placeholders from the last
        text, _, tail = text.rpartition(json.dumps(_SPLICE.format(key)))
        tails.append((bulk[key], tail))
    fh.write(text)
    for items, tail in reversed(tails):
        sep = "[\n"
        while batch := list(islice(items, _BATCH)):
            fh.write(sep + ",\n".join(batch))
            sep = ",\n"
        fh.write(("[]" if sep == "[\n" else "\n    ]") + tail)
    fh.write("\n")


def _row_template(value: Any) -> str:
    """The JSON text of value as an item of a payload list, with each "%d"
    string in it a %d slot; the slots follow the sorted keys."""
    text = json.dumps(value, sort_keys=True, indent=2).replace('"%d"', "%d")
    return _ITEM_PAD + text.replace("\n", "\n" + _ITEM_PAD)


def _emit(
    args: argparse.Namespace,
    argv: list[str],
    payload: Callable[[], dict[str, Any]],
    text_lines: Callable[[], Iterable[str]],
    csv_rows: Callable[[], Iterable[Iterable]],
) -> None:
    """Write the output the format asks for into --out, or sys.stdout as it
    is at call time, as it is built; each output comes from its zero-argument
    callable, and only the written one is built.  A reader that closes stdout
    early (`| head`) ends the output, and the command keeps its exit code."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        through = getattr(fh, "write_through", False)  # stdout under PYTHONUNBUFFERED
        if through:  # hold the writes in the text layer: a syscall per 8 KB, not per row
            fh.reconfigure(write_through=False)
        try:
            if args.format == "json" or (args.out and args.format == "text"):
                _write_envelope(fh, argv, payload())
            elif args.format == "csv":
                csv.writer(fh, lineterminator="\n").writerows(csv_rows())
            else:
                lines = iter(text_lines())
                while batch := list(islice(lines, _BATCH)):
                    fh.write("\n".join(batch) + "\n")
            fh.flush()
        except BrokenPipeError:
            # Python flushes stdout at exit; into os.devnull no second error follows
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        finally:
            if through:
                fh.reconfigure(write_through=True)


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
            "all_indices": map(_row_template("%d").__mod__, indices),
            "witnesses": map(witness.__mod__, rs),
        }

    _emit(
        args,
        argv,
        json_payload,
        lambda: chain(head, (line.format(m, n, a1, r, a2) for r in rs)),
        lambda: chain([keys], ((m, n, a1, r, a2) for r in rs)),
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
        lambda: chain([("n", "character")], enumerate(sieve.flags[2:], 2)),
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
    ms: Iterable[int], counts: Iterable[int], certs: Iterable[tuple[int, int, int, int] | None]
) -> Iterator[str]:
    """The JSON text of the goldbach payload's rows: each m with its
    partition count and its (n, p1, r, p2) certificate or null."""
    return (
        _GOLDBACH_ROW_NULL % (m, p)
        if c is None
        else _GOLDBACH_ROW % (c[0], c[1], c[3], c[2], m, p)  # slots: n, p1, p2, r
        for m, p, c in zip(ms, counts, certs)
    )


def _certificate_fails(m: int, cert: tuple[int, int, int, int], flags: bytes) -> bool:
    """Whether (n, p1, r, p2) fails to certify a strong ramifier n of modulus
    m, re-checked from the definition: n = p1 (mod m) and n = p2 (mod r) as
    canonical residues, p1 + p2 = m, p2 < r < m, and both residues prime."""
    n, p1, r, p2 = cert
    return not (
        n % m == p1 and p1 + p2 == m and p2 < r < m and n % r == p2 and flags[p1] and flags[p2]
    )


def _cmd_goldbach(args: argparse.Namespace, argv: list[str]) -> int:
    if args.m_max < 4:
        print("--m-max must be >= 4", file=sys.stderr)
        return 2
    primes = prime_table(args.m_max)
    ms = range(4, args.m_max + 1, 2)
    counts, certs = goldbach_sweep(args.m_max, primes)
    # counts and certificates come from one word per m: the re-check of each
    # certificate against the definition is the independent half
    mismatches = sum(
        bool(p) != (c is not None) or (c is not None and _certificate_fails(m, c, primes.flags))
        for m, p, c in zip(ms, counts, certs)
    )

    def payload() -> dict[str, Any]:
        rows = _goldbach_rows(ms, counts, certs)
        return {"rows": rows, "checked": len(ms), "mismatches": mismatches}

    def text_lines() -> Iterator[str]:
        for m, p, c in zip(ms, counts, certs):
            yield f"m={m}: {p} partitions, " + (
                "NONE" if c is None else "n={} p1={} r={} p2={}".format(*c)
            )
        yield f"equivalence counterexamples: {mismatches}"

    def csv_rows() -> Iterator[list]:
        yield ["m", "partitions"] + [f"certificate_{k}" for k in ("n", "p1", "r", "p2")]
        for m, p, c in zip(ms, counts, certs):
            yield [m, p, *(("", "", "", "") if c is None else c)]

    _emit(args, argv, payload, text_lines, csv_rows)
    return 1 if mismatches else 0


def _check_out(path: str) -> None:
    """Raise the OSError that opening path for writing would raise, before
    any work, by opening it for append, which truncates nothing.  A file the
    probe created, at path or at the target of a dangling symlink, is
    removed again, so that an input that exits 3 still leaves none."""
    created = not os.path.exists(path)  # exists follows a symlink
    open(path, "a").close()
    if created:
        os.remove(os.path.realpath(path))


# --- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    fmt.add_argument(
        "--json", action="store_const", const="json", dest="format",
        help="shorthand for --format json",
    )
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
        if args.out:
            _check_out(args.out)
        return args.func(args, argv)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # within --budget-bits, but more than the host can allocate
        print("resource budget exceeded: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
