"""In-memory span recorder for the traced run.

Spans are taken from outside the program: each traced public function is
replaced, in every ramify module namespace that holds it, by a wrapper
that records a span around the call.  That is where callers look the
function up (``ramify.claims.count_ramifiers``, ``ramify.counting.crt_solve``
and so on), so calls the package makes to itself are traced as well as
the calls the benchmark makes.  ``uninstall`` puts the originals back.

A span holds its name, start and end (``perf_counter_ns``), the id of
its parent span and a request id.  A call made with no traced call
active starts a new request.  Self time is a span's duration minus the
time covered by its direct children.  Three leaves are called up to a
few hundred thousand times per unit of work (``arith.crt_solve``,
``arith.divisors_in_range``, ``ramification.character``); their calls are
counted and timed, and their time is charged to the parent span, but
they are not stored one by one.

Observers read arguments and results to derive the per-layer ratios.
Their own cost is charged as child time of the enclosing span, so it
does not inflate any layer's self time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable

# Public functions traced, by defining module.  Every module namespace of
# the package that holds one of these objects gets the wrapper.
TRACED = {
    "arith": ("crt_solve", "divisors_in_range", "prime_table"),
    "ramification": (
        "character",
        "ramifier_witnesses",
        "index_of",
        "strong_witnesses",
        "admits_ramifier",
        "admits_strong_ramifier",
        "goldbach_partitions",
    ),
    "counting": (
        "build_sieve",
        "count_ramifiers",
        "ramifier_counts",
        "multi_modulus_ramifiers",
    ),
    "cli": ("main",),
}
FOLDED = frozenset(
    {"arith.crt_solve", "arith.divisors_in_range", "ramification.character"}
)
SCANNED_MODULES = ("arith", "ramification", "counting", "claims", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.sieves_seen: set[tuple[int, int]] = set()
        # frame: [span id (0 when folded), start ns, child ns, name, info]
        self._stack: list[list[Any]] = []
        self._next_span = 1
        self._request = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # --- recording -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Callable[[list[Any], tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter_ns
        folded = name in FOLDED
        calls, self_ns, spans = self.calls, self.self_ns, self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                self._request += 1
            if folded:
                sid = 0
            else:
                sid = self._next_span
                self._next_span += 1
            frame = [sid, 0, 0, name, None]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                calls[name] += 1
                self_ns[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if sid:
                    spans.append(
                        (sid, name, frame[1], end, self._parent_id(), self._request)
                    )
            if observe is not None:
                t0 = clock()
                observe(frame, args, kwargs, result)
                if stack:
                    stack[-1][2] += clock() - t0
            return result

        return traced

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[0]:
                return frame[0]
        return 0

    # --- observers -----------------------------------------------------------

    def _obs_crt(self, frame, args, kwargs, sol) -> None:
        c = self.counters
        if sol is None:
            return
        c["crt_solvable"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[3] == "counting.build_sieve":
            x = parent[4]
            n0 = sol.least if sol.least >= 2 else sol.least + sol.period
            if n0 <= x:
                c["sieve_marks"] += (x - n0) // sol.period + 1

    def _pre_sieve(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        # build_sieve(m, x, ...): keep x on the frame for the crt observer.
        stack = self._stack

        def with_x(m: int, x: int, *args: Any, **kwargs: Any) -> Any:
            stack[-1][4] = x
            return fn(m, x, *args, **kwargs)

        return with_x

    def _obs_sieve(self, frame, args, kwargs, sieve) -> None:
        key = (sieve.m, sieve.x)
        if key in self.sieves_seen:
            self.counters["sieve_repeats"] += 1
        self.sieves_seen.add(key)
        self.counters["sieve_bits"] += sieve.count()

    def _obs_character(self, frame, args, kwargs, value) -> None:
        if value == 1:
            self.counters["character_hits"] += 1

    def _obs_counts(self, frame, args, kwargs, counts) -> None:
        self.counters["ramifier_count_cells"] += len(counts)

    def _obs_claim(self, frame, args, kwargs, report) -> None:
        self.counters["claim_counterexamples"] += len(report.counterexamples)

    def _obs_cli(self, frame, args, kwargs, code) -> None:
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counters["cli_output_bytes"] += os.path.getsize(path)

    # --- installation --------------------------------------------------------

    def install(self, modules: dict[str, Any], extra: list[tuple[Any, str, str]]) -> None:
        """Wrap every traced function in every scanned module namespace, and
        each (namespace, attribute, span name) in ``extra``."""
        observers = {
            "arith.crt_solve": self._obs_crt,
            "counting.build_sieve": self._obs_sieve,
            "ramification.character": self._obs_character,
            "counting.ramifier_counts": self._obs_counts,
            "cli.main": self._obs_cli,
        }
        originals: dict[int, str] = {}
        for mod_name, names in TRACED.items():
            for fn_name in names:
                fn = getattr(modules[mod_name], fn_name, None)
                if fn is not None:
                    originals[id(fn)] = f"{mod_name}.{fn_name}"
        wrapped: dict[int, Callable[..., Any]] = {}
        for mod_name in SCANNED_MODULES:
            ns = modules[mod_name]
            for attr, value in list(vars(ns).items()):
                span = originals.get(id(value))
                if span is None:
                    continue
                if id(value) not in wrapped:
                    target = self._pre_sieve(value) if span == "counting.build_sieve" else value
                    wrapped[id(value)] = self.wrap(target, span, observers.get(span))
                self._patch(ns, attr, wrapped[id(value)])
        for ns, attr, span in extra:
            self._patch(ns, attr, self.wrap(getattr(ns, attr), span))
        registry = modules["claims"].CLAIMS
        for cid, info in list(registry.items()):
            runner = self.wrap(info.runner, f"claims.{cid}", self._obs_claim)
            self._patched.append((registry, cid, info))
            registry[cid] = dataclasses.replace(info, runner=runner)

    def _patch(self, ns: Any, attr: str, value: Any) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)
        self._patched.clear()

    # --- reporting -----------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        calls, c = self.calls, self.counters
        crt = calls.get("arith.crt_solve", 0)
        char = calls.get("ramification.character", 0)
        sieves = calls.get("counting.build_sieve", 0)
        out: dict[str, tuple[float, str]] = {
            "arith.divisors_in_range.calls": (calls.get("arith.divisors_in_range", 0), "count"),
            "arith.divisors_in_range.self_s": (self.self_s("arith.divisors_in_range"), "s"),
            "arith.crt_solve.calls": (crt, "count"),
            "arith.crt_solve.solvable_ratio": (_ratio(c["crt_solvable"], crt), "ratio"),
            "arith.prime_table.calls": (calls.get("arith.prime_table", 0), "count"),
            "arith.prime_table.self_s": (self.self_s("arith.prime_table"), "s"),
            "ramification.character.calls": (char, "count"),
            "ramification.character.self_s": (self.self_s("ramification.character"), "s"),
            "ramification.character.hit_ratio": (_ratio(c["character_hits"], char), "ratio"),
            "ramification.ramifier_witnesses.calls": (
                calls.get("ramification.ramifier_witnesses", 0),
                "count",
            ),
            "ramification.ramifier_witnesses.self_s": (
                self.self_s("ramification.ramifier_witnesses"),
                "s",
            ),
        }
        for fn in ("strong_witnesses", "admits_strong_ramifier", "goldbach_partitions"):
            out[f"ramification.{fn}.self_s"] = (self.self_s(f"ramification.{fn}"), "s")
        out.update(
            {
                "counting.build_sieve.calls": (sieves, "count"),
                "counting.build_sieve.self_s": (self.self_s("counting.build_sieve"), "s"),
                "counting.sieve.marks_per_ramifier": (
                    _ratio(c["sieve_marks"], c["sieve_bits"]),
                    "ratio",
                ),
                "counting.sieve.repeat_ratio": (_ratio(c["sieve_repeats"], sieves), "ratio"),
                "counting.ramifier_counts.cells": (c["ramifier_count_cells"], "count"),
                "counting.ramifier_counts.self_s": (
                    self.self_s("counting.ramifier_counts"),
                    "s",
                ),
                "counting.multi_modulus_ramifiers.self_s": (
                    self.self_s("counting.multi_modulus_ramifiers"),
                    "s",
                ),
            }
        )
        for k in range(1, 14):
            out[f"claims.C{k}.self_s"] = (self.self_s(f"claims.C{k}"), "s")
        out["claims.counterexamples"] = (c["claim_counterexamples"], "count")
        out["cli.main.self_s"] = (self.self_s("cli.main"), "s")
        out["cli.output_bytes"] = (c["cli_output_bytes"], "bytes")
        return out

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Write the header, then one JSON array per stored span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(
                json.dumps(["span_id", "name", "start_ns", "end_ns", "parent_id", "request_id"])
                + "\n"
            )
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
