"""Host-speed probe, used to report times at a fixed reference speed.

The benchmark host is shared: the same code and inputs run up to ~40%
slower for stretches of seconds to minutes while neighbours are busy,
and a whole 30 s run can fall inside one such stretch.  Every timed
interval is therefore bracketed by a probe: a fixed pure-Python loop of
integer remainders, list appends and dict stores that no ramify code
touches.  An interval of raw length t with probes p0 before and p1
after is reported as

    t * REF_PROBE_S / ((p0 + p1) / 2)

that is, as the time it would have taken with the probe running at its
reference speed.  A change to ramify cannot move the probe, so a gain
or a regression passes through unchanged while host speed cancels out.
run.py prints the raw figures and the mean speed factor next to the
scaled ones.
"""

from __future__ import annotations

import time

#: Probe time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11)
#: in its usual state; scaled times read close to raw times there.
REF_PROBE_S = 1.5e-3

_KS = [10**11 + 7919 * k for k in range(8)]


def _body(k: int) -> int:
    out, seen = [], {}
    for i in range(2, 1500):
        r = k % i
        if r < 4:
            out.append(i)
        seen[i & 63] = r
    return len(out) + len(seen)


def probe() -> float:
    """Mean time of one round of the fixed loop over three rounds, in
    seconds (~5 ms in all).  A mean, not a minimum: a busy neighbour
    slows a share of the instructions, which the minimum would miss."""
    t0 = time.perf_counter()
    for _ in range(3):
        for k in _KS:
            _body(k)
    return (time.perf_counter() - t0) / 3


def scaled(raw_s: float, before: float, after: float) -> float:
    """raw_s at the reference probe speed, given the probes around it."""
    return raw_s * REF_PROBE_S * 2 / (before + after)
