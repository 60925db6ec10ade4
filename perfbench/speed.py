"""Machine-speed probes, to report times at a fixed reference speed.

The CPU speed of a shared virtual machine drifts by tens of percent over
tens of seconds (other tenants), which moves every timing of a run
together.  A probe runs one fixed pure-Python job, exact `Fraction`
elimination plus tuple, dict, frozenset and sort churn, the same kind of
work `semistab` does, and reports how long it took.  A measured interval
is scaled by REFERENCE_S / (mean of the probes just before and just after
it): the time the work would have taken on a machine where the probe
takes REFERENCE_S.

The garbage collector is off during a probe, so collector settings made
by the program under test cannot change the probe.  `another_round` is
the rule that fits whole rounds into a run's time.  Nothing here imports
`semistab`.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010
MIN_ROUNDS = 2

_MATRIX = [[Fraction(i * j + 1, i + j + 1) for j in range(7)] for i in range(7)]


def _eliminate(rows):
    rows = [row[:] for row in rows]
    for c in range(len(rows)):
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def probe() -> float:
    """Seconds taken by the fixed reference job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(6):
            _eliminate(_MATRIX)
            table = {(k, k % 7): frozenset((k, k + 1)) for k in range(2000)}
            sorted(table, key=lambda key: (key[1], -key[0]))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probes) -> float:
    """``seconds`` at reference speed, from the probes around the interval."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)


def another_round(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether to start another round after ``rounds`` took ``elapsed`` seconds.

    At least MIN_ROUNDS; after that, only while the next round is expected
    to end within ``seconds``.
    """
    return rounds < MIN_ROUNDS or elapsed * (rounds + 1) / rounds <= seconds
