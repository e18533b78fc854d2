"""Host-speed calibration: time measured on a shared host, rescaled to the
speed of a reference host.

The benchmark runs on a shared host whose speed changes in phases lasting
from a second to minutes: the same round of weylchow calls takes 4 s in one
phase and 8 s in another, and CPU time grows with wall time.  `unit()` does
a small fixed amount of work of the kinds weylchow does (row reduction over
F_2 and F_3, Fraction elimination, sparse polynomial products in dicts of
exponent tuples) with code of its own, so no change to weylchow changes its
cost.  `Sampler` runs a burst of units every `period` seconds of wall time
from a SIGALRM handler, inside the weylchow calls it measures, so the units
see the same phases as the calls.  `rescaled()` removes the bursts' own time
and multiplies the rest by REF_UNIT_S over the mean time of a unit.

REF_UNIT_S is the wall and CPU time of one unit on the reference host
(README.md).  It only sets the scale of the rescaled metrics and must stay
fixed for them to be comparable across commits.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction
from typing import Dict, List, Tuple

REF_UNIT_S = 0.0025


def _rank_mod(m: List[List[int]], p: int) -> int:
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _rank_q(m: List[List[Fraction]]) -> int:
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _poly_mul(a: Dict[Tuple[int, ...], int], b: Dict[Tuple[int, ...], int]):
    out: Dict[Tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def unit() -> int:
    """One unit of work, about REF_UNIT_S seconds on the reference host.  Its
    data stay in a core's private caches, so that weylchow's own use of the
    caches between bursts changes its cost little."""
    rng = random.Random(7)
    n = 20
    total = _rank_mod([[rng.randrange(2) for _ in range(n)] for _ in range(n)], 2)
    total += _rank_mod([[rng.randrange(3) for _ in range(n)] for _ in range(n)], 3)
    total += _rank_q([[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(4)]
                      for _ in range(4)])
    a = {(i, j, 3 - i - j): rng.randrange(1, 5) for i in range(4) for j in range(4 - i)}
    return total + len(_poly_mul(_poly_mul(a, a), a))


def measure(units: int) -> float:
    """Wall time of `units` units of work."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - start


class Sampler:
    """While active, run `burst` units every `period` seconds of wall time and
    add up their wall time, CPU time and count.  At least one burst runs."""

    def __init__(self, period: float = 0.1, burst: int = 2):
        self.period, self.burst = period, burst
        self.wall = self.cpu = 0.0
        self.units = 0
        self.elapsed = (0.0, 0.0)  # wall and CPU time while active, without the bursts
        self._active = False
        self._start = (0.0, 0.0)

    def _tick(self, signum=None, frame=None):
        if not self._active and signum is not None:
            return  # a signal that was pending when the sampler stopped
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(self.burst):
            unit()
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu
        self.units += self.burst

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._start = (time.perf_counter(), time.process_time())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        self.elapsed = (time.perf_counter() - self._start[0] - self.wall,
                        time.process_time() - self._start[1] - self.cpu)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        if not self.units:
            self._tick()

    def rescaled(self) -> Tuple[float, float]:
        """The wall and CPU time while active, without the bursts, at the
        reference host speed."""
        return (self.elapsed[0] * REF_UNIT_S * self.units / self.wall,
                self.elapsed[1] * REF_UNIT_S * self.units / self.cpu)
