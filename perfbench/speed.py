"""Host-speed reference for the timed region.

On a shared host the speed of one core drifts by a quarter and more over a
minute, and the drift does not average out within a run of any affordable
length (CPU time drifts with wall time, so it is not time stolen by other
guests but slower execution).  To compare two commits, times are measured
against a fixed reference instead: every ``INTERVAL_S`` of the process's
CPU time a signal handler runs ``reference_chunk``, fixed pure-Python work
of the kinds the engine does, and records how long it took.  A stretch of
the timed region is reported in *reference seconds*: its raw duration, less
the chunks run inside it, times ``CHUNK_REF_S`` over the mean duration of
the chunks during and around it.  A change that makes the engine do less work lowers
reference seconds as it lowers wall time; a slower host does not raise them.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.1  # process CPU time between two reference chunks
WINDOW_S = 0.5  # chunks this close to a stretch of time give its speed
WARM_UP = 5  # untimed chunks before the first timed one
CHUNK_REF_S = 0.008  # about a chunk's median duration in a run on a 2-vCPU x86-64 VM, CPython 3.11

_rng = random.Random(7)
_KEYS = [(i % 97, i % 89, f"c{i % 61}") for i in range(1200)]
_TABLE = {(i, f"k{i}"): i for i in range(40_000)}  # a few MB: past the private caches
_PROBES = _rng.sample(sorted(_TABLE), 2000)
_NODES = [f"v{i}" for i in range(10)]
_TARGET = sorted({(_rng.choice(_NODES), _rng.choice(_NODES)) for _ in range(25)})


@dataclass(frozen=True, slots=True)
class _Var:
    name: str


_CYCLE = [(_Var(f"x{i}"), _Var(f"x{(i + 1) % 5}")) for i in range(5)]
_BY_VAR = {v: [e for e in _CYCLE if v in e] for e in _CYCLE for v in e}


def _count_cycles() -> int:
    """Homomorphisms of a directed 5-cycle of variables into a fixed random
    digraph, by backtracking with forward checking in the engine's style:
    frozen dataclass variables, scans of the target for supports, the
    smallest domain first."""
    assignment: dict = {}

    def supports(edge):
        fixed = [(p, assignment[t]) for p, t in enumerate(edge) if t in assignment]
        free = [(p, t) for p, t in enumerate(edge) if t not in assignment]
        found, out = False, {t: set() for _p, t in free}
        for tt in _TARGET:
            if any(tt[p] != v for p, v in fixed):
                continue
            found = True
            for p, t in free:
                out[t].add(tt[p])
        return out if found else None

    def backtrack(domains, unassigned) -> int:
        if not unassigned:
            return 1
        var = min(unassigned, key=lambda u: (len(domains[u]), u.name))
        rest = unassigned - {var}
        total = 0
        for val in sorted(domains[var]):
            assignment[var] = val
            narrowed = dict(domains)
            for edge in _BY_VAR[var]:
                found = supports(edge)
                if found is None:
                    break
                for u, values in found.items():
                    narrowed[u] = narrowed[u] & values
            else:
                if all(narrowed[u] for u in rest):
                    total += backtrack(narrowed, rest)
            del assignment[var]
        return total

    return backtrack({v: set(_NODES) for v in _BY_VAR}, frozenset(_BY_VAR))


def reference_chunk() -> int:
    """Fixed work of three kinds: grouping tuples into dicts and sets,
    lookups in a table larger than the private caches, and a small
    backtracking search."""
    total = 0
    for _ in range(2):
        index: dict = {}
        seen = set()
        for key in _KEYS:
            index.setdefault(key[0], []).append(key)
            seen.add((key[1], key[2]))
        total += len(index) + len(seen)
    total += sum(_TABLE[k] for k in _PROBES)
    return total + _count_cycles()


class SpeedSampler:
    """Runs ``reference_chunk`` on a process CPU-time timer while started."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter at the end of each chunk
        self.durations: list[float] = []

    def sample(self):
        start = time.perf_counter()
        reference_chunk()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def _on_tick(self, _signum, _frame):
        self.sample()

    def start(self):
        for _ in range(WARM_UP):  # a first run of the chunk is slower
            reference_chunk()
        signal.signal(signal.SIGVTALRM, self._on_tick)
        self.sample()
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.sample()

    def _index(self, start: float, end: float) -> tuple[int, int]:
        """The chunks that ended inside ``[start, end]``, as a slice."""
        return bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)

    def reference_s(self, start: float, end: float) -> float:
        """``[start, end]`` less its chunks, in reference seconds.  The
        speed is the mean of the chunks that ended within ``WINDOW_S`` of
        it, and at least of the last one before it and the first one after
        it: one chunk's time is too noisy for an operation of a few
        milliseconds.  The chunks run at even steps of CPU time, so their
        mean follows the host's mean speed over a long operation."""
        lo, hi = self._index(start, end)
        inside = sum(self.durations[lo:hi])
        near_lo, near_hi = self._index(start - WINDOW_S, end + WINDOW_S)
        near = self.durations[min(near_lo, max(lo - 1, 0)):max(near_hi, hi + 1)]
        return (end - start - inside) * CHUNK_REF_S / statistics.fmean(near)
