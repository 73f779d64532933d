"""The machine's speed, and phase timings scaled to a reference speed.

The benchmark runs on a few cores of a shared host.  That host's speed
changes by up to half from one stretch of seconds to the next, as other
tenants come and go, and it changes isofilt's arithmetic and a fixed pure
Python kernel alike.  So the benchmark runs that kernel (a ``probe``) between
the phases of its operations and scales every timing to the speed at which
the kernel takes ``REF_S``: a phase that took ``t`` seconds while the probes
just before and after it took ``r`` on average counts as ``t * REF_S / r``.
The kernel does not touch isofilt, so a change to isofilt moves the scaled
timings by as much as it moves the raw ones.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from fractions import Fraction

# The kernel's time on a 2-core Xeon VM when the host is quiet.
REF_S = 0.008
# A probe is taken after a phase once this long has passed since the last one.
PROBE_EVERY_S = 0.5
_M = 1 << 48


def _mul(a, b):
    return tuple((x * y + 1) % _M for x, y in zip(a, b))


def kernel():
    """Tuple arithmetic modulo 2^48, fractions and small matrix products:
    the kind of work isofilt does, without isofilt."""
    v = tuple(range(3, 19))
    acc = Fraction(0)
    seen = {}
    for i in range(1500):
        v = _mul(v, v[::-1])
        seen[v[0] & 63] = v
        if i % 25 == 0:
            acc += Fraction(v[1] % 97 + 1, v[2] % 89 + 1)
    rows = [[(i * j + 7) % 1009 for j in range(8)] for i in range(8)]
    for _ in range(20):
        rows = [[sum(x * y for x, y in zip(r, c)) % _M for c in zip(*rows)]
                for r in rows]
    return acc, seen, rows


def probe():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Stopwatch:
    """The ``phase`` factory a workload runs its phases under.

    It takes a probe after a phase when one is due, and scales each phase by
    the mean of the probes just before and just after it.  ``start`` begins
    an operation; ``stop`` ends it and returns its scaled seconds by phase
    name.  ``raw`` holds the operation's unscaled seconds by phase name.
    ``span``, when given, opens a tracer span around every phase.
    """

    def __init__(self, span=None):
        self.span = span
        self.probes = []        # every probe taken, in order
        self.raw = defaultdict(float)
        self.scaled = defaultdict(float)
        self._pending = []      # (phase, seconds) since the last probe
        self._last = float("-inf")

    def _probe(self):
        r = probe()
        if self._pending:
            k = REF_S / statistics.fmean((self.probes[-1], r))
            for name, dt in self._pending:
                self.scaled[name] += dt * k
            self._pending.clear()
        self.probes.append(r)
        self._last = time.perf_counter()

    def start(self):
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._probe()
        self.raw.clear()
        self.scaled.clear()

    @contextlib.contextmanager
    def __call__(self, name):
        with self.span(name) if self.span else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                dt = time.perf_counter() - t0
                self.raw[name] += dt
                self._pending.append((name, dt))
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._probe()

    def stop(self):
        self._probe()
        return dict(self.scaled)
