"""Fixed-input timings of the arithmetic layers, untraced.

They reproduce the baseline table of ROADMAP.md: ring and scalar operations
over Q_2 and over the Kummer ring t^3 = 2 at precision 48, and certified
linear algebra on fixed 4x4 and 8x8 integer matrices over Q_2.  Each figure
is the median of several timed batches, less the cost of calling an empty
function the same way.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

BATCHES = 5
BATCH_S = 0.02


def _per_call_s(fn, *args):
    def empty(*_):
        return None

    def batch(f, n):
        t0 = time.perf_counter()
        for _ in range(n):
            f(*args)
        return time.perf_counter() - t0

    n = 1
    while batch(fn, n) < BATCH_S:
        n *= 2
    times = [(batch(fn, n) - batch(empty, n)) / n for _ in range(BATCHES)]
    return statistics.median(times)


def fixed_timings():
    """{metric name: (value, unit)} for the fixed-input timings."""
    from isofilt.padic import linalg as la
    from isofilt.padic import scalar as sc
    from isofilt.padic.descriptors import (UnramifiedFieldDescriptor,
                                           EisensteinExtensionDescriptor)

    q2 = UnramifiedFieldDescriptor.create(2, 1, 48)
    kummer = EisensteinExtensionDescriptor(q2, (-2, 0, 0, 1), validate=False)
    out = {}
    for tag, field in (("q2_48", q2), ("kummer3_48", kummer)):
        ring = field.ring
        x = field.scalar(Fraction(5, 3))
        # y has valuation 1/e, so x + y and x * y take the shifted paths
        pi = field.uniformizer() if field is kummer else field.scalar(2)
        y = sc.sc_mul(pi, field.scalar(Fraction(7, 11)))
        out[f"fixed.{tag}.ring.mul"] = _per_call_s(ring.mul, x.unit, y.unit)
        out[f"fixed.{tag}.ring.inv_unit"] = _per_call_s(ring.inv_unit, x.unit)
        out[f"fixed.{tag}.scalar.sc_add"] = _per_call_s(sc.sc_add, x, y)
        out[f"fixed.{tag}.scalar.sc_mul"] = _per_call_s(sc.sc_mul, x, y)
        out[f"fixed.{tag}.field.scalar_5"] = _per_call_s(field.scalar, 5)
    out = {k: (v * 1e6, "us") for k, v in out.items()}
    rng = random.Random(0)
    for n in (4, 8):
        m = la.from_rows_of_fractions(
            q2, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        for name, fn, args in (("certified_row_reduce", la.certified_row_reduce, (m,)),
                               ("charpoly", la.charpoly, (m,)),
                               ("mat_mul", la.mat_mul, (m, m))):
            out[f"fixed.n{n}.linalg.{name}"] = (_per_call_s(fn, *args) * 1e3, "ms")
    return out
