"""The benchmark's workloads: inputs built from a seed, one cycle of
operations at a time, and a check of every operation's output.

An operation has a construction phase and a verification phase:

* ``cert-ramified`` and ``cert-multiplicity`` run ``filtration find`` then
  ``filtration check`` through ``isofilt.cli.main`` on shipped fixtures, each
  with a seeded ``--seed``: twelve round trips per cert-ramified operation,
  one per cert-multiplicity operation;
* ``slope-split`` runs ``isoclinic_decompose`` then ``is_admissible`` (exact
  mode) on each of a bundle of seeded direct sums of simple phi-modules with
  seeded filtrations.

A cycle holds a fixed multiset of problems, so the mix of a run does not
depend on the seed (a run may stop inside a cycle, which shifts the mix of
cert-multiplicity by one operation at most); the seed chooses the CLI seeds,
block orders and filtration matrices.  isofilt is imported in ``setup`` so
that its import is part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
TESTS = ROOT / "tests"


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def import_isofilt():
    """Import isofilt and the exact-rational oracles from this checkout."""
    for need in (SRC / "isofilt" / "__init__.py", TESTS / "oracles.py", FIXTURES):
        if not need.exists():
            raise SetupError(f"missing {need.relative_to(ROOT)}")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import isofilt
    if Path(isofilt.__file__).resolve().parent != SRC / "isofilt":
        raise SetupError(f"isofilt imported from {isofilt.__file__}, "
                         f"not from {SRC}")


class Result:
    """Verdict of one operation.  The runner times its phases."""

    __slots__ = ("ok", "fallback", "detail")

    def __init__(self, ok, fallback=False, detail=""):
        self.ok = ok
        self.fallback = fallback
        self.detail = detail


# -- certificate round trips --------------------------------------------------------


class CertWorkload:
    """``filtration find`` then ``filtration check`` on fixture problems.

    A cycle is a tuple of operations; an operation is a tuple of problems,
    each a (module, group, extension) triple of fixture stems, run as one
    round trip after another.
    """

    def __init__(self, cycle):
        self.cycle = cycle
        self.cli = None
        self.cert = None

    def setup(self, tmpdir):
        import_isofilt()
        from isofilt import cli
        self.cli = cli
        self.cert = Path(tmpdir) / "certificate.json"
        for op in self.cycle:
            for stems in op:
                for stem in stems:
                    if not (FIXTURES / f"{stem}.json").is_file():
                        raise SetupError(f"missing fixture {stem}.json")

    def warmup_cycle(self, rng):
        return [[(self.cycle[0][0], rng.randrange(1 << 30))]]

    def next_cycle(self, rng):
        return [[(stems, rng.randrange(1 << 30)) for stems in op]
                for op in self.cycle]

    def run(self, op, phase):
        failures = []
        fallback = False
        for (module, group, extension), seed in op:
            find = ["filtration", "find",
                    "--module", str(FIXTURES / f"{module}.json"),
                    "--group", str(FIXTURES / f"{group}.json"),
                    "--extension", str(FIXTURES / f"{extension}.json"),
                    "--seed", str(seed), "--out", str(self.cert)]
            check = ["filtration", "check", str(self.cert)]
            self.cert.unlink(missing_ok=True)
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                with phase("construct"):
                    rc_find = self.cli.main(find)
                rc_check = None
                if rc_find == 0:
                    with phase("verify"):
                        rc_check = self.cli.main(check)
            label = f"{module}+{group}+{extension} --seed {seed}"
            if rc_find != 0 or rc_check != 0:
                failures.append(f"{label}: find exit {rc_find}, check exit "
                                f"{rc_check}: {log.getvalue().strip()[-300:]}")
                continue
            adm = json.loads(self.cert.read_text())["outputs"]["admissibility"]
            fallback |= adm["mode"] == "sampled"
            if adm["verdict"] != "admissible":
                failures.append(f"{label}: verdict {adm['verdict']}")
        return Result(not failures, fallback, "; ".join(failures))


# -- slope splitting ------------------------------------------------------------------

# simple phi-modules by slope: (s, r) for the companion matrix of x^r - p^s
SIMPLES = {Fraction(0): (0, 1), Fraction(1, 3): (1, 3), Fraction(1, 2): (1, 2),
           Fraction(2, 3): (2, 3), Fraction(1): (1, 1)}


def _slopes(*text):
    return tuple(Fraction(t) for t in text)


# One slope-split operation: every (block slopes, precision N) problem below,
# over Q_2.  Splits with a minimal slope of denominator 1, 2 and 3 (the
# Kummer rings t^2 = 2 and t^3 = 2) occur, and slope-0 splits at both
# precisions.  Single problems take 0.03-4 s and the machine's speed drifts
# over seconds, so the median of single problems jumps between problems from
# run to run; a bundle of about 7 s averages that out.  The other
# multiplicity-free shapes of dimension <= 5 take 2-11 s each on a 2-core
# Xeon VM and would leave too few operations per run.
SLOPE_BUNDLE = (
    (_slopes("0", "1"), 32),
    (_slopes("0", "1/2"), 32),
    (_slopes("0", "1/3"), 32),
    (_slopes("1/2", "1"), 32),
    (_slopes("1/3", "1"), 32),
    (_slopes("0", "1"), 48),
    (_slopes("0", "1/2"), 48),
    (_slopes("0", "2/3"), 48),
)


class SlopeWorkload:
    """``isoclinic_decompose`` then exact ``is_admissible`` on a bundle of
    direct sums of simple phi-modules, checked against exact-rational
    oracles.  A cycle is one operation on one bundle."""

    def __init__(self, bundle):
        self.bundle = bundle

    def setup(self, tmpdir):
        import_isofilt()
        from isofilt.fixtures import unramified, trivial_extension
        from isofilt.isocrystal.module import PhiModule
        # called through their modules, so that a traced run sees the calls
        from isofilt.isocrystal import slopes
        from isofilt.filtration import admissible
        from isofilt.padic import linalg as la
        import oracles
        self.unramified = unramified
        self.trivial_extension = trivial_extension
        self.PhiModule = PhiModule
        self.slopes = slopes
        self.admissible = admissible
        self.la = la
        self.oracles = oracles

    def warmup_cycle(self, rng):
        precisions = sorted({n for _, n in self.bundle})
        return [[self._make(_slopes("0", "1"), n, rng) for n in precisions]]

    def next_cycle(self, rng):
        return [[self._make(slopes, n, rng) for slopes, n in self.bundle]]

    def _make(self, slopes, prec, rng):
        order = list(slopes)
        rng.shuffle(order)
        blocks = [SIMPLES[s] for s in order]
        n = sum(r for _, r in blocks)
        t_n = sum(s for s, _ in blocks)
        while True:
            rows = [[Fraction(rng.randrange(-9, 10)) for _ in range(t_n)]
                    for _ in range(n)]
            if self.oracles.rational_rank(rows) == t_n:
                break
        field = self.unramified(2, 1, prec)
        ext = self.trivial_extension(field)
        D = None
        for s, r in blocks:
            M = self.PhiModule.simple(field, s, r)
            D = M if D is None else D.direct_sum(M)
        F = [[ext.lift(x) for x in row]
             for row in self.la.from_rows_of_fractions(field, rows)]
        return blocks, prec, rows, D, F, ext

    def run(self, bundle, phase):
        failures = []
        for blocks, prec, rows, D, F, ext in bundle:
            with phase("construct"):
                dec = self.slopes.isoclinic_decompose(D)
            with phase("verify"):
                rep = self.admissible.is_admissible(D, F, ext, "exact")
            label = f"blocks {[f'{s}/{r}' for s, r in blocks]} N={prec}"
            got = sorted((slope, len(cols[0])) for slope, cols in dec)
            want = sorted((Fraction(s, r), r) for s, r in blocks)
            verdict, ledger = self._oracle(blocks, rows)
            got_ledger = sorted((d, th, Fraction(b)) for d, th, b in rep.entries)
            if got != want:
                failures.append(f"{label}: components {got} != {want}")
            elif rep.verdict != verdict or got_ledger != ledger:
                failures.append(f"{label}: verdict {rep.verdict} ledger "
                                f"{got_ledger} != oracle {verdict} {ledger}")
        return Result(not failures, detail="; ".join(failures))

    def _oracle(self, blocks, rows):
        """Verdict and ledger over the 2^k block sums, in exact rationals."""
        n = len(rows)
        offsets, off = [], 0
        for s, r in blocks:
            offsets.append((off, s, r))
            off += r
        ledger, verdict = [], True
        for k in range(len(blocks) + 1):
            for pick in combinations(offsets, k):
                dim_n = sum(r for _, _, r in pick)
                bound = Fraction(sum(s for _, s, _ in pick))
                if dim_n == 0:
                    ledger.append((0, 0, bound))
                    continue
                cols = [[Fraction(int(i == o + j)) for o, _, r in pick
                         for j in range(r)] for i in range(n)]
                t_h = self.oracles.rational_intersection_dim(cols, rows)
                ledger.append((dim_n, t_h, bound))
                if t_h > bound or (dim_n == n and t_h != bound):
                    verdict = False
        return verdict, sorted(ledger)


RAMIFIED_E2 = ("ss2", "c2_scalar_dim2", "ext_sqrt2_c2")
RAMIFIED_E4 = ("ss2_q4", "c4_k_dim2", "ext_c4_cyclotomic")
TORUS_TRIVIAL = ("ordinary_torus", "trivial_group_dim3", "ext_trivial")
TORUS_C2 = ("ordinary_torus", "c2_scalar_dim3", "ext_sqrt2_c2")

# Each workload's cycle.  A ramified round trip takes 30-250 ms, shorter than
# the machine's speed drifts, so one cert-ramified operation is twelve round
# trips (about 1.5 s); a multiplicity round trip takes 3-5 s on its own.
WORKLOADS = {
    "cert-ramified": lambda: CertWorkload(
        ((RAMIFIED_E2, RAMIFIED_E4, RAMIFIED_E4) * 4,)),
    "cert-multiplicity": lambda: CertWorkload(
        ((TORUS_TRIVIAL,), (TORUS_C2,), (TORUS_C2,))),
    "slope-split": lambda: SlopeWorkload(SLOPE_BUNDLE),
}


def make(name, seed):
    """A fresh workload and the random stream its inputs come from."""
    return WORKLOADS[name](), random.Random(f"{name}:{seed}")
