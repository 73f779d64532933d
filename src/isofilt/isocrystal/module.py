"""Finite-dimensional spaces with an invertible Frobenius-semilinear operator.

A PhiModule over an unramified level K_q is a matrix A in a fixed basis with
the semantics phi(x) = A * sigma(x) on coordinate columns.  The linearization
B = A sigma(A) ... sigma^(f-1)(A) is the (honestly linear) matrix of phi^f and
drives all slope computations.

Polarized modules carry an alternating Gram matrix J; the Frobenius
compatibility constant is eps * p with eps in {+1, -1} detected at validation
(both signs occur among natural examples and nothing downstream depends on
the sign, only on the twist by p).

A PhiModule's ``A`` and ``field`` are never mutated after construction (every
operation returns a new module), so ``slopes`` may keep a module's slope data
on it, in ``_charpoly``, ``_slopes`` and ``_isoclinic`` (see submodule), and
the module keeps v_p(det A), which validation certifies, in ``_t_N``.

A semi-abelian module certifies its structure once and keeps it: S and
[T | S]^-1 from one reduced elimination of [T | I_n] (a column is a pivot
exactly when it is independent of those before it, and a column without a
pivot adds no row operation), T's stability and Frobenius from one solve,
T's slope, and the pairing on D_B, built once (D itself at t = 0).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ValidationError
from ..padic import linalg as la
from ..padic.descriptors import UnramifiedFieldDescriptor
from ..symplectic.space import SymplecticSpace


class PhiModule:
    def __init__(self, field: UnramifiedFieldDescriptor, frobenius_matrix,
                 validate: bool = True):
        self.field = field
        self.A = frobenius_matrix
        self.n = len(frobenius_matrix)
        self._charpoly = None     # (linearization, its charpoly), set by slopes
        self._slopes = None       # SlopeProfile, set by newton_slopes
        self._isoclinic = None    # [(slope, cols)], set by isoclinic_decompose
        self._t_N = None          # v_p(det A), set by validation or t_N
        if validate:
            if any(len(r) != self.n for r in self.A):
                raise ValidationError("Frobenius matrix must be square")
            self._t_N = la.det_valuation(self.A)  # certified invertible

    @classmethod
    def from_rational(cls, field, rows):
        return cls(field, la.from_rows_of_fractions(field, rows))

    @classmethod
    def simple(cls, field, s: int, r: int):
        """The simple module of slope s/r: companion matrix of x^r - p^s."""
        rows = [[0] * r for _ in range(r)]
        for i in range(1, r):
            rows[i][i - 1] = 1
        rows[0][r - 1] = Fraction(field.p) ** s
        return cls.from_rational(field, rows)

    def apply_phi(self, cols):
        """phi on a matrix of column vectors."""
        return la.mat_mul(self.A, la.mat_frobenius(cols))

    def linearization(self):
        """Matrix of phi^f: A sigma(A) ... sigma^(f-1)(A)."""
        B = self.A
        Ak = self.A
        for _ in range(self.field.f - 1):
            Ak = la.mat_frobenius(Ak)
            B = la.mat_mul(B, Ak)
        return B

    def t_N(self) -> Fraction:
        """v_p(det A); basis independent, certified once per module."""
        if self._t_N is None:
            self._t_N = la.det_valuation(self.A)
        return self._t_N

    def direct_sum(self, other: "PhiModule") -> "PhiModule":
        assert self.field == other.field
        n, m = self.n, other.n
        z = self.field.zero()
        rows = []
        for i in range(n):
            rows.append(list(self.A[i]) + [z] * m)
        for i in range(m):
            rows.append([z] * n + list(other.A[i]))
        return PhiModule(self.field, rows, validate=False)

    def is_stable(self, basis_cols, rank: int | None = None) -> bool:
        """Certified phi-stability of the span of the given columns.  rank
        is their rank when the caller has certified it already (a kernel
        basis, or the pivot columns of an elimination): one elimination
        instead of two."""
        if not basis_cols or not basis_cols[0]:
            return True
        img = self.apply_phi(basis_cols)
        return la.subspace_leq(img, basis_cols, rank)

    def submodule(self, basis_cols) -> "PhiModule":
        """The phi-stable span N of basis_cols, with A sigma(N) = N C.  A
        square N = P is D in another basis: the profile and the split stored
        on D pass on, as P^-1 A sigma(P) keeps slopes, stability, independence
        and bounds slope * dim; the components P^-1 C_i come from the one
        elimination [P | A sigma(P) | C_1 ... C_k] that gives C, whose n pivots
        in P's columns certify P invertible (one slope: the identity)."""
        n, comps, img = self.n, self._isoclinic, self.apply_phi(basis_cols)
        if comps is None or len(basis_cols[0]) != n:
            return PhiModule(self.field, la.solve_right(basis_cols, img),
                             validate=False)
        more = comps if len(comps) > 1 else []
        ech, pivots, _ = la.certified_row_reduce(
            [P + a + [x for _, c in more for x in c[i]]
             for i, (P, a) in enumerate(zip(basis_cols, img))])
        if pivots[:n] != list(range(n)):
            raise ValidationError("basis not certified invertible")
        sub = PhiModule(self.field, [row[n:2 * n] for row in ech],
                        validate=False)
        split, start = [], 2 * n
        for slope, cols in more:
            end = start + len(cols[0])
            split.append((slope, [row[start:end] for row in ech]))
            start = end
        sub._slopes = self._slopes
        sub._isoclinic = split or [(comps[0][0], la.identity(self.field, n))]
        return sub


def standard_symplectic_gram(field, g: int):
    """Block diagonal sum of g copies of [[0,-1],[1,0]]."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for k in range(g):
        rows[2 * k][2 * k + 1] = -1
        rows[2 * k + 1][2 * k] = 1
    return la.from_rows_of_fractions(field, rows)


class PolarizedPhiModule:
    """phi-module with an alternating invertible Gram matrix J satisfying
    A^T J A = eps * p * sigma(J)."""

    def __init__(self, module: PhiModule, gram):
        self.module = module
        self.J = gram
        self.eps = None
        self._validate()

    def _validate(self):
        D = self.module
        F = D.field
        SymplecticSpace(F, self.J)
        thr = la.relation_threshold(F)
        At, JA = la.transpose(D.A), la.mat_mul(self.J, D.A)
        p_sigma_J = la.mat_scalar(F.scalar(F.p), la.mat_frobenius(self.J))
        for eps in (1, -1):
            target = p_sigma_J if eps == 1 else la.mat_neg(p_sigma_J)
            if la.mat_mul_sub_is_zero(At, JA, target, thr):
                self.eps = eps
                return
        raise ValidationError("Frobenius is not compatible with the pairing "
                              "(A^T J A != +-p sigma(J))")

    @property
    def g(self):
        return self.module.n // 2


class SemiAbelianPhiModule:
    """Extension 0 -> T -> D -> D_B -> 0 of an abelian polarized module by a
    pure slope-1 part T = span(toric_cols); D_B and gram_B live on the
    standard columns S that complete T to a basis [T | S] of D."""

    def __init__(self, module: PhiModule, toric_cols, gram_B,
                 validate: bool = True):
        self.module = module
        self.toric_cols = toric_cols
        self.t_dim = la.mat_dims(toric_cols)[1]
        self.B_dim = module.n - self.t_dim
        self.gram_B = gram_B
        self._toric = None  # (T phi-stable, its slope or None): toric_slope
        self._build_section()
        if validate:
            self._validate()

    def _build_section(self):
        """S and full_inv = [T | S]^-1 from the reduced echelon form of
        [T | I_n]; exact identities, and D_B = D, with t = 0."""
        D = self.module
        t, ident = self.t_dim, la.identity(D.field, D.n)
        self.section_cols = self.full_inv = ident
        self._quotient = D if t == 0 else None
        if t:
            ech, pivots, _ = la.certified_row_reduce(
                la.hstack(self.toric_cols, ident))
            if pivots[:t] != list(range(t)):
                raise ValidationError("could not complete toric basis")
            self.section_cols = la.columns(ident, [c - t for c in pivots[t:]])
            self.full_inv = [row[t:] for row in ech]

    def _validate(self):
        if self.t_dim and self.toric_slope() != 1:
            raise ValidationError("toric part is not phi-stable"
                                  if not self._toric[0]
                                  else "toric part is not pure of slope 1")
        if self.B_dim:
            PolarizedPhiModule(self.quotient_module(), self.gram_B)

    def toric_slope(self):
        """T's slope when T is phi-stable and isoclinic, else None: certified
        from T's own Newton polygon, never from how the module was built;
        the solve of T C = A sigma(T) is inconsistent when T is not stable."""
        if self._toric is None:
            from .slopes import newton_slopes
            try:
                T = self.module.submodule(self.toric_cols)
            except ValidationError:
                self._toric = (False, None)
            else:
                pairs = newton_slopes(T).pairs
                self._toric = (True, pairs[0][0] if len(pairs) == 1 else None)
        return self._toric[1]

    def quotient_module(self) -> PhiModule:
        """D_B, with the Frobenius induced in the section basis; built once."""
        if self._quotient is None:
            D = self.module
            coords = la.mat_mul(self.full_inv, D.apply_phi(self.section_cols))
            self._quotient = PhiModule(D.field, coords[self.t_dim:],
                                       validate=False)
        return self._quotient
