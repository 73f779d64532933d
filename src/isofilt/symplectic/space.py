"""Symplectic spaces over a tower level: alternating Gram data, orthogonal
complements, hyperbolic bases, Lagrangian validation."""

from __future__ import annotations

from ..errors import ValidationError, PrecisionError
from ..padic import linalg as la
from ..padic import scalar as sc
from ..padic.scalar import sc_add, sc_mul, sc_neg, sc_sub, sc_div


class SymplecticSpace:
    def __init__(self, field, gram, validate: bool = True):
        self.field = field
        self.J = gram
        self.n = len(gram)
        if validate:
            if self.n % 2:
                raise ValidationError("symplectic dimension must be even")
            if not la.mat_is_zero(la.mat_add(gram, la.transpose(gram)),
                                  la.relation_threshold(field)):
                raise ValidationError("Gram matrix is not alternating")
            la.det_valuation(gram)

    @property
    def g(self):
        return self.n // 2

    def pair(self, x, y):
        """<x, y> for coordinate column lists."""
        acc = None
        for i, xi in enumerate(x):
            if xi.kind == sc.ZERO:
                continue
            row = self.J[i]
            for j, yj in enumerate(y):
                if yj.kind == sc.ZERO:
                    continue
                t = sc_mul(xi, sc_mul(row[j], yj))
                acc = t if acc is None else sc_add(acc, t)
        return acc if acc is not None else sc.sc_zero(self.field)

    def pair_matrix(self, a_cols, b_cols):
        """Gram block: a^T J b."""
        return la.mat_mul(la.transpose(a_cols), la.mat_mul(self.J, b_cols))

    def orthogonal_complement(self, cols):
        """Columns spanning the J-orthogonal complement of span(cols)."""
        if not cols or not cols[0]:
            return la.identity(self.field, self.n)
        m = la.mat_mul(la.transpose(cols), self.J)
        ker = la.kernel_basis(m)
        return [[v[i] for v in ker] for i in range(self.n)]

    def symplectic_basis(self):
        """Columns (e_1..e_g | f_1..f_g) with <e_i, f_j> = delta_ij and all
        other pairings zero, by greedy hyperbolic reduction."""
        field = self.field
        ident = la.identity(field, self.n)
        basis = [[ident[i][j] for i in range(self.n)] for j in range(self.n)]
        es, fs = [], []
        avail = basis
        while avail:
            x = avail[0]
            pick = None
            rest = avail[1:]
            for idx, cand in enumerate(rest):
                val = self.pair(x, cand)
                if val.kind == sc.REG:
                    pick = idx
                    break
            if pick is None:
                raise PrecisionError("degenerate pairing during basis build")
            c = self.pair(x, rest[pick])
            y = [sc_div(v, c) for v in rest[pick]]
            rest = rest[:pick] + rest[pick + 1:]
            new_avail = []
            for v in rest:
                a = self.pair(x, v)
                b = self.pair(y, v)
                # v' = v - a*y' ... adjust to kill pairings with x and y
                v2 = [sc_sub(vi, sc_add(sc_mul(a, yi), sc_neg(sc_mul(b, xi))))
                      for vi, yi, xi in zip(v, y, x)]
                new_avail.append(v2)
            # drop dependent vectors
            cleaned = []
            for v in new_avail:
                if any(vi.kind == sc.REG for vi in v):
                    cleaned.append(v)
            es.append(x)
            fs.append(y)
            avail = self._independent(cleaned)
        cols = es + fs
        return [[cols[k][i] for k in range(len(cols))] for i in range(self.n)]

    def _independent(self, vecs):
        if not vecs:
            return []
        cols = la.normalize_columns([[v[i] for v in vecs] for i in range(self.n)])
        picked = la.normalize_columns(la.column_space_basis(cols))
        k = la.mat_dims(picked)[1]
        return [[picked[i][j] for i in range(self.n)] for j in range(k)]


class LagrangianSubspace:
    """A basis of g columns certified to span a Lagrangian: rank g, and a
    pairing that vanishes to the relation threshold."""

    def __init__(self, space: SymplecticSpace, basis_cols):
        self.space = space
        self.basis_cols = basis_cols
        if la.mat_dims(basis_cols)[1] != space.g:
            raise ValidationError("basis does not have g columns")
        if la.certified_rank(la.transpose(basis_cols)) != space.g:
            raise PrecisionError("Lagrangian basis rank not certified")
        status = la.zero_status(space.pair_matrix(basis_cols, basis_cols),
                                la.relation_threshold(space.field))
        if status == "nonzero":
            raise ValidationError("pairing certified nonzero: not isotropic")
        if status == "shallow":
            raise PrecisionError("isotropy bound too shallow at this precision")

    @property
    def dim(self):
        return la.mat_dims(self.basis_cols)[1]
