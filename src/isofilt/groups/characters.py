"""Exact complex character tables by the modular (Dixon) method.

Class-sum structure constants are diagonalized over F_l for a prime
l = 1 mod exponent(G), and the character values are then Fourier-lifted to
exact eigenvalue-multiplicity vectors: for each irreducible chi and class c
the vector m[j] = multiplicity of zeta_e^j among the eigenvalues of the
representing matrix at c (with respect to one fixed identification of the
order-e subgroup of F_l* with the complex e-th roots).  Those multiplicity
vectors are the canonical form used everywhere downstream: equality, Galois
twist (precompose with a power map), duality (inverse classes), perturbation
witnesses, and the cyclotomic evaluation of isotypic projectors all operate
on them with exact integer arithmetic.
"""

from __future__ import annotations

from math import gcd, isqrt

from ..bounds import is_prime
from ..errors import ValidationError, InternalContradictionError
from .core import FiniteGroup


class CharacterTable:
    def __init__(self, group: FiniteGroup):
        self.group = group
        self.classes, self.class_of = group.conjugacy_classes()
        self.r = len(self.classes)
        self.reps = [c[0] for c in self.classes]
        self.class_sizes = [len(c) for c in self.classes]
        self.e = group.exponent()
        self.ell, self.z = self._choose_prime()
        self._power_classes = {}
        self._build()

    # -- modular setup ---------------------------------------------------------

    def _choose_prime(self):
        n = self.group.n
        e = self.e
        lo = max(2 * isqrt(n) + 2, e + 2)
        ell = (lo // e) * e + 1
        while True:
            if ell > lo and is_prime(ell) and n % ell != 0:
                break
            ell += e
        # element of order e in F_ell
        for a in range(2, ell):
            z = pow(a, (ell - 1) // e, ell)
            if _order_mod(z, ell) == e:
                return ell, z
        raise InternalContradictionError("no order-e element mod ell")

    def power_class(self, c: int, t: int) -> int:
        key = (c, t % self.e)
        if key not in self._power_classes:
            g = self.group.power(self.reps[c], t % self.e)
            self._power_classes[key] = self.class_of[g]
        return self._power_classes[key]

    def inverse_class(self, c: int) -> int:
        return self.class_of[self.group.inverse[self.reps[c]]]

    def _structure_constants(self):
        G = self.group
        r = self.r
        a = [[[0] * r for _ in range(r)] for _ in range(r)]  # a[i][j][k]
        for i in range(r):
            for k in range(r):
                gk = self.reps[k]
                for x in self.classes[i]:
                    y = G.table[G.inverse[x]][gk]
                    a[i][self.class_of[y]][k] += 1
        return a

    def _build(self):
        ell = self.ell
        r = self.r
        a = self._structure_constants()
        mats = []
        for i in range(r):
            mats.append([[a[i][j][k] % ell for k in range(r)] for j in range(r)])
        # split the common eigenvectors
        spaces = [[_unit_vec(r, j, ell) for j in range(r)]]
        for i in range(r):
            if all(len(s) == 1 for s in spaces):
                break
            new_spaces = []
            for basis in spaces:
                if len(basis) == 1:
                    new_spaces.append(basis)
                    continue
                new_spaces.extend(_split_by_matrix(basis, mats[i], ell))
            spaces = new_spaces
        if any(len(s) != 1 for s in spaces):
            raise InternalContradictionError("class algebra failed to split")
        # normalize: identity-class coordinate 1
        id_class = self.class_of[self.group.identity]
        omegas = []
        for (w,) in spaces:
            if w[id_class] % ell == 0:
                raise InternalContradictionError("degenerate eigenvector")
            inv = pow(w[id_class], -1, ell)
            omegas.append([x * inv % ell for x in w])
        # degrees and theta values
        n = self.group.n
        self.degrees = []
        self.theta = []  # theta[chi][class] = chi(g_c) mod ell
        for w in omegas:
            s = 0
            for j in range(self.r):
                s += w[j] * w[self.inverse_class(j)] * pow(self.class_sizes[j], -1, ell)
            s %= ell
            if s == 0:
                raise InternalContradictionError("zero norm eigenvector")
            d2 = n * pow(s, -1, ell) % ell
            d = _sqrt_mod(d2, ell)
            d = min(d, ell - d)
            self.degrees.append(d)
            row = []
            for j in range(self.r):
                row.append(d * w[j] * pow(self.class_sizes[j], -1, ell) % ell)
            self.theta.append(row)
        # multiplicity vectors
        e = self.e
        einv = pow(e, -1, ell)
        zpow = [pow(self.z, t, ell) for t in range(e)]
        zinv = pow(self.z, -1, ell)
        self.mult = []  # mult[chi][class] = tuple of e multiplicities
        for chi in range(len(omegas)):
            rows = []
            for c in range(self.r):
                thetas = [self.theta[chi][self.power_class(c, t)] for t in range(e)]
                ms = []
                for j in range(e):
                    acc = 0
                    zj = pow(zinv, j, ell)
                    zt = 1
                    for t in range(e):
                        acc += thetas[t] * zt
                        zt = zt * zj % ell
                    m = acc * einv % ell
                    if m > self.group.n:
                        raise InternalContradictionError(
                            "multiplicity lift out of range")
                    ms.append(m)
                if sum(ms) != self.degrees[chi]:
                    raise InternalContradictionError(
                        "multiplicities do not sum to the degree")
                rows.append(tuple(ms))
            self.mult.append(rows)
        self.k = len(self.degrees)
        if sum(d * d for d in self.degrees) != n:
            raise InternalContradictionError("degree sum check failed")
        self._index = {self._signature(i): i for i in range(self.k)}

    # -- derived data ------------------------------------------------------------

    def _signature(self, chi):
        return tuple(self.mult[chi])

    def twist(self, chi: int, a: int) -> int:
        """Index of the Galois twist sigma_a(chi): chi composed with g -> g^a."""
        if gcd(a, self.e) != 1:
            raise ValidationError("twist exponent must be a unit mod e")
        rows = []
        for c in range(self.r):
            src = self.mult[chi][self.power_class(c, a)]
            rows.append(src)
        return self._index[tuple(rows)]

    def dual(self, chi: int) -> int:
        rows = [self.mult[chi][self.inverse_class(c)] for c in range(self.r)]
        return self._index[tuple(rows)]

    def eigenvalue_multiplicities(self, chi: int, c: int):
        """[(order of the eigenvalue, multiplicity)] per distinct eigenvalue of
        the representing matrix of class c in the irreducible chi."""
        out = []
        for j, m in enumerate(self.mult[chi][c]):
            if m:
                d = self.e // gcd(self.e, j)
                out.append((d, m))
        return out

    def degree(self, chi: int) -> int:
        return self.degrees[chi]

    def orthogonality_check(self) -> bool:
        """First orthogonality over the cyclotomic integers (exact)."""
        e = self.e
        for chi in range(self.k):
            acc = [0] * e
            for c in range(self.r):
                # conj(chi(c)) = chi(c^{-1}): multiply the multiplicity vectors
                prod = _cyc_mul(self.mult[chi][c],
                                self.mult[chi][self.inverse_class(c)], e)
                for j in range(e):
                    acc[j] += self.class_sizes[c] * prod[j]
            val = _cyc_reduce(acc, e)
            want = [0] * len(val)
            want[0] = self.group.n
            if list(val) != want:
                return False
        return True


# -- cyclotomic integer helpers (vectors on powers of zeta_e) ---------------------


def _cyc_mul(a, b, e):
    out = [0] * e
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % e] += x * y
    return out


def _cyc_reduce(vec, e):
    """Reduce a vector on 1, zeta, ..., zeta^{e-1} modulo the e-th cyclotomic
    polynomial, returning phi(e) rational-integer coordinates."""
    from ..padic.hensel import cyclotomic_int
    phi = cyclotomic_int(e)
    deg = len(phi) - 1
    out = list(vec)
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            for j in range(deg + 1):
                out[k - deg + j] -= c * phi[j]
            out[k] = 0
    return tuple(out[:deg])


def _unit_vec(r, j, ell):
    v = [0] * r
    v[j] = 1
    return v


def _split_by_matrix(basis, mat, ell):
    """Split a subspace (list of row vectors) into eigenspaces of mat."""
    k = len(basis)
    r = len(basis[0])
    # represent mat action in the basis: solve basis * mat^T = C * basis
    images = [_vec_mat(v, mat, ell) for v in basis]
    C = _express_in_basis(images, basis, ell)
    # image_i = sum_j C[i][j] basis_j, so coefficient vectors transform by C^T
    Ct = [[C[i][j] for i in range(k)] for j in range(k)]
    evs = _eigenvalues(Ct, ell)
    out = []
    for lam in evs:
        M = [[(Ct[i][j] - (lam if i == j else 0)) % ell for j in range(k)]
             for i in range(k)]
        ker = _kernel_mod(M, ell)
        vecs = []
        for coeffs in ker:
            v = [0] * r
            for c, b in zip(coeffs, basis):
                if c:
                    for t in range(r):
                        v[t] = (v[t] + c * b[t]) % ell
            vecs.append(v)
        if vecs:
            out.append(vecs)
    if sum(len(s) for s in out) != k:
        raise InternalContradictionError("eigen split lost dimensions")
    return out


def _vec_mat(v, mat, ell):
    # matrix times column: out[j] = sum_k mat[j][k] v[k]
    r = len(v)
    out = [0] * r
    for j in range(r):
        row = mat[j]
        acc = 0
        for k in range(r):
            if v[k]:
                acc += row[k] * v[k]
        out[j] = acc % ell
    return out


def _express_in_basis(images, basis, ell):
    k = len(basis)
    r = len(basis[0])
    aug = [list(col) for col in zip(*basis)]  # r x k, columns are basis
    sol = []
    for img in images:
        x = _solve_mod(aug, img, ell)
        sol.append(x)
    # C[i][j]: image_i = sum_j C[i][j] basis_j
    return sol


def _solve_mod(a_cols_rows, b, ell):
    m = len(a_cols_rows)
    k = len(a_cols_rows[0])
    rows = [a_cols_rows[i][:] + [b[i] % ell] for i in range(m)]
    piv = []
    r = 0
    for c in range(k):
        sel = None
        for i in range(r, m):
            if rows[i][c] % ell:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, ell)
        rows[r] = [x * inv % ell for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    x = [0] * k
    for rr, c in enumerate(piv):
        x[c] = rows[rr][k]
    return x


def _kernel_mod(m, ell):
    nr = len(m)
    nc = len(m[0])
    rows = [r[:] for r in m]
    piv = []
    r = 0
    for c in range(nc):
        sel = None
        for i in range(r, nr):
            if rows[i][c] % ell:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, ell)
        rows[r] = [x * inv % ell for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    out = []
    for fc in range(nc):
        if fc in piv:
            continue
        v = [0] * nc
        v[fc] = 1
        for rr, pc in enumerate(piv):
            v[pc] = (-rows[rr][fc]) % ell
        out.append(v)
    return out


def _eigenvalues(C, ell):
    """All eigenvalues in F_ell of a small matrix (charpoly + root scan)."""
    k = len(C)
    cp = _charpoly_mod(C, ell)
    roots = []
    for lam in range(ell):
        acc = 0
        for c in reversed(cp):
            acc = (acc * lam + c) % ell
        if acc == 0:
            roots.append(lam)
    return roots


def _charpoly_mod(C, ell):
    """det(xI - C) mod ell by exact division-free expansion (Berkowitz)."""
    k = len(C)
    poly = [1, (-C[0][0]) % ell]
    for t in range(1, k):
        a = C[t][t]
        row = [C[t][j] for j in range(t)]
        col = [C[i][t] for i in range(t)]
        sub = [[C[i][j] for j in range(t)] for i in range(t)]
        tv = [1, (-a) % ell]
        v = col[:]
        for _ in range(t):
            dot = sum(x * y for x, y in zip(row, v)) % ell
            tv.append((-dot) % ell)
            v = [sum(sub[i][j] * v[j] for j in range(t)) % ell for i in range(t)]
        new = []
        for i in range(t + 2):
            acc = 0
            for j in range(len(tv)):
                if 0 <= i - j <= t:
                    acc += tv[j] * poly[i - j]
            new.append(acc % ell)
        poly = new
    return list(reversed(poly))


def _order_mod(a, ell):
    x = a % ell
    k = 1
    while x != 1:
        x = x * a % ell
        k += 1
        if k > ell:
            raise InternalContradictionError("order ran away")
    return k


def _sqrt_mod(a, ell):
    a %= ell
    for x in range(ell):
        if x * x % ell == a:
            return x
    raise InternalContradictionError("no square root mod ell")
