"""Exact complex character tables by the modular (Dixon) method.

Class-sum structure constants are diagonalized over F_l for a prime
l = 1 mod exponent(G), and the character values are then Fourier-lifted to
exact eigenvalue-multiplicity vectors: for each irreducible chi and class c
the vector m[j] = multiplicity of zeta_e^j among the eigenvalues of the
representing matrix at c (with respect to one fixed identification of the
order-e subgroup of F_l* with the complex e-th roots).  Those multiplicity
vectors are the canonical form used everywhere downstream: equality, Galois
twist (precompose with a power map), duality (inverse classes), the
cyclotomic evaluation of isotypic projectors, and the perturbing elements of
a representation (``isotypic.find_perturbateur`` sums them over its
isotypic components) all operate on them with exact integer arithmetic.

An abelian group (its generators commute pairwise) takes a direct route
with the same l and z.  Its characters are linear, kept as exponents j of
chi(x) = z^j, and are extended generator by generator: chi on H extends to
<H, g> by the k roots zeta of zeta^k = chi(g^k) in the order-e subgroup,
where g^k is the first power of g in H.  So theta is z^j mod l, every degree
is 1 and mult[chi][c] is the unit vector at j.  The rows are sorted by theta,
as tuples over the classes in class order, which is the modular method's
order: it splits by the class matrices in class order, eigenvalues
ascending, and class c's eigenvalue on an abelian chi is theta[chi][c].
"""

from __future__ import annotations

from math import gcd, isqrt

from ..bounds import is_prime
from ..errors import ValidationError, InternalContradictionError
from ..padic import linalg as la
from ..padic.fp import fp_order, fp_row_reduce
from ..padic.hensel import sqrt_mod_ppow
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
        if all(group.table[a][b] == group.table[b][a]
               for a in group.generators() for b in group.generators()):
            self._build_abelian()
        else:
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
            if fp_order(z, ell) == e:
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
        spaces = [[[int(i == j) for i in range(r)] for j in range(r)]]
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
        size_inv = [pow(sz, -1, ell) for sz in self.class_sizes]
        self.degrees = []
        self.theta = []  # theta[chi][class] = chi(g_c) mod ell
        for w in omegas:
            s = sum(w[j] * w[self.inverse_class(j)] * size_inv[j]
                    for j in range(self.r)) % ell
            if s == 0:
                raise InternalContradictionError("zero norm eigenvector")
            d2 = n * pow(s, -1, ell) % ell
            d = sqrt_mod_ppow(d2, ell, 1)
            d = min(d, ell - d)
            self.degrees.append(d)
            self.theta.append([d * w[j] * size_inv[j] % ell for j in range(self.r)])
        # multiplicity vectors: m[j] = (1/e) sum_t theta(g^t) z^(-jt)
        e = self.e
        einv = pow(e, -1, ell)
        zpow = [pow(self.z, t, ell) for t in range(e)]
        self.mult = []  # mult[chi][class] = tuple of e multiplicities
        for chi in range(len(omegas)):
            rows = []
            for c in range(self.r):
                thetas = [self.theta[chi][self.power_class(c, t)] for t in range(e)]
                ms = tuple(sum(th * zpow[-j * t % e] for t, th in enumerate(thetas))
                           * einv % ell for j in range(e))
                if max(ms) > n:
                    raise InternalContradictionError(
                        "multiplicity lift out of range")
                if sum(ms) != self.degrees[chi]:
                    raise InternalContradictionError(
                        "multiplicities do not sum to the degree")
                rows.append(ms)
            self.mult.append(rows)
        self.k = len(self.degrees)
        if sum(d * d for d in self.degrees) != n:
            raise InternalContradictionError("degree sum check failed")
        self._index = {self._signature(i): i for i in range(self.k)}

    def _build_abelian(self):
        """The abelian route of the module docstring."""
        G, e = self.group, self.e
        elems, chars = [G.identity], [[0]]  # chars[chi][i] is the exponent at elems[i]
        for g in G.generators():
            members = set(elems)
            powers = [G.identity, g]  # g^0 .. g^k, g^k the first in H
            while powers[-1] not in members:
                powers.append(G.table[powers[-1]][g])
            k = len(powers) - 1
            at = elems.index(powers[-1])
            elems = [G.table[x][h] for x in powers[:-1] for h in elems]
            # chi(g)^k = chi(g^k) = z^a: chi(g) = z^b with kb = a mod e;
            # k divides a since chi(g^k)^(ord(g)/k) = 1 and ord(g) | e
            chars = [[(b * i + v) % e for i in range(k) for v in vals]
                     for vals in chars
                     for b in range(vals[at] // k, e, e // k)]
        order = sorted(range(self.r), key=lambda i: self.class_of[elems[i]])
        zpow = [pow(self.z, j, self.ell) for j in range(e)]
        unit = [tuple(int(i == j) for i in range(e)) for j in range(e)]
        rows = sorted(([zpow[vals[i]] for i in order], [unit[vals[i]] for i in order])
                      for vals in chars)
        self.theta = [th for th, _ in rows]
        self.mult = [m for _, m in rows]
        self.k = len(rows)
        self.degrees = [1] * self.k
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


def _split_by_matrix(basis, mat, ell):
    """Split a subspace (list of row vectors) into eigenspaces of mat."""
    k = len(basis)
    r = len(basis[0])
    # one elimination of [basis^T | images^T], image_i = mat * basis_i as a
    # column, expresses every image in the basis: image_i = sum_j C[i][j]
    # basis_j, and row j of the reduced block holds C[.][j], so the block is
    # C^T, the matrix by which coefficient vectors transform
    aug = [[b[t] for b in basis] + [sum(x * y for x, y in zip(mat[t], b)) % ell
                                    for b in basis]
           for t in range(r)]
    rows, piv = fp_row_reduce(aug, ell, ncols=k)
    if len(piv) != k:
        raise InternalContradictionError("eigenspace basis is not independent")
    Ct = [row[k:] for row in rows[:k]]
    out = []
    for lam in _eigenvalues(Ct, ell):
        M = [[(Ct[i][j] - (lam if i == j else 0)) % ell for j in range(k)]
             for i in range(k)]
        rows, piv = fp_row_reduce(M, ell)
        vecs = []
        for fc in range(k):  # one kernel vector per free column
            if fc in piv:
                continue
            coeffs = [0] * k
            coeffs[fc] = 1
            for rr, pc in enumerate(piv):
                coeffs[pc] = -rows[rr][fc] % ell
            vecs.append([sum(c * b[t] for c, b in zip(coeffs, basis)) % ell
                         for t in range(r)])
        if vecs:
            out.append(vecs)
    if sum(len(s) for s in out) != k:
        raise InternalContradictionError("eigen split lost dimensions")
    return out


def _eigenvalues(C, ell):
    """All eigenvalues in F_ell of a small matrix (charpoly + root scan)."""
    cp = la.berkowitz(C, 1, lambda x: -x % ell,
                      lambda xs, ys: sum(x * y for x, y in zip(xs, ys)) % ell)
    roots = []
    for lam in range(ell):
        acc = 0
        for c in reversed(cp):
            acc = (acc * lam + c) % ell
        if acc == 0:
            roots.append(lam)
    return roots
