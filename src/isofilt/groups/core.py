"""Finite groups as multiplication tables, with representation data.

Groups are index-based: elements 0..n-1 with a Cayley table.  Construction
goes through closure of generator sets under an abstract multiplication, so
permutation groups, matrix groups and symbolic wreath elements all share one
code path.  A GroupRepresentation attaches matrices over a tower level and
validates the action axioms (respects the table, phi-commutes, preserves a
pairing or a toric subspace, faithful when declared).  A representation's
``mats`` are never reassigned after construction, so ``groups.isotypic`` may
keep its isotypic decomposition on it, in ``_isotypic``.

Every relation of an action except faithfulness is decided on the rows of a
generating set S (``FiniteGroup.generators``), not on every element.  The
relations are rho(e) = I and rho(s) rho(b) = rho(sb) for s in S and every b;
then, writing g = s_1...s_k, rho(gb) = rho(s_1)...rho(s_k) rho(b) =
rho(g) rho(b).  Phi-commutation, the pairing, a stable toric part and
scalar images are closed under products, so S suffices for them too.  A
relation certified at ``linalg.relation_threshold`` keeps that threshold
along a word only when the matrices multiplied are integral, so
``relation_rows`` gives every element when some rho(s), or the Frobenius or
Gram matrix a relation multiplies by, has an entry of negative valuation:
the same checks on a longer row list.
"""

from __future__ import annotations

from math import gcd

from ..errors import ValidationError
from ..padic import linalg as la
from ..padic import scalar as sc


class FiniteGroup:
    def __init__(self, names, table):
        self.names = list(names)
        self.n = len(names)
        self.table = [list(r) for r in table]
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._classes = None
        self._orders = None
        self._generators = None
        self.character_table = None  # set by groups.isotypic.get_character_table

    @classmethod
    def from_generators(cls, gens, mul, name_of=str, cap: int = 100000):
        """Closure of hashable generator objects under ``mul``."""
        if not gens:
            raise ValidationError("need at least one generator")
        elems = list(gens)
        index = {g: i for i, g in enumerate(elems)}
        frontier = list(elems)
        while frontier:
            new = []
            for a in frontier:
                for b in list(elems):
                    for prod in (mul(a, b), mul(b, a)):
                        if prod not in index:
                            index[prod] = len(elems)
                            elems.append(prod)
                            new.append(prod)
                            if len(elems) > cap:
                                raise ValidationError("closure exceeded cap")
            frontier = new
        table = [[index[mul(a, b)] for b in elems] for a in elems]
        g = cls([name_of(x) for x in elems], table)
        g.raw_elements = elems
        return g

    def _find_identity(self):
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.n)):
                return e
        raise ValidationError("no identity element")

    def _find_inverses(self):
        inv = [None] * self.n
        e = self.identity
        for x in range(self.n):
            for y in range(self.n):
                if self.table[x][y] == e:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValidationError("element without inverse")
        return inv

    def power(self, x, k):
        if k < 0:
            x, k = self.inverse[x], -k
        y = self.identity
        for _ in range(k):
            y = self.table[y][x]
        return y

    def element_orders(self):
        if self._orders is None:
            out = []
            for x in range(self.n):
                k = 1
                y = x
                while y != self.identity:
                    y = self.table[y][x]
                    k += 1
                    if k > self.n:
                        raise ValidationError("not a group table")
                out.append(k)
            self._orders = out
        return self._orders

    def generators(self):
        """A minimal generating set: greedy in element-index order (x joins
        when the earlier members miss it), then, in that order, each member
        the remaining ones generate is dropped.  A group built by
        ``from_generators`` lists its given generators first, so the set is
        a subset of them; the trivial group has the empty set."""
        if self._generators is None:
            gens, reached = [], {self.identity}
            for x in range(self.n):
                if x not in reached:
                    gens.append(x)
                    reached = self._generated(gens)
            for x in list(gens):
                if x in self._generated([s for s in gens if s != x]):
                    gens.remove(x)
            self._generators = gens
        return self._generators

    def _generated(self, gens):
        """The subgroup generated by gens, as a set of indices."""
        reached, frontier = {self.identity}, [self.identity]
        while frontier:
            y = frontier.pop()
            for s in gens:
                z = self.table[y][s]
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
        return reached

    def exponent(self):
        e = 1
        for k in self.element_orders():
            e = e * k // gcd(e, k)
        return e

    def conjugacy_classes(self):
        """(classes as sorted tuples, class_of index array)."""
        if self._classes is None:
            seen = [False] * self.n
            classes = []
            class_of = [None] * self.n
            for x in range(self.n):
                if seen[x]:
                    continue
                orbit = set()
                for g in range(self.n):
                    y = self.table[self.table[g][x]][self.inverse[g]]
                    orbit.add(y)
                orbit = tuple(sorted(orbit))
                for y in orbit:
                    seen[y] = True
                    class_of[y] = len(classes)
                classes.append(orbit)
            self._classes = (classes, class_of)
        return self._classes

    def is_p_group(self):
        n = self.n
        for p in range(2, n + 1):
            if n % p == 0:
                while n % p == 0:
                    n //= p
                return (p, n == 1)
        return (None, self.n == 1)


class GroupRepresentation:
    """A finite group acting by matrices over one tower level."""

    def __init__(self, group: FiniteGroup, field, mats, faithful: bool = True):
        self.group = group
        self.field = field
        self.mats = mats  # list indexed like group elements
        self.dim = len(mats[group.identity])
        self.faithful = faithful
        self._isotypic = None  # set by isotypic_decomposition, or for a piece

    @classmethod
    def from_named(cls, group, field, named_mats, faithful=True):
        mats = [None] * group.n
        for name, m in named_mats.items():
            mats[group.names.index(name)] = m
        if any(m is None for m in mats):
            raise ValidationError("representation misses elements")
        return cls(group, field, mats, faithful)

    @classmethod
    def from_generator_matrices(cls, group, field, gen_mats: dict,
                                faithful=True):
        """Extend matrices given on generator *names* along the table by a
        breadth-first product sweep."""
        mats = [None] * group.n
        mats[group.identity] = la.identity(field, _dim_of(gen_mats))
        for name, m in gen_mats.items():
            mats[group.names.index(name)] = m
        changed = True
        while changed:
            changed = False
            for a in range(group.n):
                if mats[a] is None:
                    continue
                for b in range(group.n):
                    if mats[b] is None:
                        continue
                    c = group.table[a][b]
                    if mats[c] is None:
                        mats[c] = la.mat_mul(mats[a], mats[b])
                        changed = True
        if any(m is None for m in mats):
            raise ValidationError("generator matrices do not reach all elements")
        return cls(group, field, mats, faithful)

    # -- validation ----------------------------------------------------------

    def relation_rows(self, *others):
        """The elements whose rows decide a relation of the action: the
        generating set S when every rho(s) and every matrix of others (None
        entries skipped) is integral, every element otherwise (see the
        module docstring)."""
        S = self.group.generators()
        mats = [self.mats[s] for s in S] + [m for m in others if m is not None]
        if all(_integral(m) for m in mats):
            return S
        return range(self.group.n)

    def validate(self, phi_module=None, gram=None, toric_cols=None):
        """Check rho(e) = I, the table, faithfulness when declared, and
        compatibility with the given Frobenius, pairing and toric part.

        With s in relation_rows(A, gram), the table is checked at every
        (s, b) and the Frobenius, pairing and toric part at every s;
        faithfulness looks at every element.  toric_cols must be certified
        independent, as a SemiAbelianPhiModule's are (pivots of [T | I_n]),
        so their rank is their number of columns."""
        thr, one = la.relation_threshold(self.field), self.field.one()
        G = self.group
        A = phi_module.A if phi_module is not None else None
        rows = self.relation_rows(A, gram)
        if not _is_homothety(self.mats[G.identity], one, thr):
            raise ValidationError(
                f"identity {G.names[G.identity]} does not act as the identity")
        for a in rows:
            for b in range(G.n):
                if not la.mat_mul_sub_is_zero(self.mats[a], self.mats[b],
                                              self.mats[G.table[a][b]], thr):
                    raise ValidationError(
                        f"representation breaks the table at "
                        f"({G.names[a]}, {G.names[b]})")
        if self.faithful:
            for a in range(G.n):
                if a != G.identity and _is_homothety(self.mats[a], one, thr):
                    raise ValidationError("declared faithful but kernel is nontrivial")
        if A is not None:
            for a in rows:
                rhs = la.mat_mul(A, la.mat_frobenius(self.mats[a]))
                if not la.mat_mul_sub_is_zero(self.mats[a], A, rhs, thr):
                    raise ValidationError(
                        f"element {G.names[a]} does not phi-commute")
        if gram is not None:
            for a in rows:
                m = self.mats[a]
                if not la.mat_mul_sub_is_zero(la.transpose(m),
                                              la.mat_mul(gram, m), gram, thr):
                    raise ValidationError(
                        f"element {G.names[a]} is not compatible with the pairing")
        if rows and toric_cols and toric_cols[0]:
            rank_t = len(toric_cols[0])
            for a in rows:
                img = la.mat_mul(self.mats[a], toric_cols)
                if not la.subspace_leq(img, toric_cols, rank_t):
                    raise ValidationError(
                        f"element {G.names[a]} does not preserve the toric part")
        return True

    def is_scalar_image(self) -> bool:
        """True when every element acts by a scalar, decided on the rows of
        relation_rows() (see the module docstring)."""
        thr = la.relation_threshold(self.field)
        return all(_is_homothety(self.mats[a], self.mats[a][0][0], thr)
                   for a in self.relation_rows())


def _is_homothety(m, c, thr):
    """m - c I vanishes to thr: one Scalar difference per diagonal entry."""
    return all(sc.sc_certified_zero(sc.sc_sub(x, c) if i == j else x, thr)
               for i, row in enumerate(m) for j, x in enumerate(row))


def _integral(m):
    """No entry of m has negative valuation (an inexact zero counts by its
    bound)."""
    return all(x.kind == sc.ZERO or (x.w if x.kind == sc.REG else x.zw) >= 0
               for row in m for x in row)


def _dim_of(gen_mats):
    for m in gen_mats.values():
        return len(m)
    raise ValidationError("no generator matrices")
