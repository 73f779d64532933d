"""Constructors for the shipped group fixtures.

Covers every group of order <= 16 (42 of them), the quaternion wreath groups
and their 2-Sylows, and a spread of p-groups of order <= 64 for the counting
identity suite.  Elements are symbolic tuples during closure; names are
generated from generator words where cheap, plain indices otherwise.
"""

from __future__ import annotations

from .core import FiniteGroup


# -- generic constructions -------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup([f"g{a}" for a in range(n)], table)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    names = []
    table = []
    n1, n2 = g1.n, g2.n
    for a1 in range(n1):
        for a2 in range(n2):
            names.append(f"({g1.names[a1]},{g2.names[a2]})")
    for a1 in range(n1):
        for a2 in range(n2):
            row = []
            for b1 in range(n1):
                for b2 in range(n2):
                    row.append(g1.table[a1][b1] * n2 + g2.table[a2][b2])
            table.append(row)
    return FiniteGroup(names, table)


def semidirect_cyclic(m: int, n: int, k: int) -> FiniteGroup:
    """C_m x| C_n with the generator of C_n acting by x -> x^k (k^n = 1 mod m).

    Elements (a, b) with (a,b)(a',b') = (a + k^b a', b + b')."""
    if pow(k, n, m) != 1 % m:
        raise ValueError("action does not have order dividing n")
    elems = [(a, b) for b in range(n) for a in range(m)]
    index = {x: i for i, x in enumerate(elems)}
    table = []
    for (a, b) in elems:
        row = []
        for (a2, b2) in elems:
            row.append(index[((a + pow(k, b, m) * a2) % m, (b + b2) % n)])
        table.append(row)
    return FiniteGroup([f"a{a}b{b}" for (a, b) in elems], table)


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n."""
    return semidirect_cyclic(n, 2, n - 1)


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: <a, b | a^{2n} = 1, b^2 = a^n,
    b a b^{-1} = a^{-1}>.  Q8 is n = 2, Q16 is n = 4."""
    m = 2 * n
    elems = [(a, e) for e in range(2) for a in range(m)]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        a, e = x
        a2, e2 = y
        if e == 0:
            return ((a + a2) % m, e2)
        # b a = a^{-1} b
        if e2 == 0:
            return ((a - a2) % m, 1)
        return ((a - a2 + n) % m, 0)  # b a2^? b = a^{-a2} b^2 = a^{n - a2}

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup([f"a{a}" + ("b" if e else "") for (a, e) in elems], table)


def quaternion() -> FiniteGroup:
    """Q8 with names 1, -1, i, -i, j, -j, k, -k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # quaternion multiplication on (sign, axis) with axes 1, i, j, k
    def code(name):
        s = -1 if name.startswith("-") else 1
        return (s, name.lstrip("-"))

    basis = {"1": 0, "i": 1, "j": 2, "k": 3}
    mul_table = {
        (1, 2): (1, "k"), (2, 1): (-1, "k"),
        (2, 3): (1, "i"), (3, 2): (-1, "i"),
        (3, 1): (1, "j"), (1, 3): (-1, "j"),
    }

    def q_mul(x, y):
        sx, ax = code(x)
        sy, ay = code(y)
        bx, by = basis[ax], basis[ay]
        if bx == 0:
            s0, a = 1, ay
        elif by == 0:
            s0, a = 1, ax
        elif bx == by:
            s0, a = -1, "1"
        else:
            s0, a = mul_table[(bx, by)]
        s = sx * sy * s0
        return ("" if s == 1 else "-") + a

    table = [[names.index(q_mul(x, y)) for y in names] for x in names]
    return FiniteGroup(names, table)


def central_product_d8_c4() -> FiniteGroup:
    """The central product D8 o C4 of order 16 (the Pauli group on 1 qubit),
    realized as signed Pauli-like symbols via generators of order 4."""
    # generators X, Z of order 2 and the central i of order 4 in D8 x C4
    d8 = dihedral(4)
    c4 = cyclic(4)
    prod = direct_product(d8, c4)
    # quotient by the diagonal central C2: identify (r^2, 0) ~ (0, 2)
    r2 = d8.names.index("a2b0")
    z2 = 2  # c4 element of order 2
    n1, n2 = d8.n, c4.n
    idx = lambda a, b: a * n2 + b
    # cosets of the central subgroup {(e,0), (r2, 2)}
    center = {idx(d8.identity, 0), idx(r2, z2)}
    return _quotient_by_central(prod, center)


def _quotient_by_central(g: FiniteGroup, center: set) -> FiniteGroup:
    cosets = []
    coset_of = [None] * g.n
    for x in range(g.n):
        if coset_of[x] is not None:
            continue
        cs = tuple(sorted(g.table[x][z] for z in center))
        for y in cs:
            coset_of[y] = len(cosets)
        cosets.append(cs)
    table = [[coset_of[g.table[cs[0]][ds[0]]] for ds in cosets] for cs in cosets]
    return FiniteGroup([f"c{i}" for i in range(len(cosets))], table)


def c4_semidirect_c4() -> FiniteGroup:
    """C4 x| C4 with inversion action."""
    return semidirect_cyclic(4, 4, 3)


def c2c2_semidirect_c4() -> FiniteGroup:
    """(C2 x C2) x| C4 with the C4 generator swapping the two factors."""
    elems = [(a, b, c) for c in range(4) for b in range(2) for a in range(2)]
    index = {x: i for i, x in enumerate(elems)}

    def act(c, a, b):
        return (b, a) if c % 2 else (a, b)

    def mul(x, y):
        a, b, c = x
        a2, b2, c2 = y
        a3, b3 = act(c, a2, b2)
        return ((a + a3) % 2, (b + b3) % 2, (c + c2) % 4)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup([f"x{a}y{b}c{c}" for (a, b, c) in elems], table)


def modular16() -> FiniteGroup:
    """M4(2): <a, b | a^8, b^2, b a b = a^5>."""
    return semidirect_cyclic(8, 2, 5)


def semidihedral16() -> FiniteGroup:
    return semidirect_cyclic(8, 2, 3)


def heisenberg_p(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p (order p^3, exponent p for
    odd p)."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        a, b, c = x
        a2, b2, c2 = y
        return ((a + a2) % p, (b + b2) % p, (c + c2 + a * b2) % p)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup([f"h{i}" for i in range(len(elems))], table)


# -- the classified list up to order 16 -------------------------------------------


def all_groups_up_to_16():
    """[(label, FiniteGroup)] for every isomorphism class of order <= 16."""
    out = []

    def add(label, g):
        out.append((label, g))

    add("C1", cyclic(1))
    add("C2", cyclic(2))
    add("C3", cyclic(3))
    add("C4", cyclic(4))
    add("C2xC2", direct_product(cyclic(2), cyclic(2)))
    add("C5", cyclic(5))
    add("C6", cyclic(6))
    add("S3", dihedral(3))
    add("C7", cyclic(7))
    add("C8", cyclic(8))
    add("C4xC2", direct_product(cyclic(4), cyclic(2)))
    add("C2^3", direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)))
    add("D4", dihedral(4))
    add("Q8", quaternion())
    add("C9", cyclic(9))
    add("C3xC3", direct_product(cyclic(3), cyclic(3)))
    add("C10", cyclic(10))
    add("D5", dihedral(5))
    add("C11", cyclic(11))
    add("C12", cyclic(12))
    add("C6xC2", direct_product(cyclic(6), cyclic(2)))
    add("D6", dihedral(6))
    add("A4", alternating4())
    add("Dic3", dicyclic(3))
    add("C13", cyclic(13))
    add("C14", cyclic(14))
    add("D7", dihedral(7))
    add("C15", cyclic(15))
    # order 16
    add("C16", cyclic(16))
    add("C4xC4", direct_product(cyclic(4), cyclic(4)))
    add("C8xC2", direct_product(cyclic(8), cyclic(2)))
    add("C4xC2xC2", direct_product(direct_product(cyclic(4), cyclic(2)), cyclic(2)))
    add("C2^4", direct_product(direct_product(cyclic(2), cyclic(2)),
                               direct_product(cyclic(2), cyclic(2))))
    add("D8", dihedral(8))
    add("SD16", semidihedral16())
    add("M16", modular16())
    add("Q16", dicyclic(4))
    add("D4xC2", direct_product(dihedral(4), cyclic(2)))
    add("Q8xC2", direct_product(quaternion(), cyclic(2)))
    add("PauliD4oC4", central_product_d8_c4())
    add("C4:C4", c4_semidirect_c4())
    add("C2^2:C4", c2c2_semidirect_c4())
    return out


def alternating4() -> FiniteGroup:
    perms = []
    import itertools
    for p in itertools.permutations(range(4)):
        # parity
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        if inv % 2 == 0:
            perms.append(p)

    def mul(a, b):
        return tuple(a[b[i]] for i in range(4))

    index = {p: i for i, p in enumerate(perms)}
    table = [[index[mul(a, b)] for b in perms] for a in perms]
    return FiniteGroup([str(p) for p in perms], table)


# -- quaternion wreath groups ------------------------------------------------------


def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def wreath_q8_sylow(g: int) -> FiniteGroup:
    """A 2-Sylow of Q8 wr S_g as a symbolic group: Q8^g extended by a 2-Sylow
    of S_g (trivial, <(12)>, <(12)> for g = 1, 2, 3)."""
    q8 = quaternion()
    idq = q8.identity
    if g == 1:
        return q8
    swap = tuple([1, 0] + list(range(2, g)))
    ident = tuple(range(g))

    def mul(x, y):
        qx, px = x[:-1], x[-1]
        qy, py = y[:-1], y[-1]
        # (qx; px)(qy; py) = (qx * px(qy); px py), acting on positions
        mixed = tuple(q8.table[qx[i]][qy[px.index(i)]] for i in range(g))
        return mixed + (_perm_mul(px, py),)

    gens = []
    for pos in range(g):
        for gen_name in ("i", "j"):
            q = [idq] * g
            q[pos] = q8.names.index(gen_name)
            gens.append(tuple(q) + (ident,))
    gens.append(tuple([idq] * g) + (swap,))

    def name_of(x):
        qpart = ".".join(q8.names[i] for i in x[:-1])
        return f"[{qpart};{x[-1]}]"

    return FiniteGroup.from_generators(gens, mul, name_of, cap=3000)


# -- p-group fixture list for the census -------------------------------------------


def census_p_groups():
    """[(label, FiniteGroup)]: the shipped p-groups of order <= 64."""
    out = [(lbl, g) for lbl, g in all_groups_up_to_16()
           if g.is_p_group()[1] and g.n > 1]
    out += [
        ("C32", cyclic(32)),
        ("C2^5", direct_product(direct_product(cyclic(2), cyclic(2)),
                                direct_product(direct_product(cyclic(2), cyclic(2)),
                                               cyclic(2)))),
        ("D16x", dihedral(16)),
        ("Q32", dicyclic(8)),
        ("SD32", semidirect_cyclic(16, 2, 7)),
        ("M32", semidirect_cyclic(16, 2, 9)),
        ("Q8xC4", direct_product(quaternion(), cyclic(4))),
        ("D4xC2^2", direct_product(dihedral(4),
                                   direct_product(cyclic(2), cyclic(2)))),
        ("C64", cyclic(64)),
        ("Q64", dicyclic(16)),
        ("D32x", dihedral(32)),
        ("Q8xQ8", direct_product(quaternion(), quaternion())),
        ("C27", cyclic(27)),
        ("C9xC3", direct_product(cyclic(9), cyclic(3))),
        ("C3^3", direct_product(direct_product(cyclic(3), cyclic(3)), cyclic(3))),
        ("Heis3", heisenberg_p(3)),
        ("C9:C3", semidirect_cyclic(9, 3, 4)),
        ("C25", cyclic(25)),
        ("C5xC5", direct_product(cyclic(5), cyclic(5))),
        ("C49", cyclic(49)),
        ("C7xC7", direct_product(cyclic(7), cyclic(7))),
    ]
    return out
