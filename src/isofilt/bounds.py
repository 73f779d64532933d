"""Exact integer arithmetic for the Minkowski bound and the semistability
degree.

M(n) = prod over primes p of p^r(n,p) with r(n,p) = sum_i floor(n / (p^i (p-1)))
is the lcm of the orders of the finite subgroups of GL_n(Q); the semistability
degree in dimension g is M(2g).  Everything here is big-integer arithmetic
with no word-size assumptions.

The order-p cyclic subgroup census implements the set count
#{x : x^p = e} = (p-1) * #C + 1, which is the reading under which the
counting identity is a theorem (the subgroup generated by the order-p
elements can be strictly larger than the counted set).  It takes a
FiniteGroup and reads element orders, the identity and powers from it, so the
group-table primitives live once, in groups.core.
"""

from __future__ import annotations

from math import gcd

from .errors import ValidationError


# the first 13 primes; 3317044064679887385961981 is the least strong
# pseudoprime to all of them
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Miller-Rabin to the bases in _WITNESSES: exact below
    3317044064679887385961981, a strong probable-prime test above it."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def minkowski_exponent(n: int, p: int) -> int:
    """r(n, p) = sum_{i >= 0} floor(n / (p^i (p-1))); zero once p-1 > n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    r = 0
    q = p - 1
    while q <= n:
        r += n // q
        q *= p
    return r


def minkowski_bound(n: int) -> int:
    """M(n) as an exact integer (M(0) = 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m = 1
    for p in range(2, n + 2):
        if is_prime(p):
            m *= p ** minkowski_exponent(n, p)
    return m


def minkowski_factorization(n: int) -> dict[int, int]:
    return {p: minkowski_exponent(n, p)
            for p in range(2, n + 2)
            if is_prime(p) and minkowski_exponent(n, p) > 0}


class MinkowskiTable:
    def __init__(self, n: int):
        self.n = n
        self.exponents = minkowski_factorization(n)
        self.value = minkowski_bound(n)

    def as_dict(self):
        return {"n": self.n, "M": self.value,
                "factorization": {str(p): r for p, r in self.exponents.items()}}


def divisibility_checks(a: int, b: int, g: int, n: int) -> dict:
    """Certificates for M(a)M(b) | M(a+b) and M(n)^2 M(2g-2n) | M(2g).

    These are theorems; a False anywhere is a bug trap, so the certificates
    carry the exact quotients for inspection.
    """
    if not (0 <= n <= g):
        raise ValueError("need 0 <= n <= g")
    mab = minkowski_bound(a) * minkowski_bound(b)
    msum = minkowski_bound(a + b)
    prod_ok = msum % mab == 0
    mg = minkowski_bound(2 * g)
    mnn = minkowski_bound(n) ** 2 * minkowski_bound(2 * g - 2 * n)
    split_ok = mg % mnn == 0
    return {
        "product": {"holds": prod_ok, "divisor": mab, "multiple": msum,
                    "quotient": msum // mab if prod_ok else None},
        "split": {"holds": split_ok, "divisor": mnn, "multiple": mg,
                  "quotient": mg // mnn if split_ok else None},
    }


def two_part(n: int) -> int:
    """The largest power of 2 dividing n >= 1: its lowest set bit."""
    return n & -n


def wreath_sylow_order(g: int) -> int:
    """2^r(2g,2): the 2-part of the order of the quaternion wreath group
    Q8 wr S_g, cross-checked against the direct order computation."""
    if g < 1:
        raise ValueError("g must be >= 1")
    val = 2 ** minkowski_exponent(2 * g, 2)
    fact = 1
    for k in range(2, g + 1):
        fact *= k
    direct = two_part(8 ** g * fact)
    if direct != val:
        raise ValidationError("wreath 2-part cross-check failed")
    return val


def lcm_degree_formulas(local_data) -> tuple[int, int]:
    """(d_upper, d_dep_upper) from local invariants (t_v, card Phi_v):
    the lcm of the monodromy orders, and the lcm of M(t_v) * card Phi_v.
    The empty list gives (1, 1)."""
    d_upper = 1
    d_dep = 1
    for t_v, card in local_data:
        if t_v < 0 or card < 1:
            raise ValueError("need t_v >= 0 and card >= 1")
        d_upper = d_upper * card // gcd(d_upper, card)
        m = minkowski_bound(t_v) * card
        d_dep = d_dep * m // gcd(d_dep, m)
    return d_upper, d_dep


# -- cyclic subgroup census for p-groups -----------------------------------------


def cyclic_subgroup_census(group) -> dict:
    """Census of order-p cyclic subgroups of a p-group.

    group: a FiniteGroup; its element orders, identity and powers do the
    work.

    Returns {"p", "count", "solutions_of_x_p": #{x : x^p = e},
    "identity_holds"}.
    """
    p, is_pgroup = group.is_p_group()
    if not is_pgroup or p is None:
        raise ValidationError("census requires a nontrivial p-group")
    orders = group.element_orders()
    subs = {frozenset(group.power(x, i) for i in range(p))
            for x in range(group.n) if orders[x] == p}
    count = len(subs)
    sols = sum(1 for x in range(group.n)
               if group.power(x, p) == group.identity)
    identity_holds = (sols == (p - 1) * count + 1) and (count % p != 0)
    return {"p": p, "count": count, "solutions_of_x_p": sols,
            "identity_holds": identity_holds}
