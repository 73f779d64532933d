"""Finite quotient rings of p-adic integer rings in towers.

Elements of the ring of integers of L = K_q(u), with K_q/Q_p unramified of
degree f (Teichmuller generator z, monic modulus m of degree f) and L/K_q
totally ramified of degree e (Eisenstein polynomial E in u), are represented
modulo p^N as integer coefficient vectors on the monomial basis

    z^i * u^j,   0 <= i < f,  0 <= j < e,

flattened to a tuple of length f*e with index i*e + j.  Because the z-basis
reduces to a residue-field basis and the u-powers have distinct valuations
mod 1, the pi-adic valuation of an element is the exact minimum of
e*v_p(coefficient) + j over its nonzero coefficients; no cancellation between
basis monomials can occur.  That exactness is what the certified linear
algebra layer relies on.

The unramified level is the special case e = 1, and Q_p itself is f = e = 1.

Every op returns canonical residues in [0, p^N).  A product is a raw (z, u)
convolution in exact integers (z-degree < 2f-1, u-degree < 2e-1) folded back
onto the basis by a fold table built once per ring: for each raw monomial
z^i u^j outside the basis, the sparse canonical residue of z^i u^j (for
rational Eisenstein polynomials, a handful of nonzeros).  One code generator
(``_kernel_code``) emits both steps as straight-line code, one function per
ring layout and operand lengths, compiled once and kept in a bounded cache.
Each element it computes is one raw convolution, folded and reduced mod p^N
once.  mul is its product of two elements; hensel.rp_mul, rp_divmod_monic
and each quadratic step of hensel_lift_pair call its polynomial kernels.
_reduce folds a convolution built elsewhere: shift_up and apply_u_map build
one convolution each.  A product with a constant operand is a scalar
multiple and skips the fold; when f = e = 1, mul is one integer product.
inv_unit is one modular inverse for every constant unit (all of them when
f = e = 1).  Any other unit is inverted once per ring: a Newton iteration,
in the u-direction on residues mod p and then in the p-direction at modulus
p^k for k = 2, 4, 8, ... up to N, whose result the ring remembers for at
most INV_MEMO_CAP units.
"""

from __future__ import annotations

from functools import lru_cache

from .fp import fq_inverse

# the most non-constant units whose inverses one ring remembers; a ring lives
# as long as its level, and descriptors.create keeps one level per
# presentation for the process, so its inverses and kernels serve every load
INV_MEMO_CAP = 1024
# the most compiled kernels kept, over every ring layout and operand length;
# one slope-split cycle compiles a few dozen (tests/test_ring_kernels.py)
KERNEL_CACHE = 256


def int_valuation(n: int, p: int) -> int | None:
    """v_p(n) for an integer, None for n == 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _signed(terms):
    """Source of the signed sum of (sign, expression) terms; "0" if none."""
    if not terms:
        return "0"
    src = "-" + terms[0][1] if terms[0][0] == "-" else terms[0][1]
    return src + "".join(f" {sign} {x}" for sign, x in terms[1:])


class _Source:
    """The straight-line source of one kernel for a ring layout.

    An element is a tuple of source names, one per basis coefficient ("0" and
    "1" stand for those integers); a polynomial is a list of elements.  Every
    element the kernel computes is a signed sum of elements and of products
    of two elements: its raw (z, u) convolution is summed in exact integers,
    folded onto the basis and reduced mod m once, and bound to fresh names.
    """

    def __init__(self, layout, head):
        self.raw, self.nraw, self.fold = layout
        self.dim = len(self.raw)
        self.lines = [head]
        self.count = 0
        # the canonical coefficients that read each raw slot: its own basis
        # coefficient (residue None) and the fold rows (residue d)
        self.uses = [[] for _ in range(self.nraw)]
        for s, r in enumerate(self.raw):
            self.uses[r].append((s, None))
        for k, row in self.fold:
            self.uses[k].extend(row)

    def unpack(self, name, n=None):
        """The polynomial argument ``name`` of n elements, or the element
        argument ``name`` as a polynomial of one when n is None."""
        poly = [tuple(f"{name}{i}_{s}" for s in range(self.dim)) for i in range(n or 1)]
        self.lines.append("    " + (f"{', '.join(poly[0])}, " if n is None else
                                    "".join(f"({', '.join(x)},), " for x in poly))
                          + f"= {name}")
        return poly

    def element(self, terms):
        """A new element: the signed sum of terms (sign, x) and (sign, x, y)
        for x*y, x and y elements."""
        slots = [[] for _ in range(self.nraw)]
        for sign, x, *y in terms:
            for s, xs in enumerate(x):
                if xs == "0":
                    continue
                if not y:
                    slots[self.raw[s]].append((sign, xs))
                    continue
                for t, yt in enumerate(y[0]):
                    if yt != "0":
                        term = xs if yt == "1" else yt if xs == "1" else f"{xs}*{yt}"
                        slots[self.raw[s] + self.raw[t]].append((sign, term))
        self.count += 1
        tag = self.count
        outs = [[] for _ in self.raw]
        for k, slot in enumerate(slots):
            if not slot:
                continue
            src = _signed(slot)
            if len(self.uses[k]) > 1:  # bound once, read by several
                self.lines.append(f"    r{tag}_{k} = {src}")
                src = f"r{tag}_{k}"
            for s, d in self.uses[k]:
                outs[s].append(("+", f"({src})" if d is None else f"({src})*({d})"))
        names = tuple(f"v{tag}_{s}" for s in range(self.dim))
        self.lines += [f"    {v} = ({_signed(o)}) % m" for v, o in zip(names, outs)]
        return names

    def poly(self, terms, n=None):
        """The signed sum of polynomial terms (sign, P) and (sign, P, Q) for
        P*Q, coefficient by coefficient; only the first n when n is given."""
        length = max(len(P) + (len(Q[0]) - 1 if Q else 0) for _, P, *Q in terms)
        out = []
        for k in range(length if n is None else min(n, length)):
            coeff = []
            for sign, P, *Q in terms:
                if Q:
                    (Q,) = Q
                    coeff += [(sign, P[i], Q[k - i]) for i in
                              range(max(0, k - len(Q) + 1), min(k, len(P) - 1) + 1)]
                elif k < len(P):
                    coeff.append((sign, P[k]))
            out.append(self.element(coeff))
        return out

    def divmod(self, a, b):
        """(quotient, remainder) of a by b, whose leading coefficient is
        literally one and never read; each quotient coefficient is reduced
        as it is produced."""
        nb, nq = len(b), len(a) - len(b) + 1
        q = [None] * nq

        def residue(i, ks):
            # a_i minus q_k b_(i-k) over ks, skipping b's leading one
            return self.element([("+", a[i])] + [("-", q[k], b[i - k]) for k in ks
                                                 if 0 <= i - k < nb - 1])

        for k in range(nq - 1, -1, -1):
            q[k] = residue(k + nb - 1, range(k + 1, nq))
        return q, [residue(i, range(nq)) for i in range(nb - 1)]

    def compile(self, result):
        """The kernel, returning the source expression ``result``."""
        self.lines.append(f"    return {result}")
        namespace = {}
        exec("\n".join(self.lines), namespace)
        return namespace["kernel"]


def _tuples(poly):
    """Source of a polynomial as a list of element tuples."""
    return "[" + ", ".join(f"({', '.join(x)},)" for x in poly) + "]"


@lru_cache(maxsize=KERNEL_CACHE)
def _kernel_code(layout, op, la, lb):
    """One compiled kernel of straight-line code for the rings with basis
    layout ``layout`` = (raw, nraw, fold), for operands of la and lb
    elements:

    - ``"mul"``: kernel(x, y, m), the product of two elements (la = lb = 1);
    - ``"poly_mul"``: kernel(a, b, m), the product of polynomials (lists of
      elements, ascending degree); each output coefficient is one raw
      convolution over its coefficient pairs, folded and reduced mod m once;
    - ``"divmod"``: kernel(a, b, m), the quotient and remainder of a by b,
      la >= lb, whose leading coefficient is literally one;
    - ``"hensel_factors"`` and ``"hensel_cofactors"``: the two halves of a
      quadratic Hensel step for factors of la and lb elements (see
      _hensel_step).

    The fold table's residues d enter as d - p^N when d > p^N/2, which
    changes no result mod m (m divides p^N) and keeps the factors small; so
    rings with the same layout share the compiled functions, whatever their
    precision when their residues are small (Q_p, t^e = p)."""
    if op.startswith("hensel"):
        return _hensel_step(layout, op, la, lb)
    src = _Source(layout, "def kernel(a, b, m):")
    if op == "mul":
        a, b = src.unpack("a"), src.unpack("b")
        return src.compile(f"({', '.join(src.element([('+', a[0], b[0])]))},)")
    a, b = src.unpack("a", la), src.unpack("b", lb)
    if op == "poly_mul":
        return src.compile(_tuples(src.poly([("+", a, b)])))
    q, r = src.divmod(a, b)
    return src.compile(f"{_tuples(q)}, {_tuples(r)}")


def _hensel_step(layout, op, lg, lh):
    """One half of a quadratic Hensel step with Bezout update (von zur
    Gathen-Gerhard, Modern Computer Algebra, Algorithm 15.10), for monic g
    and h of lg and lh elements, and s and t of lh - 1 and lg - 1.  From F =
    gh and sg + th = 1 mod pi^k:

    - ``"hensel_factors"``: kernel(F, g, h, s, t, m), the factors g, h with
      F = gh mod pi^2k;
    - ``"hensel_cofactors"``: kernel(g, h, s, t, m) for those new g and h,
      the cofactors s, t with sg + th = 1 mod pi^2k.

    Two kernels, not one, halve the memory the largest compile takes."""
    factors = op == "hensel_factors"
    src = _Source(layout, f"def kernel({'F, ' if factors else ''}g, h, s, t, m):")
    F = src.unpack("F", lg + lh - 1) if factors else None
    g, h = src.unpack("g", lg), src.unpack("h", lh)
    s, t = src.unpack("s", lh - 1), src.unpack("t", lg - 1)
    one = ("1",) + ("0",) * (src.dim - 1)
    if factors:
        # e = F - gh, q h + r = s e, g += t e + q g, h += r
        e = src.poly([("+", F), ("-", g, h)])
        q, r = src.divmod(src.poly([("+", s, e)]), h)
        g = src.poly([("+", g), ("+", t, e), ("+", q, g)], lg - 1) + [one]
        h = src.poly([("+", h), ("+", r)], lh - 1) + [one]
        return src.compile(f"{_tuples(g)}, {_tuples(h)}")
    # b = sg + th - 1, c h + d = s b, s -= d, t -= t b + c g; t is 0 mod
    # pi^2k from degree deg g on, so only lg - 1 terms are kept
    b = src.poly([("+", s, g), ("+", t, h), ("-", [one])])
    c, d = src.divmod(src.poly([("+", s, b)]), h)
    s = src.poly([("+", s), ("-", d)])
    t = src.poly([("+", t), ("-", t, b), ("-", c, g)], lg - 1)
    return src.compile(f"{_tuples(s)}, {_tuples(t)}")


class TowerRing:
    """O_L / p^N with exact big-integer coefficient arithmetic."""

    def __init__(self, p: int, prec: int, modulus: tuple[int, ...],
                 eis: tuple[tuple[int, ...], ...] | None = None):
        # modulus: monic, degree f, coefficients are plain integers mod p^N.
        # eis: monic, degree e, coefficients are K_q-vectors (length f);
        #      None means e = 1 (no ramified step).
        self.p = p
        self.prec = prec
        self.pn = p ** prec
        self.f = len(modulus) - 1
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = tuple(c % self.pn for c in modulus)
        if eis is None:
            self.e = 1
            self.eis = None
        else:
            if any(len(c) != self.f for c in eis):
                raise ValueError("Eisenstein coefficients must be base vectors")
            self.e = len(eis) - 1
            self.eis = tuple(tuple(x % self.pn for x in c) for c in eis)
        self.dim = self.f * self.e
        nu = 2 * self.e - 1
        # raw index of basis monomial s = i*e + j in a convolution; raw
        # indices add under multiplication
        self._raw = tuple(i * nu + j for i in range(self.f) for j in range(self.e))
        self._nraw = (2 * self.f - 1) * nu
        self._fold = self._build_fold()
        self._frob_cols: tuple[tuple[int, ...], ...] | None = None
        self._w0 = None  # p/u as a ring element, lazily built (e > 1 only)
        self._w0_pows = None
        self._c0 = None
        self._c0i = None
        self._inv_memo = {}
        # the compiled kernels' key: the fold table with each residue
        # d > p^N/2 as d - p^N (see _kernel_code)
        pn = self.pn
        self._layout = (self._raw, self._nraw, tuple(
            (k, tuple([(s, d - pn if 2 * d > pn else d) for s, d in row]))
            for k, row in self._fold))
        self._kernels = {}
        self._product = self.kernel("mul", 1, 1) if self.dim > 1 else None

    # -- construction helpers -------------------------------------------------

    def _build_fold(self):
        """The fold table: (raw index, sparse residue) for every raw
        monomial z^i u^j outside the basis (i < 2f-1, j < 2e-1), the residue
        as a tuple of (basis index, coefficient in [0, p^N))."""
        f, e, pn, m = self.f, self.e, self.pn, self.modulus
        memo = {}

        def residue(i, j):
            # z^i u^j mod (m, E, p^N) as a dense list, by memoized long
            # division: each step lowers j, or keeps j and lowers i
            if (i, j) not in memo:
                out = [0] * self.dim
                if i < f and j < e:
                    out[i * e + j] = 1
                else:
                    if i >= f:  # z^f = -(m_0 + m_1 z + ... + m_{f-1} z^(f-1))
                        terms = [(i - f + k, j, m[k]) for k in range(f)]
                    else:  # u^e = -(E_0 + E_1 u + ... + E_{e-1} u^(e-1))
                        terms = [(i + t, j - e + k, c)
                                 for k in range(e) for t, c in enumerate(self.eis[k])]
                    for i2, j2, c in terms:
                        if c:
                            for s, d in enumerate(residue(i2, j2)):
                                out[s] -= c * d
                    out = [c % pn for c in out]
                memo[i, j] = out
            return memo[i, j]

        nu = 2 * e - 1
        table = []
        for i in range(2 * f - 1):
            for j in range(nu):
                if i >= f or j >= e:
                    row = tuple((s, c) for s, c in enumerate(residue(i, j)) if c)
                    if row:
                        table.append((i * nu + j, row))
        return tuple(table)

    # -- basic ops ------------------------------------------------------------

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def one(self) -> tuple[int, ...]:
        v = [0] * self.dim
        v[0] = 1
        return tuple(v)

    def from_int(self, n: int) -> tuple[int, ...]:
        v = [0] * self.dim
        v[0] = n % self.pn
        return tuple(v)

    def gen_z(self) -> tuple[int, ...]:
        v = [0] * self.dim
        if self.f == 1:
            v[0] = 1  # z = 1 when f = 1
        else:
            v[1 * self.e + 0] = 1
        return tuple(v)

    def gen_u(self) -> tuple[int, ...]:
        if self.e == 1:
            # degenerate step: the "uniformizer" is p itself
            return self.from_int(self.p)
        v = [0] * self.dim
        v[1] = 1
        return tuple(v)

    def add(self, x, y):
        pn = self.pn
        return tuple([(a + b) % pn for a, b in zip(x, y)])

    def sub(self, x, y):
        pn = self.pn
        return tuple([(a - b) % pn for a, b in zip(x, y)])

    def neg(self, x):
        pn = self.pn
        return tuple([(-a) % pn for a in x])

    def scalar_mul(self, n: int, x):
        pn = self.pn
        n %= pn
        return tuple([(n * a) % pn for a in x])

    def mul(self, x, y):
        pn = self.pn
        if self.dim == 1:
            return ((x[0] * y[0]) % pn,)
        # a constant operand is a scalar multiple: nothing to fold
        if not any(x[1:]):
            c = x[0]
            return tuple([c * b % pn for b in y])
        if not any(y[1:]):
            c = y[0]
            return tuple([c * a % pn for a in x])
        return self._product(x, y, pn)

    def kernel(self, op, la, lb):
        """The compiled kernel for ``op`` on operands of la and lb elements
        (see _kernel_code for its arguments).  Each ring looks a shape up
        once and keeps at most KERNEL_CACHE shapes, the oldest forgotten
        first."""
        kernels = self._kernels
        fn = kernels.get((op, la, lb))
        if fn is None:
            if len(kernels) >= KERNEL_CACHE:
                del kernels[next(iter(kernels))]
            fn = kernels[op, la, lb] = _kernel_code(self._layout, op, la, lb)
        return fn

    def _reduce(self, acc):
        """Canonical residue of a raw (z, u) convolution: acc[i*(2e-1) + j]
        is the integer coefficient of z^i u^j, i < 2f-1, j < 2e-1."""
        out = [acc[r] for r in self._raw]
        for k, row in self._fold:
            c = acc[k]
            if c:
                for s, d in row:
                    out[s] += c * d
        pn = self.pn
        return tuple([c % pn for c in out])

    def pow(self, x, n: int):
        r = self.one()
        b = x
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    # -- valuation ------------------------------------------------------------

    def val_pi(self, x) -> int | None:
        """Exact pi-adic valuation of the residue class, None if x == 0 mod p^N.

        Exact in the sense that if the true element reduces to x mod p^N and
        val_pi(x) = w < e*N, then the true element has valuation exactly w.
        """
        e, p = self.e, self.p
        best = None
        for i in range(self.f):
            for j in range(e):
                c = x[i * e + j]
                if c:
                    v = int_valuation(c, p)
                    w = e * v + j
                    if best is None or w < best:
                        best = w
        return best

    def shift_up(self, x, w: int):
        """Multiply by pi^w (w >= 0)."""
        if w == 0:
            return x
        a, b = divmod(w, self.e)
        pa = self.p ** a
        if not b:
            return self.scalar_mul(pa, x)
        # one raw convolution with the monomial p^a u^b
        acc = [0] * self._nraw
        for r, c in zip(self._raw, x):
            acc[r + b] = pa * c
        return self._reduce(acc)

    def divide_pi_exact(self, x, w: int):
        """Divide by pi^w an element of valuation >= w.

        Coefficients of the result are meaningful mod p^(N - a - b) only,
        (a, b) = divmod(w, e); the caller tracks the precision loss.
        """
        if w == 0:
            return x
        e = self.e
        if e == 1:
            pk = self.p ** w
            return tuple(c // pk for c in x)
        a, b = divmod(w, e)
        y = x
        if b:
            y = self.mul(y, self.w0_pow(b))
        k = a + b
        if k:
            pk = self.p ** k
            y = tuple(c // pk for c in y)
        return y

    def w0(self):
        """(p / u) as a ring element; valuation e - 1."""
        if self.e == 1:
            raise ValueError("w0 undefined at unramified level")
        if self._w0 is None:
            # From E(u) = 0: u * (u^{e-1} + E_{e-1} u^{e-2} + ... + E_1) = -E_0,
            # so p/u = -p * (u^{e-1} + ... + E_1) / E_0 = -(...) * inv(E_0 / p),
            # E_0/p being a unit since E is Eisenstein.
            pn = self.pn
            e0_div_p = tuple(c // self.p for c in self.eis[0])
            elem0 = tuple(
                e0_div_p[i] if j == 0 else 0
                for i in range(self.f) for j in range(self.e)
            )
            inv0 = self.inv_unit(elem0)
            vec = [0] * self.dim
            for j in range(1, self.e):
                cj = self.eis[j]
                for i in range(self.f):
                    vec[i * self.e + (j - 1)] = (vec[i * self.e + (j - 1)] + cj[i]) % pn
            vec[self.e - 1] = (vec[self.e - 1] + 1) % pn
            self._w0 = self.neg(self.mul(tuple(vec), inv0))
        return self._w0

    def w0_pow(self, b: int):
        """(p / u)^b for 0 <= b < e, from a table built on first use."""
        if self._w0_pows is None:
            pows = [self.one()]
            for _ in range(self.e - 1):
                pows.append(self.mul(pows[-1], self.w0()))
            self._w0_pows = tuple(pows)
        return self._w0_pows[b]

    def c0(self):
        """u^e / p: the unit correcting fractional-valuation wraparound in
        the canonical p^a u^b * unit representation (1 when u^e = p)."""
        if self.e == 1:
            return self.one()
        if self._c0 is None:
            # u^e = -(E_0 + E_1 u + ... + E_{e-1} u^{e-1}), each E_j in pZ_q
            e, pn = self.e, self.pn
            self._c0 = tuple((-self.eis[j][i]) % pn // self.p
                             for i in range(self.f) for j in range(e))
        return self._c0

    def c0_inv(self):
        if self.e == 1:
            return self.one()
        if self._c0i is None:
            self._c0i = self.inv_unit(self.c0())
        return self._c0i

    # -- inversion ------------------------------------------------------------

    def inv_unit(self, x):
        """Inverse of a unit (valuation 0), exact mod p^N.

        A constant unit is one modular inverse.  Any other unit is inverted
        by Newton once per ring: the inverse is remembered, for at most
        INV_MEMO_CAP units, the oldest forgotten first.
        """
        if not any(x[1:]):
            # a constant unit (every unit when f = e = 1): one modular inverse
            if not x[0] % self.p:
                raise ZeroDivisionError("not a unit")
            return (pow(x[0], -1, self.pn),) + (0,) * (self.dim - 1)
        memo = self._inv_memo
        y = memo.get(x)
        if y is None:
            if self.val_pi(x) != 0:
                raise ZeroDivisionError("not a unit")
            # right mod p, then mod p^k for k = 2, 4, 8, ... up to N
            y = self._inv_mod_p(x)
            k = 1
            while k < self.prec:
                k = min(2 * k, self.prec)
                y = self._newton_step(x, y, self.p ** k)
            if len(memo) >= INV_MEMO_CAP:
                del memo[next(iter(memo))]
            memo[x] = y
        return y

    def _inv_mod_p(self, x):
        """Inverse mod p: series inversion in F_q[u]/u^e, on residues mod p."""
        p, f, e = self.p, self.f, self.e
        a0 = [x[i * e + 0] % p for i in range(f)]
        a0inv = fq_inverse(a0, [c % p for c in self.modulus], p)
        y = [0] * self.dim
        for i in range(f):
            y[i * e + 0] = a0inv[i]
        y = tuple(y)
        # Newton in the nilpotent u-direction, mod p: y is right mod u^k, and
        # at e = 1 (u = p) the residue-field inverse is already the answer
        x = tuple([c % p for c in x])
        k = 1
        while k < e:
            k *= 2
            y = self._newton_step(x, y, p)
        return y

    def _newton_step(self, x, y, m):
        """y(2 - xy) mod m, m a power of p dividing p^N: when xy = 1 modulo
        an ideal I, the result inverts x modulo I^2 + (m)."""
        t = self._product(x, y, m)
        return self._product(y, ((2 - t[0]) % m,) + tuple([-c % m for c in t[1:]]), m)

    # -- Frobenius and automorphisms -------------------------------------------

    def frobenius_ok(self) -> bool:
        """Frobenius z -> z^p extends to this level iff the Eisenstein
        coefficients are rational (z-free)."""
        if self.e == 1:
            return True
        return all(all(c == 0 for c in coeff[1:]) for coeff in self.eis)

    def _frob_columns(self):
        # z^(i p) mod m as length-f z-vectors, i < f
        if self._frob_cols is None:
            e = self.e
            cols = []
            zp = self.pow(self.gen_z(), self.p)
            cur = self.one()
            for _ in range(self.f):
                cols.append(cur[::e])
                cur = self.mul(cur, zp)
            self._frob_cols = tuple(cols)
        return self._frob_cols

    def frobenius(self, x):
        """Apply z -> z^p coefficientwise (u fixed); requires frobenius_ok.
        The identity when f = 1, where z = 1."""
        if self.f == 1:
            return x
        if not self.frobenius_ok():
            raise ValueError("Frobenius does not fix this Eisenstein polynomial")
        # z^i u^j -> z^(ip) u^j and z^(ip) is already a reduced z-polynomial,
        # so the image is a combination of basis monomials: nothing to fold
        e, pn = self.e, self.pn
        out = [0] * self.dim
        for i, col in enumerate(self._frob_columns()):
            for j in range(e):
                c = x[i * e + j]
                if c:
                    for k, d in enumerate(col):
                        out[k * e + j] += c * d
        return tuple([c % pn for c in out])

    def apply_u_map(self, x, upowers):
        """Apply the K_q-automorphism sending u to T, given precomputed
        upowers[j] = T^j for 0 <= j < e."""
        e, raw, nu = self.e, self._raw, 2 * self.e - 1
        acc = [0] * self._nraw
        for j, t in enumerate(upowers):
            ts = [(r, d) for r, d in zip(raw, t) if d]
            for i in range(self.f):
                c = x[i * e + j]
                if c:
                    o = i * nu
                    for r, d in ts:
                        acc[o + r] += c * d
        return self._reduce(acc)
