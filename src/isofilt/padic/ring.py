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
convolution in exact integers followed by _reduce, the ring's one reduction;
hensel.rp_mul feeds it the convolutions of a whole polynomial product.  When
f = 1 (Q_p and every Eisenstein ring over it) _reduce skips the z-step and
folds u^(e+k) through the precomputed u-powers in exact integers, with a
single reduction mod p^N; when f = e = 1, mul is one integer product.
inv_unit is one modular inverse for every constant unit (all of them when
f = e = 1) and a Newton iteration otherwise.
"""

from __future__ import annotations

from .fp import fq_inverse


def int_valuation(n: int, p: int) -> int | None:
    """v_p(n) for an integer, None for n == 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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
        self._zpow = self._build_zpow()
        self._upow = self._build_upow()
        self._frob_cols: tuple[tuple[int, ...], ...] | None = None
        self._w0 = None  # p/u as a ring element, lazily built (e > 1 only)

    # -- construction helpers -------------------------------------------------

    def _build_zpow(self):
        # z^(f+k) mod m as length-f vectors, k = 0..f-2
        f, pn = self.f, self.pn
        if f == 1:
            return []
        rows = []
        cur = [(-self.modulus[i]) % pn for i in range(f)]  # z^f
        rows.append(tuple(cur))
        for _ in range(f - 2):
            nxt = [0] * f
            carry = cur[f - 1]
            for i in range(f - 1, 0, -1):
                nxt[i] = cur[i - 1]
            nxt[0] = 0
            if carry:
                for i in range(f):
                    nxt[i] = (nxt[i] - carry * self.modulus[i]) % pn
            cur = nxt
            rows.append(tuple(cur))
        return rows

    def _build_upow(self):
        # u^(e+k) mod E as ring elements, k = 0..e-2
        e = self.e
        if e == 1:
            return []
        rows = []
        # u^e = -(E_0 + E_1 u + ... + E_{e-1} u^{e-1})
        cur = [0] * self.dim
        for j in range(e):
            cj = self.eis[j]
            for i in range(self.f):
                cur[i * e + j] = (-cj[i]) % self.pn
        rows.append(tuple(cur))
        for _ in range(e - 2):
            cur = self._mul_by_u(tuple(cur), rows[0])
            rows.append(cur)
        return rows

    def _mul_by_u(self, x: tuple[int, ...], ue: tuple[int, ...]):
        # multiply by u, using ue = u^e reduced
        e, f, pn = self.e, self.f, self.pn
        out = [0] * self.dim
        overflow = [0] * f  # coefficient of z^i u^e
        for i in range(f):
            for j in range(e):
                c = x[i * e + j]
                if not c:
                    continue
                if j + 1 < e:
                    out[i * e + j + 1] = (out[i * e + j + 1] + c) % pn
                else:
                    overflow[i] = c
        if any(overflow):
            red = self._mul_zpoly_raw(tuple(overflow), ue)
            for k in range(self.dim):
                out[k] = (out[k] + red[k]) % pn
        return tuple(out)

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
        return tuple((a + b) % pn for a, b in zip(x, y))

    def sub(self, x, y):
        pn = self.pn
        return tuple((a - b) % pn for a, b in zip(x, y))

    def neg(self, x):
        pn = self.pn
        return tuple((-a) % pn for a in x)

    def scalar_mul(self, n: int, x):
        pn = self.pn
        n %= pn
        return tuple((n * a) % pn for a in x)

    def _zreduce(self, coeffs: list[int]) -> list[int]:
        # reduce a z-polynomial (list of ints, degree < 2f-1) mod m
        f, pn = self.f, self.pn
        for k in range(len(coeffs) - 1, f - 1, -1):
            c = coeffs[k]
            if c:
                row = self._zpow[k - f]
                for i in range(f):
                    coeffs[i] = (coeffs[i] + c * row[i]) % pn
                coeffs[k] = 0
        return coeffs[:f]

    def _mul_zpoly_raw(self, a: tuple[int, ...], x: tuple[int, ...]):
        # multiply a z-polynomial (length f) by a full element
        f, e, pn = self.f, self.e, self.pn
        out = [0] * self.dim
        for j in range(e):
            col = [0] * (2 * f - 1)
            for i1 in range(f):
                ai = a[i1]
                if not ai:
                    continue
                for i2 in range(f):
                    c = x[i2 * e + j]
                    if c:
                        col[i1 + i2] = (col[i1 + i2] + ai * c) % pn
            col = self._zreduce(col)
            for i in range(f):
                out[i * e + j] = col[i]
        return tuple(out)

    def mul(self, x, y):
        if self.dim == 1:
            return ((x[0] * y[0]) % self.pn,)
        f, e = self.f, self.e
        # convolve in (z, u) with exact integers, z-degree < 2f-1, u-degree < 2e-1
        nu = 2 * e - 1
        acc = [0] * ((2 * f - 1) * nu)
        for i1 in range(f):
            for j1 in range(e):
                c1 = x[i1 * e + j1]
                if not c1:
                    continue
                for i2 in range(f):
                    for j2 in range(e):
                        c2 = y[i2 * e + j2]
                        if c2:
                            acc[(i1 + i2) * nu + j1 + j2] += c1 * c2
        return self._reduce(acc)

    def _reduce(self, acc):
        """Canonical residue of a raw (z, u) convolution: acc[i*(2e-1) + j]
        is the integer coefficient of z^i u^j, i < 2f-1, j < 2e-1."""
        f, e, pn = self.f, self.e, self.pn
        if f == 1:
            # fold u^(e+k) in exact integers, one reduction mod p^N at the end
            out = acc[:e]
            for k, row in enumerate(self._upow):
                c = acc[e + k]
                if c:
                    for j in range(e):
                        out[j] += c * row[j]
            return tuple(c % pn for c in out)
        nz, nu = 2 * f - 1, 2 * e - 1
        # reduce z degree per u-power
        cols = [self._zreduce([acc[i * nu + j] % pn for i in range(nz)])
                for j in range(nu)]
        # reduce u degree
        out = [0] * self.dim
        for j in range(e):
            for i in range(f):
                out[i * e + j] = cols[j][i]
        for j in range(e, nu):
            a = tuple(cols[j])
            if any(a):
                red = self._mul_zpoly_raw(a, self._upow[j - e])
                for k in range(self.dim):
                    out[k] = (out[k] + red[k]) % pn
        return tuple(out)

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
        y = x
        if a:
            y = self.scalar_mul(self.p ** a, y)
        for _ in range(b):
            y = self._mul_by_u_simple(y)
        return y

    def _mul_by_u_simple(self, x):
        if self.e == 1:
            return self.scalar_mul(self.p, x)
        return self._mul_by_u(x, self._upow[0])

    def divide_pi_exact(self, x, w: int):
        """Divide by pi^w an element of valuation >= w.

        Coefficients of the result are meaningful mod p^(N - ceil(w/e)) only;
        the caller tracks the precision loss.
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
        return self.pow(self.w0(), b)

    def c0(self):
        """u^e / p: the unit correcting fractional-valuation wraparound in
        the canonical p^a u^b * unit representation (1 when u^e = p)."""
        if self.e == 1:
            return self.one()
        if getattr(self, "_c0", None) is None:
            ue = self._upow[0]
            self._c0 = tuple(c // self.p for c in ue)
        return self._c0

    def c0_inv(self):
        if self.e == 1:
            return self.one()
        if getattr(self, "_c0i", None) is None:
            self._c0i = self.inv_unit(self.c0())
        return self._c0i

    # -- inversion ------------------------------------------------------------

    def inv_unit(self, x):
        """Inverse of a unit (valuation 0), exact mod p^N."""
        if self.val_pi(x) != 0:
            raise ZeroDivisionError("not a unit")
        if not any(x[1:]):
            # a constant unit (every unit when f = e = 1): one modular inverse
            return (pow(x[0], -1, self.pn),) + (0,) * (self.dim - 1)
        y = self._inv_mod_p(x)
        k = 1
        while k < self.prec:
            k = min(2 * k, self.prec)
            # y <- y(2 - xy), correct mod p^k
            t = self.mul(x, y)
            two = self.from_int(2)
            y = self.mul(y, self.sub(two, t))
        return y

    def _inv_mod_p(self, x):
        """Inverse mod p: series inversion in F_q[u]/u^e."""
        p, f, e = self.p, self.f, self.e
        a0 = [x[i * e + 0] % p for i in range(f)]
        a0inv = fq_inverse(a0, [c % p for c in self.modulus], p)
        y = [0] * self.dim
        for i in range(f):
            y[i * e + 0] = a0inv[i]
        y = tuple(y)
        # Newton in the nilpotent u-direction, mod p
        steps = 0
        k = 1
        while k < e:
            k *= 2
            steps += 1
        for _ in range(max(steps, 1)):
            t = self.mul(x, y)
            t = tuple(c % p for c in t)
            two = self.from_int(2)
            y = self.mul(y, self.sub(two, t))
            y = tuple(c % p for c in y)
        return y

    # -- Frobenius and automorphisms -------------------------------------------

    def frobenius_ok(self) -> bool:
        """Frobenius z -> z^p extends to this level iff the Eisenstein
        coefficients are rational (z-free)."""
        if self.e == 1:
            return True
        return all(all(c == 0 for c in coeff[1:]) for coeff in self.eis)

    def _frob_columns(self):
        if self._frob_cols is None:
            cols = []
            zp = self.pow(self.gen_z(), self.p)
            cur = self.one()
            for _ in range(self.f):
                cols.append(cur)
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
        cols = self._frob_columns()
        e = self.e
        out = self.zero()
        for i in range(self.f):
            coeff = tuple(x[i * e + j] for j in range(e))
            if any(coeff):
                # coeff (a u-vector over Z) times cols[i] (z-only element)
                elem = tuple(
                    coeff[j] if ii == 0 else 0
                    for ii in range(self.f) for j in range(e)
                )
                out = self.add(out, self.mul(elem, cols[i]))
        return out

    def apply_u_map(self, x, upowers):
        """Apply the K_q-automorphism sending u to T, given precomputed
        upowers[j] = T^j for 0 <= j < e."""
        e = self.e
        out = self.zero()
        for j in range(e):
            a = tuple(x[i * e + j] for i in range(self.f))
            if any(a):
                out = self.add(out, self._mul_zpoly_raw(a, upowers[j]))
        return out

