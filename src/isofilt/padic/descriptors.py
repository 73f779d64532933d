"""Tower level descriptors: Q_p, unramified K_q, Eisenstein steps L/K_q.

An UnramifiedFieldDescriptor fixes a Teichmuller presentation: the modulus is
the monic lift dividing x^q - x of an irreducible degree-f polynomial mod p
with primitive roots, so the generator z is a primitive (q-1)-st root of unity,
Frobenius is exactly z -> z^p, and the prime-to-p roots of unity available at
this level are exact monomials z^k.

An EisensteinExtensionDescriptor adds a totally ramified step cut out by an
Eisenstein polynomial E(u) over the base, together with a validated table of
automorphisms given by their action on the uniformizer.  Galois groups are
never computed here; the table is input and checked (closure, group of order
e, E(tau(u)) = 0 at working precision, transitive on the listed roots).

Descriptors are never mutated after construction; what they gain later
(small scalars, Teichmuller roots, the ring's inverses and kernels, the
level's arithmetic rules that ``scalar.kernel`` builds, isotypic's embeddings
into bigger levels) is a memo of a function of the presentation.  ``create`` interns them, so a process holds one
descriptor, and one TowerRing, per presentation.  A step lifts raw rows
from its base by one rule, ``lift_rows``, which ``lift`` wraps.
The key is (p, f, N, modulus mod p^N, floor) for K_q and (base, raw Eisenstein
coefficients, raw automorphism images in table order) for L, and ``==`` and
``hash`` compare exactly that key.  Only a descriptor that passed
every check is stored, and a hit returns one whose checks ran on the same key,
so certify-or-fail holds as if each load built its level afresh: a bad
presentation fails on every load.  At most LEVEL_CACHE levels are kept, the
oldest forgotten first.  The constructors stay for levels that are not to be
shared: only the field constructor takes a floor (an Eisenstein step always
has floor 1, and ``create`` builds fields at floor 1), and the step's
constructor can skip its checks for an unvalidated ring.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ValidationError
from .fp import fp_is_primitive, fp_order
from .ring import TowerRing, int_valuation
from .hensel import find_unramified_modulus
from . import scalar as sc

# the most levels one process keeps interned, over both kinds
LEVEL_CACHE = 64
_LEVELS: dict = {}


def _interned(key, build):
    """The level stored under key, else build()'s, stored once it returns:
    build raises on a bad presentation and nothing is stored.  (The two
    kinds' keys never compare equal: their lengths differ.)"""
    level = _LEVELS.get(key)
    if level is None:
        level = build()
        if len(_LEVELS) >= LEVEL_CACHE:
            del _LEVELS[next(iter(_LEVELS))]
        _LEVELS[key] = level
    return level


_canonical_modulus = lru_cache(maxsize=LEVEL_CACHE)(find_unramified_modulus)


class UnramifiedFieldDescriptor:
    level = "unramified"

    def __init__(self, p: int, f: int, prec: int, modulus: tuple[int, ...],
                 floor_relpi: int = 1):
        self.p = p
        self.f = f
        self.prec = prec
        self.e = 1
        self.modulus = tuple(c % p ** prec for c in modulus)
        self.ring = TowerRing(p, prec, self.modulus)
        self.floor_relpi = floor_relpi
        self.relpi_max = prec
        self._key = (p, f, prec, self.modulus, floor_relpi)
        self._hash = hash(self._key)
        self._teich_cache: dict[int, "sc.Scalar"] = {}
        self._small: dict[int, "sc.Scalar"] = {}
        self.raw_kernel = None  # scalar.kernel's rules, built on first use
        self.embeddings: dict = {}  # s -> isotypic's embedding into K_{q^s}

    @classmethod
    def create(cls, p: int, f: int, prec: int,
               modulus=None) -> "UnramifiedFieldDescriptor":
        """The interned floor-1 level presented by ``modulus``, or by the
        canonical modulus (hensel.find_unramified_modulus) when it is None.
        A modulus must be the presentation the descriptors assume: monic of
        degree f, irreducible with primitive roots mod p (x - 1 at f = 1,
        where z = 1), and z^q = z mod p^N, so that z is a Teichmuller root
        and Frobenius is z -> z^p.  Every check but monic degree f reads the
        modulus mod p^N, which is the key."""
        if modulus is None:
            modulus = _canonical_modulus(p, f, prec)
        elif len(modulus) != f + 1 or modulus[-1] != 1:
            raise _not_teichmuller(p, f, prec, modulus)
        pn = p ** prec
        m = tuple(c % pn for c in modulus)

        def build():
            if ((m[0] + 1) % pn == 0 if f == 1
                    else fp_is_primitive([c % p for c in m], p)):
                field = cls(p, f, prec, m)
                z = field.ring.gen_z()
                if field.ring.pow(z, field.q) == z:
                    return field
            raise _not_teichmuller(p, f, prec, modulus)
        return _interned((p, f, prec, m, 1), build)

    @property
    def q(self) -> int:
        return self.p ** self.f

    def __eq__(self, other):
        return (isinstance(other, UnramifiedFieldDescriptor)
                and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Q_{self.p}^({self.f}) @N={self.prec}"

    # scalar constructors
    def zero(self):
        return sc.sc_zero(self)

    def one(self):
        return _scalar(self, 1)

    def scalar(self, q):
        return _scalar(self, q)

    def gen(self):
        """The Teichmuller generator z as a scalar."""
        return sc.Scalar(self, sc.REG, w=0,
                         unit=self.ring.gen_z(), relpi=self.relpi_max)

    def teichmuller(self, d: int):
        """A primitive d-th root of unity, exact at working precision.

        Requires d | q - 1.  For divisors of p - 1 an integer Teichmuller
        lift is used, otherwise a power of the generator.
        """
        if d in self._teich_cache:
            return self._teich_cache[d]
        if d == 1:
            return self.one()
        qm1 = self.q - 1
        if qm1 % d != 0:
            raise ValidationError(f"no primitive {d}-th root of unity in {self!r}")
        if (self.p - 1) % d == 0:
            a = None
            for c in range(2, self.p):
                if fp_order(c, self.p) == d:
                    a = c
                    break
            if a is None:
                raise ValidationError("no generator found (impossible for d | p-1)")
            x = a % self.p ** self.prec
            for _ in range(self.prec + 1):
                x = pow(x, self.p, self.p ** self.prec)
            out = sc.Scalar(self, sc.REG, w=0,
                            unit=self.ring.from_int(x), relpi=self.relpi_max)
        else:
            g = self.gen()
            out = sc.sc_pow(g, qm1 // d)
        self._teich_cache[d] = out
        return out

    def serialize(self) -> dict:
        return {"p": self.p, "f": self.f, "precision": self.prec,
                "modulus": list(self.modulus)}


def _not_teichmuller(p, f, prec, modulus):
    return ValidationError(f"field: modulus {list(modulus)} is not a monic lift "
                           f"of degree {f} of a primitive polynomial mod {p} "
                           f"with z^q = z mod {p}^{prec} (x - 1 when f = 1)")


SMALL_INT = 64  # field.scalar(n) for |n| <= SMALL_INT is built once


def _scalar(field, q):
    """The scalar of a rational q at the level.  A small int is built once
    per descriptor and shared, since Scalars are never mutated."""
    if type(q) is not int or not -SMALL_INT <= q <= SMALL_INT:
        return sc.sc_from_fraction(field, q)
    x = field._small.get(q)
    if x is None:
        x = field._small[q] = sc.sc_from_fraction(field, q)
    return x


class _AutRecord:
    """Precomputed action of one automorphism of the Eisenstein step."""

    __slots__ = ("name", "image", "upowers", "tu_pow")

    def __init__(self, name, image, ring):
        self.name = name
        self.image = image  # ring element: the image of u
        pw = [ring.one()]
        for _ in range(ring.e - 1):
            pw.append(ring.mul(pw[-1], image))
        self.upowers = tuple(pw)
        if ring.e == 1:
            self.tu_pow = (ring.one(),)
            return
        # (T/u)^b for b < e; T/u = T * w0 / p, exact integer division
        tu = ring.divide_pi_exact(ring.mul(image, ring.w0()), ring.e)
        tp = [ring.one()]
        for _ in range(ring.e - 1):
            tp.append(ring.mul(tp[-1], tu))
        self.tu_pow = tuple(tp)


class EisensteinExtensionDescriptor:
    level = "eisenstein"

    def __init__(self, base: UnramifiedFieldDescriptor,
                 eis_coeffs: tuple, automorphisms: dict | None = None,
                 validate: bool = True):
        """eis_coeffs: ascending, length e+1, each entry an int or a length-f
        tuple of ints over the base power basis; leading coefficient 1.
        automorphisms: name -> polynomial in u (ascending, entries ints or
        base vectors) giving the image of the uniformizer."""
        self.base = base
        self.p = base.p
        self.f = base.f
        self.prec = base.prec
        self.raw_eis = tuple(eis_coeffs)
        self.raw_auts = dict(automorphisms or {})
        self._key = _extension_key(base, self.raw_eis, self.raw_auts)
        self._hash = hash(self._key)
        coeffs = tuple(self._coerce_base_vec(c) for c in eis_coeffs)
        if coeffs[-1] != self._coerce_base_vec(1):
            raise ValidationError("Eisenstein polynomial must be monic")
        self.e = len(coeffs) - 1
        self.eis = coeffs
        if validate:
            self._check_eisenstein()
        self.ring = TowerRing(base.p, base.prec, base.modulus, coeffs)
        self.floor_relpi = 1
        self.relpi_max = self.e * base.prec
        self._small: dict[int, "sc.Scalar"] = {}
        self.raw_kernel = None  # scalar.kernel's rules, built on first use
        self.automorphisms: dict[str, _AutRecord] = {}
        for name, poly in self.raw_auts.items():
            image = self._poly_to_element(poly)
            self.automorphisms[name] = _AutRecord(name, image, self.ring)
        if validate:
            self._validate()

    @classmethod
    def create(cls, base: UnramifiedFieldDescriptor, eis_coeffs: tuple,
               automorphisms: dict | None = None) -> "EisensteinExtensionDescriptor":
        """The interned, validated step over base (see the module docstring)."""
        key = _extension_key(base, eis_coeffs, automorphisms or {})
        return _interned(key, lambda: cls(base, eis_coeffs, automorphisms))

    def _coerce_base_vec(self, c):
        pn = self.base.p ** self.prec
        if isinstance(c, int):
            vec = [c % pn] + [0] * (self.f - 1)
            return tuple(vec)
        vec = [int(x) % pn for x in c]
        if len(vec) != self.f:
            raise ValidationError("base coefficient vector has wrong length")
        return tuple(vec)

    def _poly_to_element(self, poly):
        # polynomial in u with base coefficients -> ring element
        out = [0] * (self.f * self.e)
        for j, c in enumerate(poly):
            vec = self._coerce_base_vec(c)
            if j >= self.e:
                raise ValidationError("automorphism image degree exceeds e-1")
            for i in range(self.f):
                out[i * self.e + j] = vec[i]
        return tuple(out)

    def _check_eisenstein(self):
        """The Eisenstein shape, checked before the ring is built (the ring
        divides by the constant term over p)."""
        v0 = _vec_valuation(self.eis[0], self.p)
        if v0 != 1:
            raise ValidationError("constant term must have valuation exactly 1")
        for j in range(1, self.e):
            vj = _vec_valuation(self.eis[j], self.p)
            if vj is not None and vj < 1:
                raise ValidationError("middle coefficients must have valuation >= 1")

    def _validate(self):
        ring = self.ring
        if not self.automorphisms:
            return
        digits = max(self.prec - 4, 1)
        thresh = self.e * digits
        images = {}
        for name, rec in self.automorphisms.items():
            val = ring.val_pi(self._eval_eis(rec.image))
            if val is not None and val < thresh:
                raise ValidationError(f"automorphism {name!r} does not map the "
                                      f"uniformizer to a root of E")
            images[name] = rec.image
        names = list(self.automorphisms)
        if len(names) != self.e:
            raise ValidationError("automorphism table must have e entries")
        # a monomial z^i u^j has valuation e*v_p + j with j < e, so two images
        # agree to pi^thresh exactly when their coefficients agree mod p^digits
        pm = self.p ** digits
        by_key: dict[tuple, list[str]] = {}
        for n in names:
            by_key.setdefault(tuple([c % pm for c in images[n]]), []).append(n)

        def match(x):
            return by_key.get(tuple([c % pm for c in x]), [])

        ident = match(ring.gen_u())
        if len(ident) != 1:
            raise ValidationError("table must contain the identity exactly once")
        # closure under composition, and each composite is in the table
        self.compose_table: dict[tuple[str, str], str] = {}
        for n1 in names:
            seen = set()
            for n2 in names:
                img = ring.apply_u_map(images[n2], self.automorphisms[n1].upowers)
                found = match(img)
                if len(found) != 1:
                    raise ValidationError("automorphism table is not closed")
                self.compose_table[(n1, n2)] = found[0]
                seen.add(found[0])
            if len(seen) != self.e:
                raise ValidationError("automorphism table rows are not permutations")
        self.identity_name = ident[0]

    def _eval_eis(self, x):
        ring = self.ring
        acc = ring.zero()
        xp = ring.one()
        for j in range(self.e):
            coeff = _base_vec_to_elem(self.eis[j], self.f, self.e)
            acc = ring.add(acc, ring.mul(coeff, xp))
            xp = ring.mul(xp, x)
        return ring.add(acc, xp)  # + x^e (monic)

    # -- public API ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, EisensteinExtensionDescriptor)
                and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.base!r}[u]/E(deg {self.e})"

    def zero(self):
        return sc.sc_zero(self)

    def one(self):
        return _scalar(self, 1)

    def scalar(self, q):
        return _scalar(self, q)

    def uniformizer(self):
        return sc.Scalar(self, sc.REG, w=1,
                         unit=self.ring.one(), relpi=self.relpi_max)

    def lift(self, x):
        """Lift a scalar from the base level: ``lift_rows`` on one entry."""
        kb = sc.kernel(x.field)
        return sc.kernel(self).scalar(self.lift_rows(kb, [[kb.entry(x)]])[0][0])

    def lift_rows(self, k, rows):
        """The raw lift: rows of raw entries of the base level, whose rules
        are k (``scalar.kernel``), as raw entries of this level.  w, zw and
        relpi scale by e (relpi to at most eN), and a unit's coordinate of
        z^i moves to z^i u^0.  At e = 1 it is the identity: rows comes back."""
        if k.field is not self.base and k.field != self.base:
            raise ValidationError("scalar is not at the base level")
        e, prec, cap = self.e, self.prec, self.relpi_max
        if e == 1:
            return rows
        # a unit is an int where the base ring is Z/p^N, a tuple otherwise
        f, pad = self.f, (0,) * (e - 1)
        return [[x if x is None else (e * x[0], None, 0) if x[1] is None
                 else (e * x[0], _base_vec_to_elem(x[1], f, e) if f > 1
                       else (x[1],) + pad, e * x[2] if x[2] < prec else cap)
                 for x in row] for row in rows]

    def frobenius_ok(self) -> bool:
        return self.ring.frobenius_ok()

    def serialize(self) -> dict:
        d = self.base.serialize()
        d["eisenstein"] = {
            "degree": self.e,
            "coeffs": [list(c) if not isinstance(c, int) else c
                       for c in self.raw_eis],
            "automorphisms": {k: [list(c) if not isinstance(c, int) else c
                                  for c in v]
                              for k, v in self.raw_auts.items()},
        }
        return d


def _extension_key(base, eis_coeffs, automorphisms):
    """The step's identity: its base, and its raw coefficients and images
    as given (an int or a base vector each; a list read as a tuple)."""
    def raw(poly):
        return tuple(c if isinstance(c, int) else tuple(c) for c in poly)
    return (base, raw(eis_coeffs),
            tuple((name, raw(poly)) for name, poly in automorphisms.items()))


def _vec_valuation(vec, p):
    best = None
    for c in vec:
        v = int_valuation(c, p)
        if v is not None and (best is None or v < best):
            best = v
    return best


def _base_vec_to_elem(vec, f, e):
    """A base-level vector or unit (one coordinate per z^i) as a ring
    element of the level of ramification e (the z^i u^0 slots)."""
    out = [0] * (f * e)
    out[::e] = vec
    return tuple(out)
