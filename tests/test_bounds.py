"""Minkowski bound arithmetic, wreath orders, degree formulas, census."""

import pytest

from isofilt.bounds import (is_prime, minkowski_exponent, minkowski_bound,
                            divisibility_checks,
                            wreath_sylow_order, lcm_degree_formulas,
                            cyclic_subgroup_census, two_part)
from isofilt.errors import ValidationError
from isofilt.formats import field_from_json
from isofilt.groups.constructions import (cyclic, direct_product, quaternion,
                                          census_p_groups)


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if is_prime(n)] == \
        [n for n in range(-3, 5000) if by_trial(n)]


def test_large_prime_field_loads():
    # Miller-Rabin, not trial division: a 39-digit prime is checked at once
    assert is_prime(2 ** 127 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))
    assert field_from_json({"p": 2 ** 127 - 1, "f": 1, "precision": 8}).p == 2 ** 127 - 1


def test_exponent_examples():
    assert minkowski_exponent(2, 2) == 3
    assert minkowski_exponent(2, 5) == 0
    assert minkowski_exponent(4, 2) == 7
    assert minkowski_exponent(6, 2) == 10
    assert minkowski_exponent(1, 2) == 1


def test_exponent_rejects_composite():
    with pytest.raises(ValidationError):
        minkowski_exponent(4, 6)


def test_bound_examples():
    assert minkowski_bound(1) == 2
    assert minkowski_bound(0) == 1
    # M(2g), the degree bound for semistable reduction in dimension g
    assert [minkowski_bound(2 * g) for g in (1, 2)] == [24, 5760]


def test_monotonicity():
    for n in range(0, 12):
        assert minkowski_bound(n + 1) % minkowski_bound(n) == 0


def test_divisibility_exhaustive():
    for g in range(1, 9):
        for n in range(0, g + 1):
            certs = divisibility_checks(n, 2 * g - n, g, n)
            assert certs["product"]["holds"]
            assert certs["split"]["holds"]


def test_divisor_of_wreath():
    for g in range(1, 7):
        assert minkowski_bound(2 * g) % wreath_sylow_order(g) == 0


def test_wreath_orders():
    assert wreath_sylow_order(1) == 8
    assert wreath_sylow_order(2) == 128
    assert wreath_sylow_order(3) == 1024
    assert wreath_sylow_order(3) == two_part(8 ** 3 * 6)


def test_lcm_degree_examples():
    assert lcm_degree_formulas([(0, 24)]) == (24, 24)
    assert lcm_degree_formulas([(1, 2), (0, 3)]) == (6, 12)
    assert lcm_degree_formulas([]) == (1, 1)


def test_census_examples():
    c4 = cyclic(4)
    out = cyclic_subgroup_census(c4)
    assert out["count"] == 1 and out["identity_holds"]
    v4 = direct_product(cyclic(2), cyclic(2))
    out = cyclic_subgroup_census(v4)
    assert out["count"] == 3 and out["identity_holds"]
    q8 = quaternion()
    out = cyclic_subgroup_census(q8)
    assert out["count"] == 1


def test_census_rejects_non_p_group():
    from isofilt.groups.constructions import dihedral
    s3 = dihedral(3)
    with pytest.raises(ValidationError):
        cyclic_subgroup_census(s3)


def test_census_identity_over_fixtures():
    for label, g in census_p_groups():
        out = cyclic_subgroup_census(g)
        p = out["p"]
        assert out["identity_holds"], label
        assert out["count"] % p != 0, label
        assert out["solutions_of_x_p"] == (p - 1) * out["count"] + 1, label
