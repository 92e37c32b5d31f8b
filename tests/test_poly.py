import random
from unittest import mock

import pytest

from negacyclic import codes, poly
from negacyclic.cosets import build_cosets
from negacyclic.families import build_family1, build_family3
from negacyclic.ff import FieldError, get_embedding, make_field, root_of_unity
from negacyclic.poly import NEG_INF, Poly, PolyError, minimal_polynomial
from negacyclic.verify import verify_claims

GF3 = make_field(3, 1)


def P(*scalars):
    return Poly.from_scalars(GF3, scalars)


def euclid_gcd(a, b):
    """Independent Euclidean oracle."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def test_gcd_known_value():
    # (x^2+1)(x^2+2) = x^4+2 over GF(3), so gcd(x^2+1, x^4+2) = x^2+1
    assert P(1, 0, 1) * P(2, 0, 1) == P(2, 0, 0, 0, 1)
    g = P(1, 0, 1).gcd(P(2, 0, 0, 0, 1))
    assert g == P(1, 0, 1)


def test_gcd_matches_euclid_oracle():
    rng = random.Random(3)
    for _ in range(200):
        a = Poly.from_scalars(GF3, [rng.randrange(3) for _ in range(rng.randrange(1, 8))])
        b = Poly.from_scalars(GF3, [rng.randrange(3) for _ in range(rng.randrange(1, 8))])
        if b.is_zero():
            continue
        assert a.gcd(b) == euclid_gcd(a, b)


def test_divmod_reconstruction():
    rng = random.Random(5)
    f9 = make_field(3, 2)
    for field in (GF3, f9):
        for _ in range(200):
            a = Poly.from_ints(field, [rng.randrange(field.order)
                                       for _ in range(rng.randrange(0, 9))])
            b = Poly.from_ints(field, [rng.randrange(field.order)
                                       for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_division_by_zero():
    with pytest.raises(PolyError):
        divmod(P(1, 1), Poly.zero(GF3))


def test_zero_degree_sentinel():
    assert Poly.zero(GF3).degree == NEG_INF
    assert Poly.zero(GF3).degree < 0
    assert P(5).degree == 0  # 5 = 2 mod 3


def test_reciprocal_known_values():
    assert P(1, 2).reciprocal() == P(2, 1)          # 1+2x -> 2+x
    assert P(1, 0, 1).reciprocal() == P(1, 0, 1)    # palindrome
    with pytest.raises(PolyError):
        P(0, 1).reciprocal()


def test_reciprocal_involution_on_monic():
    rng = random.Random(9)
    for _ in range(100):
        coeffs = [rng.randrange(3) for _ in range(rng.randrange(1, 7))] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 1
        f = Poly.from_scalars(GF3, coeffs)
        assert f.reciprocal().reciprocal() == f
        assert f.reciprocal().degree == f.degree


def test_reciprocal_inverts_roots():
    f81 = make_field(3, 4)
    beta = root_of_unity(f81, 20)
    m = minimal_polynomial(beta, 1, GF3)
    recip = m.reciprocal()
    assert recip(beta.inverse()).is_zero()


def test_minimal_polynomial_of_beta_rho():
    f81 = make_field(3, 4, [1, 2, 0, 1, 1])
    beta = root_of_unity(f81, 20)
    m5 = minimal_polynomial(beta, 5, GF3)
    assert m5 == P(1, 0, 1)  # x^2 + 1


def test_minimal_polynomial_of_one():
    m = minimal_polynomial(GF3.one(), 0, GF3)
    assert m == P(2, 1)  # x - 1


def test_odd_leader_product_is_xn_plus_1():
    f81 = make_field(3, 4)
    beta = root_of_unity(f81, 20)
    table = build_cosets(3, 20)
    prod = Poly.one(GF3)
    for l in table.odd_leaders:
        prod = prod * minimal_polynomial(beta, l, GF3)
    assert prod == Poly.x_pow_minus(GF3, 10, -GF3.one())


def test_minimal_polynomials_divide_and_are_irreducible():
    f = make_field(3, 4)
    beta = root_of_unity(f, 20)
    table = build_cosets(3, 20)
    x20_1 = Poly.x_pow_minus(GF3, 20, GF3.one())
    for l in table.leaders:
        m = minimal_polynomial(beta, l, GF3)
        assert (x20_1 % m).is_zero()
        # irreducible: gcd(m, x^(3^j) - x) trivial below its degree
        for j in range(1, int(m.degree)):
            frob = Poly.x(GF3)
            for _ in range(j):
                q, r = divmod(frob * frob * frob, m)
                frob = r
            probe = frob - Poly.x(GF3)
            g = m.gcd(probe) if not probe.is_zero() else m
            assert g.degree in (0, m.degree) and g == Poly.one(GF3)


def test_lcm_of_disjoint_cosets_is_product():
    # the two check cosets at m=3, n=13: leaders 1 and 17 = 25 * 3^2 mod 26;
    # coprime minimal polynomials, so family 3's check polynomial
    # lcm(M_beta, M_beta^25) is their product
    f27 = make_field(3, 3)
    beta = root_of_unity(f27, 26)
    m1 = minimal_polynomial(beta, 1, GF3)
    m2 = minimal_polynomial(beta, 25, GF3)
    assert m2 == minimal_polynomial(beta, 17, GF3)
    assert m1.gcd(m2) == Poly.one(GF3)
    assert build_family3(3, 13).code.h == m1 * m2


def _root_product(beta, coset, base):
    """prod over j in coset of (x - beta^j), projected onto base."""
    host = beta.field
    prod = [host.one()]
    for j in coset:
        root = beta ** j
        prod = [(prod[i - 1] if i else host.zero())
                - (prod[i] * root if i < len(prod) else host.zero())
                for i in range(len(prod) + 1)]
    proj = get_embedding(host, base)
    return Poly(base, [proj.project(c) for c in prod])


def test_memoised_minimal_polynomials_keep_their_base():
    # family 1 at rho = 19: the [38,18] code over GF(3) and its [19,9]
    # companion over GF(9) share the host GF(3^18)
    b = build_family1(19)
    code, comp = b.code, b.companion
    assert code.host == comp.host == make_field(3, 18)
    for c in (code, comp):
        for l in c.table.leaders:
            coset = c.table.cosets[l]
            m = minimal_polynomial(c.beta, l, c.field)
            assert m == _root_product(c.beta, coset, c.field)
            assert minimal_polynomial(c.beta, l, c.field) is m
            # every member of the coset names the same polynomial
            assert minimal_polynomial(c.beta, max(coset), c.field) == m
    # one beta and one coset, closed under both bases, over GF(3) and GF(9)
    gf9 = comp.field
    assert comp.table.cosets[19] == (19,)
    m3 = minimal_polynomial(comp.beta, 19, GF3)
    m9 = minimal_polynomial(comp.beta, 19, gf9)
    assert (m3.field, m9.field) == (GF3, gf9) and m3 != m9
    assert m3 == _root_product(comp.beta, [19], GF3)
    assert m9 == _root_product(comp.beta, [19], gf9)


def test_cold_verify_minimal_polynomials_are_coset_products():
    # every (beta, leader, base) a cold verify asks for, against the product
    # of (x - beta^j) over the leader's coset in the code's coset table
    # (the table build_cosets(q, R) of its context, R = ord(beta))
    asked = set()

    def recording(beta, l, base):
        asked.add((beta, l, base))
        return poly.minimal_polynomial(beta, l, base)

    with mock.patch.object(codes, "minimal_polynomial", recording):
        verify_claims("all")
    assert len(asked) == 298
    for beta, l, base in asked:
        table = build_cosets(base.order, beta.order())
        assert table.leader_of[l] == l
        assert (poly.minimal_polynomial(beta, l, base)
                == _root_product(beta, table.cosets[l], base))


def test_text_round_trip():
    f = P(1, 2, 0, 1, 1)
    assert f.to_text() == "1,2,0,1,1"
    assert Poly.from_indices(GF3, [1, 2, 0, 1, 1]) == f
    assert Poly.from_indices(GF3, []) == Poly.zero(GF3)
    with pytest.raises(PolyError, match="outside 0..2"):
        Poly.from_indices(GF3, [1, 3])


def test_substitute_neg_x():
    f = P(1, 1, 1)  # 1 + x + x^2
    assert f.substitute_neg_x() == P(1, 2, 1)


def test_eval_in_extension_via_embedding():
    f81 = make_field(3, 4)
    beta = root_of_unity(f81, 20)
    m = minimal_polynomial(beta, 1, GF3)
    assert m(beta).is_zero()
    assert not m(f81.one()).is_zero()


# -- index-table arithmetic against a schoolbook FieldElement oracle ----------
# Oracle polynomials are ascending FieldElement lists with no trailing zero.

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def oracle_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] = out[i + j] + ci * cj
    return _trim(out)


def oracle_divmod(a, b, field):
    r = list(a)
    d = len(b) - 1
    lead_inv = b[-1].inverse()
    q = [field.zero()] * max(len(r) - d, 0)
    while r and len(r) - 1 >= d:
        c = r[-1] * lead_inv
        shift = len(r) - 1 - d
        q[shift] = c
        for j in range(d + 1):
            r[shift + j] = r[shift + j] - c * b[j]
        r = _trim(r)
    return _trim(q), r


def oracle_monic(a):
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def oracle_gcd(a, b, field):
    while b:
        a, b = b, oracle_divmod(a, b, field)[1]
    return oracle_monic(a)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_table_arithmetic_matches_fieldelement_oracle(p, m):
    field = make_field(p, m)
    rng = random.Random(100 * p + m)

    def rand_poly(max_len):
        return _trim(field.from_int(rng.randrange(field.order))
                     for _ in range(rng.randrange(0, max_len + 1)))

    for _ in range(60):
        a, b = rand_poly(9), rand_poly(6)
        pa, pb = Poly(field, a), Poly(field, b)
        assert list(pa.coeffs) == a
        assert list((pa * pb).coeffs) == oracle_mul(a, b, field)
        assert list(pa.monic().coeffs) == oracle_monic(a)
        assert list(pa.substitute_neg_x().coeffs) == [
            c if i % 2 == 0 else -c for i, c in enumerate(a)]
        if a and not a[0].is_zero():
            inv = a[0].inverse()
            assert list(pa.reciprocal().coeffs) == [c * inv for c in reversed(a)]
        if b:
            q, r = divmod(pa, pb)
            oq, orr = oracle_divmod(a, b, field)
            assert (list(q.coeffs), list(r.coeffs)) == (oq, orr)
            assert list(pa.gcd(pb).coeffs) == oracle_gcd(a, b, field)


def test_poly_arithmetic_needs_index_tables():
    big = make_field(3, 7)  # order 2187 > Field.TABLE_CAP
    with pytest.raises(FieldError):
        Poly.x(big) * Poly.x(big)
