import random
import time

import pytest

from negacyclic.ff import (Field, FieldError, _has_order, get_embedding,
                           is_prime, make_field, primitive_element,
                           root_of_unity, trace)


def naive_mul(a, b, modulus, p):
    """Independent oracle: schoolbook product reduced mod the modulus."""
    m = len(modulus) - 1
    t = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            t[i + j] = (t[i + j] + ai * bj) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = t[i]
        if c:
            for j in range(m + 1):
                t[i - m + j] = (t[i - m + j] - c * modulus[j]) % p
        t[i] = 0
    return tuple(t[:m])


def elem_order(e):
    """Order by repeated multiplication, independent of Field.order()."""
    acc = e
    o = 1
    while not acc.is_one():
        acc = acc * e
        o += 1
    return o


def test_prime_field_modulus_is_x():
    gf3 = make_field(3, 1)
    assert gf3.modulus == (0, 1)
    assert gf3.order == 3


def test_gf9_explicit_modulus_irreducible():
    # oracle: x^2+1 has no root in GF(3), so no monic linear factor
    for c in range(3):
        assert (c * c + 1) % 3 != 0
    gf9 = make_field(3, 2, [1, 0, 1])
    assert gf9.order == 9
    assert primitive_element(gf9) != gf9.modulus_root()  # the root i has order 4


def test_paper_style_quartic_modulus():
    f = make_field(3, 4, [1, 2, 0, 1, 1])
    assert f.order == 81
    root = f.modulus_root()
    assert elem_order(root) == 20


def test_reducible_modulus_error_names_factor():
    with pytest.raises(FieldError, match="divisible by"):
        make_field(3, 2, [2, 0, 1])  # x^2 + 2 = (x+1)(x+2)
    try:
        make_field(3, 2, [2, 0, 1])
    except FieldError as e:
        assert "1,1" in str(e) or "2,1" in str(e)


def test_primitive_element_gf3():
    gf3 = make_field(3, 1)
    assert primitive_element(gf3).coeffs == (2,)
    assert elem_order(primitive_element(gf3)) == 2


def test_primitive_element_gf9_x2p1():
    gf9 = make_field(3, 2, [1, 0, 1])
    a = primitive_element(gf9)
    assert a.coeffs == (1, 1)  # x + 1
    assert elem_order(a) == 8


def test_primitive_element_is_modulus_root_for_default_gf81():
    f = make_field(3, 4)
    assert primitive_element(f) == f.modulus_root()
    assert elem_order(primitive_element(f)) == 80


def test_root_of_unity_orders():
    f = make_field(3, 4)
    b = root_of_unity(f, 20)
    assert (b ** 20).is_one()
    assert b ** 10 == -f.one()
    # exact order: no proper divisor works
    for d in (1, 2, 4, 5, 10):
        assert not (b ** d).is_one()

    gf9 = make_field(3, 2)
    assert root_of_unity(gf9, 2) == -gf9.one()

    gf27 = make_field(3, 3)
    b = root_of_unity(gf27, 26)
    assert b ** 13 == -gf27.one()
    assert elem_order(b) == 26


def test_root_of_unity_divisibility_error():
    f = make_field(3, 4)
    with pytest.raises(FieldError, match="divide"):
        root_of_unity(f, 7)


def test_trace_zero_and_known_value():
    gf9 = make_field(3, 2, [1, 0, 1])
    assert trace(gf9.zero(), 1).is_zero()
    # Tr(x) = x + x^3 = x - x = 0 for modulus x^2 + 1
    assert trace(gf9.modulus_root(), 1).is_zero()


def test_trace_surjective_gf81_to_gf3():
    f = make_field(3, 4)
    images = {trace(e, 1).coeffs for e in f.elements()}
    assert images == {(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)}


def test_trace_additive_and_frobenius_invariant():
    f = make_field(3, 4)
    rng = random.Random(7)
    for _ in range(50):
        x = f.from_int(rng.randrange(81))
        y = f.from_int(rng.randrange(81))
        assert trace(x + y, 1) == trace(x, 1) + trace(y, 1)
        assert trace(x ** 3, 1) == trace(x, 1)
        assert trace(x, 2) ** 9 == trace(x, 2)  # lands in GF(9)


def test_trace_bad_subfield_degree():
    f = make_field(3, 4)
    with pytest.raises(FieldError):
        trace(f.one(), 3)


def test_frobenius_is_automorphism_fixing_prime_field():
    f = make_field(3, 4)
    elems = list(f.elements())
    images = {e.frobenius() for e in elems}
    assert len(images) == 81
    rng = random.Random(11)
    for _ in range(60):
        x = f.from_int(rng.randrange(81))
        y = f.from_int(rng.randrange(81))
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_frobenius_fixes_exactly_prime_field(m):
    f = make_field(3, m)
    fixed = [e for e in f.elements() if e.frobenius() == e]
    assert sorted(e.as_int() for e in fixed) == [0, 1, 2]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_arithmetic_matches_naive_oracle(m):
    f = make_field(3, m)
    rng = random.Random(m)
    for _ in range(1000):
        a = f.from_int(rng.randrange(f.order))
        b = f.from_int(rng.randrange(f.order))
        assert (a * b).coeffs == naive_mul(a.coeffs, b.coeffs, f.modulus, 3)
        assert (a + b).coeffs == tuple((x + y) % 3 for x, y in
                                       zip(a.coeffs, b.coeffs))


def _digits(i, p, m):
    return tuple((i // p ** j) % p for j in range(m))


def _naive_pow(a, e, modulus, p):
    m = len(modulus) - 1
    acc = (1,) + (0,) * (m - 1)
    for bit in bin(e)[2:]:
        acc = naive_mul(acc, acc, modulus, p)
        if bit == "1":
            acc = naive_mul(acc, a, modulus, p)
    return acc


def _recorded_modulus(p, m):
    if m == 1:
        return "0,1"
    if p == 3:
        return DEFAULT_MODULI_GF3[m]
    return {(11, 3): "4,1,0,1", (13, 2): "2,1,1"}.get((p, m)) \
        or DEFAULT_MODULI_OTHER[(p, m)]


@pytest.mark.parametrize("p,m", [(2, 16), (3, 1), (3, 2), (3, 7), (3, 28),
                                 (3, 42), (5, 8), (11, 3), (13, 2)])
def test_packed_arithmetic_matches_digit_oracles(p, m):
    # GF(11^3) and GF(13^2): (p-1)^2 * m > 255, so digit slots span two bytes.
    # The ring of the recorded default modulus: the arithmetic alone, without
    # the modulus search that runs on it.
    f = Field._ring(p, [int(c) for c in _recorded_modulus(p, m).split(",")])
    rng = random.Random(1000 * p + m)
    one = (1,) + (0,) * (m - 1)
    for _ in range(60):
        i, j = rng.randrange(f.order), rng.randrange(f.order)
        a, b = f.from_int(i), f.from_int(j)
        da, db = _digits(i, p, m), _digits(j, p, m)
        assert a.as_int() == i and a.coeffs == da and f.from_int(a.as_int()) == a
        assert (a * b).coeffs == naive_mul(da, db, f.modulus, p)
        assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(da, db))
        assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(da, db))
        assert (-a).coeffs == tuple((-x) % p for x in da)
        s = rng.randrange(1, 3)
        assert a.frobenius(s).coeffs == _naive_pow(da, p ** s, f.modulus, p)
        if i:
            assert naive_mul(a.inverse().coeffs, da, f.modulus, p) == one
        twin = f.from_int(i)
        assert twin == a and hash(twin) == hash(a)
        assert (a == b) == (i == j)


def test_power_identities():
    f = make_field(3, 3)
    for e in f.elements():
        assert e ** 27 == e
        if not e.is_zero():
            assert (e ** 26).is_one()
            assert (e * e.inverse()).is_one()


def test_inverse_of_zero():
    with pytest.raises(FieldError):
        make_field(3, 2).zero().inverse()


def test_mixed_field_operations_rejected():
    a = make_field(3, 2).one()
    b = make_field(3, 3).one()
    with pytest.raises(FieldError):
        a + b


def test_embedding_is_ring_homomorphism():
    sub = make_field(3, 2)
    host = make_field(3, 4)
    emb = get_embedding(host, sub)
    elems = list(sub.elements())
    for a in elems:
        for b in elems:
            assert emb.embed(a + b) == emb.embed(a) + emb.embed(b)
            assert emb.embed(a * b) == emb.embed(a) * emb.embed(b)
        assert emb.project(emb.embed(a)) == a
        assert emb.contains(emb.embed(a))
    outside = primitive_element(host)
    assert not emb.contains(outside)
    with pytest.raises(FieldError):
        emb.project(outside)


def test_field_identity_and_cache():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2, [1, 0, 1]) is not make_field(3, 2)
    assert make_field(3, 2) == make_field(3, 2)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_tables_match_element_ops():
    f = make_field(3, 2)
    t = f.tables()
    for i in range(9):
        for j in range(9):
            a, b = f.from_int(i), f.from_int(j)
            assert t.add[i, j] == (a + b).as_int()
            assert t.mul[i, j] == (a * b).as_int()
        assert t.neg[i] == (-f.from_int(i)).as_int()
        if i:
            assert t.inv[i] == f.from_int(i).inverse().as_int()


# -- modulus validation and the default search --------------------------------

def _monic_polys(p, d):
    for enc in range(p ** d):
        yield [(enc // p ** i) % p for i in range(d)] + [1]


def _rem(f, g, p):
    """f mod g over GF(p) by schoolbook long division (g monic, ascending)."""
    r = list(f)
    for i in range(len(r) - len(g), -1, -1):
        c = r[i + len(g) - 1]
        if c:
            for j, gj in enumerate(g):
                r[i + j] = (r[i + j] - c * gj) % p
    return r[:len(g) - 1]


def _oracle_smallest_factor(f, p):
    """Trial division by every monic g of degree <= deg(f)/2, smallest first;
    None when f is irreducible."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        for g in _monic_polys(p, d):
            if not any(_rem(f, g, p)):
                return g
    return None


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 6), (5, 4)])
def test_make_field_accepts_exactly_the_irreducible_moduli(p, max_deg):
    for d in range(1, max_deg + 1):
        for f in _monic_polys(p, d):
            factor = _oracle_smallest_factor(f, p)
            if factor is None:
                assert make_field(p, d, f).modulus == tuple(f)
                continue
            with pytest.raises(FieldError) as exc:
                make_field(p, d, f)
            text = ",".join(map(str, factor))
            assert str(exc.value).endswith(f"divisible by {text}"), (f, exc.value)


def test_reducible_sextic_rejected():
    # (x + 2) divides it: f(1) = 2 + 1 + 2 + 1 = 0 mod 3
    with pytest.raises(FieldError, match="divisible by 2,1$"):
        make_field(3, 6, [2, 1, 2, 0, 0, 0, 1])


def test_irreducible_sextic_accepted():
    f = make_field(3, 6, [2, 1, 0, 0, 0, 0, 1])
    assert primitive_element(f) == f.modulus_root()
    assert elem_order(f.modulus_root()) == 728
    for i in range(1, f.order):
        e = f.from_int(i)
        assert (e * e.inverse()).is_one()


DEFAULT_MODULI_GF3 = {
    2: "2,1,1",
    3: "1,2,0,1",
    4: "2,1,0,0,1",
    5: "1,2,0,0,0,1",
    6: "2,2,0,0,0,0,1",
    7: "1,2,1,0,0,0,0,1",
    8: "2,0,0,1,0,0,0,0,1",
    9: "1,0,1,2,0,0,0,0,0,1",
    10: "2,1,0,1" + ",0" * 6 + ",1",
    11: "1,2,1" + ",0" * 8 + ",1",
    12: "2,2,2,1,2" + ",0" * 7 + ",1",
    13: "1,2" + ",0" * 11 + ",1",
    14: "2,2,2,0,1" + ",0" * 9 + ",1",
    15: "1,2,1" + ",0" * 12 + ",1",
    16: "2,2,0,1,1" + ",0" * 11 + ",1",
    17: "1,2" + ",0" * 15 + ",1",
    18: "2,1,0,1,2,1" + ",0" * 12 + ",1",
    19: "1,2,1" + ",0" * 16 + ",1",
    20: "2,2,1,0,0,1" + ",0" * 14 + ",1",
    21: "1,1,0,1" + ",0" * 17 + ",1",
    22: "2,1,2,2" + ",0" * 18 + ",1",
    23: "1,1,0,1" + ",0" * 19 + ",1",
    24: "2,2,0,1,2" + ",0" * 19 + ",1",
    25: "1,2,2,2" + ",0" * 21 + ",1",
    26: "2,1,0,1" + ",0" * 22 + ",1",
    27: "1,2,0,2,1,1" + ",0" * 21 + ",1",
    28: "2,2,0,0,1,1" + ",0" * 22 + ",1",
    29: "1,0,1,0,1" + ",0" * 24 + ",1",
    30: "2,1" + ",0" * 28 + ",1",
    42: "2,1,1,1,1,1" + ",0" * 36 + ",1",
}

# Default moduli of GF(5^m) and GF(2^m) as released before elements were
# packed; descriptors and cache keys depend on them.
DEFAULT_MODULI_OTHER = {
    (5, 2): "2,1,1",
    (5, 3): "2,3,0,1",
    (5, 4): "2,2,1,0,1",
    (5, 5): "2,4" + ",0" * 3 + ",1",
    (5, 6): "2,1" + ",0" * 4 + ",1",
    (5, 7): "2,3" + ",0" * 5 + ",1",
    (5, 8): "3,2,1" + ",0" * 5 + ",1",
    (2, 2): "1,1,1",
    (2, 3): "1,1,0,1",
    (2, 4): "1,1,0,0,1",
    (2, 5): "1,0,1,0,0,1",
    (2, 6): "1,1" + ",0" * 4 + ",1",
    (2, 7): "1,1" + ",0" * 5 + ",1",
    (2, 8): "1,0,1,1,1" + ",0" * 3 + ",1",
    (2, 9): "1,0,0,0,1" + ",0" * 4 + ",1",
    (2, 10): "1,0,0,1" + ",0" * 6 + ",1",
    (2, 11): "1,0,1" + ",0" * 8 + ",1",
    (2, 12): "1,1,0,0,1,0,1" + ",0" * 5 + ",1",
    (2, 13): "1,1,0,1,1" + ",0" * 8 + ",1",
    (2, 14): "1,1,0,1,0,1" + ",0" * 8 + ",1",
    (2, 15): "1,1" + ",0" * 13 + ",1",
    (2, 16): "1,0,1,1,0,1" + ",0" * 10 + ",1",
}


@pytest.mark.parametrize("m", sorted(DEFAULT_MODULI_GF3))
def test_default_modulus_golden(m):
    f = make_field(3, m)
    assert f.descriptor()["modulus"] == DEFAULT_MODULI_GF3[m]
    assert primitive_element(f) == f.modulus_root()


@pytest.mark.parametrize("p,m", sorted(DEFAULT_MODULI_OTHER))
def test_default_modulus_golden_gf5_gf2(p, m):
    f = make_field(p, m)
    assert f.descriptor()["modulus"] == DEFAULT_MODULI_OTHER[(p, m)]
    assert primitive_element(f) == f.modulus_root()


def _poly_mul(a, b, p):
    t = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t[i + j] = (t[i + j] + x * y) % p
    return t


def test_product_of_two_degree9_irreducibles_rejected_fast():
    small = [1, 0, 1, 2, 0, 0, 0, 0, 0, 1]  # the default GF(3^9) modulus
    large = [2, 1, 1, 2, 0, 0, 0, 0, 0, 1]
    for g in (small, large):
        assert make_field(3, 9, g).modulus == tuple(g)
    t0 = time.perf_counter()
    with pytest.raises(FieldError) as exc:
        make_field(3, 18, _poly_mul(large, small, 3))
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value).endswith("divisible by 1,0,1,2,0,0,0,0,0,1")


def test_pinned_moduli_are_primitive_and_the_search_finds_smaller_ones():
    from negacyclic.ff import _PINNED_MODULI, _search_modulus

    def encoding(f, p):
        return sum(c * p ** i for i, c in enumerate(f))

    assert sorted(_PINNED_MODULI) == [(3, m) for m in (6, 14, 18, 20, 22, 25)]
    for (p, m), pinned in _PINNED_MODULI.items():
        assert make_field(p, m).modulus == pinned
        found = _search_modulus(p, m)
        for f in (Field(p, m, pinned), Field(p, m, found)):
            assert primitive_element(f) == f.modulus_root()
        assert encoding(found, p) < encoding(pinned, p)


def _unsieved_search(p, m):
    """The default-modulus search with no sieve: every candidate without a
    root in GF(p), smallest encoding first, gets the full-order test."""
    from negacyclic.ff import _has_full_order
    for enc in range(1, p ** m):
        f = [(enc // p ** i) % p for i in range(m)] + [1]
        if any(sum(c * a ** i for i, c in enumerate(f)) % p == 0
               for a in range(p)):
            continue
        if _has_full_order(Field._ring(p, f).modulus_root()):
            return f


SEARCHED = [(p, m) for p in (2, 3, 5, 7) for m in range(2, 20)
            if p ** m <= 3 ** 12] + [(3, 28), (3, 30)]


@pytest.mark.parametrize("exponent", [None, 1], ids=["default", "sieve-early"])
def test_sieved_search_finds_the_unsieved_modulus(exponent, monkeypatch):
    # the sieve rejects only reducible candidates, so the smallest-encoding
    # primitive modulus is the same at any depth: the module's, or one where
    # the sieve stops early and rejects only the candidates with a root
    from negacyclic import ff
    if exponent is not None:
        monkeypatch.setattr(ff, "_sieve_exponent", lambda p: exponent)
    for p, m in SEARCHED:
        assert ff._search_modulus(p, m) == _unsieved_search(p, m), (p, m)


@pytest.mark.parametrize("p,m,depth,start", [
    (2, 8, 4, 0), (2, 9, 3, 100), (3, 6, 3, 0), (3, 7, 2, 50), (5, 4, 2, 0),
    (7, 3, 1, 20)])
def test_sieve_keeps_exactly_the_candidates_without_small_factors(p, m, depth, start):
    from negacyclic.ff import _sieved
    small = [g for d in range(1, depth + 1) for g in _monic_polys(p, d)
             if _oracle_smallest_factor(g, p) is None]
    want = [enc for enc, f in enumerate(_monic_polys(p, m)) if enc >= start
            and all(any(_rem(f, g, p)) for g in small)]
    assert [enc for enc in _sieved(p, m, depth) if enc >= start] == want


def _prime_factors(n):
    """Distinct prime factors by trial division, independent of ff."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _smallest_full_order(f):
    """Reference scan: the first encoding whose powers x^((q-1)/r), r a prime
    factor of q - 1, are all != 1."""
    q1 = f.order - 1
    cofactors = [q1 // r for r in _prime_factors(q1)]
    for i in range(1, f.order):
        e = f.from_int(i)
        if all(not (e ** c).is_one() for c in cofactors):
            return e


def test_primitive_element_is_the_smallest_full_order_element():
    from negacyclic.ff import _PINNED_MODULI
    fields = [make_field(p, m) for p in range(2, 252) if is_prime(p)
              for m in range(1, 11) if p ** m <= 1024]
    fields += [make_field(p, m) for p, m in sorted(_PINNED_MODULI)]
    # supplied moduli whose root has smaller order: the scan's path for m > 1
    fields += [make_field(3, 2, [1, 0, 1]), make_field(3, 4, [1, 1, 1, 1, 1]),
               make_field(2, 4, [1, 1, 1, 1, 1])]
    assert sum(f.m > 1 and primitive_element(f) != f.modulus_root()
               for f in fields) == 3
    for f in fields:
        assert primitive_element(f) == _smallest_full_order(f), f


def _divisors(n):
    out = [1]
    for r in _prime_factors(n):
        e = 0
        while n % r == 0:
            n //= r
            e += 1
        out = [d * r ** i for d in out for i in range(e + 1)]
    return sorted(out)


def _former_root(f, n):
    """The rule root_of_unity followed before it worked by exact order: the
    modulus root x when x has order n, otherwise alpha^((q-1)/n) for the
    smallest full-order alpha."""
    x = f.modulus_root()
    if f.m > 1 and (x ** n).is_one() and all(
            not (x ** (n // r)).is_one() for r in _prime_factors(n)):
        return x
    return _smallest_full_order(f) ** ((f.order - 1) // n)


def test_root_of_unity_keeps_the_former_roots_of_default_fields():
    # descriptors, code hashes and cache keys name codes by their host's
    # modulus and leaders, so every default field keeps every root
    fields = [make_field(p, m) for p in (2, 3, 5) for m in range(1, 13)
              if p ** m <= 3 ** 8]
    fields += [make_field(3, 6), make_field(3, 18)]  # pinned moduli
    for f in fields:
        for n in _divisors(f.order - 1):
            assert root_of_unity(f, n) == _former_root(f, n), (f, n)


def test_root_of_unity_known_departures_from_the_former_rule():
    # prime fields with p >= 7, and supplied non-primitive moduli: another
    # element of the same order, so an equivalent code
    gf7 = make_field(7, 1)
    assert root_of_unity(gf7, 3).as_int() == 4
    assert _former_root(gf7, 3).as_int() == 2
    f = make_field(3, 4, [1, 2, 0, 1, 1])
    assert root_of_unity(f, 5) != _former_root(f, 5)
    assert root_of_unity(f, 20) == _former_root(f, 20) == f.modulus_root()
    for n in _divisors(80):
        assert elem_order(root_of_unity(f, n)) == n


def test_has_order_matches_order():
    for f in (make_field(3, 4), make_field(5, 2)):
        q1 = f.order - 1
        divisors = [n for n in range(1, q1 + 1) if q1 % n == 0]
        assert not any(_has_order(f.zero(), n) for n in divisors)
        for x in list(f.elements())[1:]:
            o = x.order()
            for n in divisors:
                assert _has_order(x, n) == (o == n)


def test_characteristic_above_one_byte_digits_rejected():
    with pytest.raises(FieldError, match="> 251"):
        make_field(257, 1)
