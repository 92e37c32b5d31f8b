import math
from unittest import mock

import numpy as np
import pytest

from negacyclic.codes import (CodeError, ConstacyclicCode, LinearCode,
                              NegacyclicCode, mat_mul,
                              residue_distance_relation, rref, uv_construct)
from negacyclic.distance import distance_report, weight_distribution
from negacyclic.families import (FAMILY2_EXAMPLES, FAMILY3_EXAMPLES,
                                 build_family1, build_family2, build_family3,
                                 build_family4)
from negacyclic.ff import make_field
from negacyclic.poly import Poly
from negacyclic.verify import descriptor_hash, verify_claims

GF3 = make_field(3, 1)
GF5 = make_field(5, 1)


def test_from_check_c5():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    assert (c.n, c.k) == (10, 4)
    assert c.g.degree == 6
    assert c.zero_leaders == (5, 11)
    # g is the product of the two zero-coset minimal polynomials
    assert set(c.zero_exponents) == {5, 15, 11, 13, 17, 19}


def test_codes_over_one_field_length_and_lambda_share_their_context():
    a = NegacyclicCode.from_zeros(GF3, 10, [1])
    b = NegacyclicCode.from_zeros(GF3, 10, [5, 11])
    c = NegacyclicCode.from_check(GF3, 10, [1])
    d = NegacyclicCode.from_generator(GF3, 10, a.g)
    for other in (b, c, d):
        assert other.table is a.table
        assert other.host is a.host
        assert other.beta is a.beta
    cyc = NegacyclicCode.from_zeros(GF3, 10, [1], 1)
    assert cyc.table is not a.table and cyc.R == 10


def test_from_check_family3_m3():
    c = NegacyclicCode.from_check(GF3, 13, [1, 17])
    assert (c.n, c.k) == (13, 6)


def test_from_check_all_odd_cosets_gives_full_space():
    from negacyclic.cosets import build_cosets
    t = build_cosets(3, 20)
    c = NegacyclicCode.from_check(GF3, 10, list(t.odd_leaders))
    assert c.k == 10
    assert c.g == Poly.one(GF3)


def test_from_check_rejects_even_leader():
    with pytest.raises(CodeError, match="not eligible"):
        NegacyclicCode.from_check(GF3, 10, [2])


def test_from_check_rejects_overlapping_cosets():
    with pytest.raises(CodeError, match="overlap"):
        NegacyclicCode.from_check(GF3, 10, [1, 3])  # 3 is in the coset of 1


def test_from_generator_full_and_zero():
    g = Poly.x_pow_minus(GF3, 10, -GF3.one())
    zero = NegacyclicCode.from_generator(GF3, 10, g)
    assert zero.k == 0
    full = NegacyclicCode.from_generator(GF3, 10, Poly.one(GF3))
    assert full.k == 10


def test_from_generator_x2_plus_1():
    c = NegacyclicCode.from_generator(GF3, 10, Poly.from_scalars(GF3, [1, 0, 1]))
    assert c.k == 8
    # the quotient (x^10+1)/(x^2+1) is the check polynomial: it generates the
    # code whose check is x^2+1, not this one
    quot = Poly.x_pow_minus(GF3, 10, -GF3.one()) // Poly.from_scalars(GF3, [1, 0, 1])
    word = [0] * 10
    for i, co in enumerate(quot.coeffs):
        word[i] = co.as_int()
    assert not c.contains(word)
    check_code = NegacyclicCode.from_check(GF3, 10, [5])
    assert check_code.k == 2
    assert check_code.g == quot.monic()
    assert check_code.contains(word)


def test_contains_rejects_words_of_the_wrong_length():
    # the [10,4] family-2 code: its first row, padded with zeros or cut short
    # (a polynomial still divisible by g), is no codeword of length 10
    code = build_family2(2, 10).code
    word = [int(v) for v in code.rows()[0]]
    assert word[-3:] == [0, 0, 0]
    linear = LinearCode(code.field, code.rows())
    for c in (code, linear):
        assert c.contains(word)
        for bad in (word + [0] * 10, word[:9], word + [0, 0]):
            assert not c.contains(bad)


def test_from_generator_family4_m3():
    b = build_family4(1, 3)
    again = NegacyclicCode.from_generator(GF3, 13, b.code.g)
    assert again.k == 7
    assert again.zero_leaders == b.code.zero_leaders


def test_from_generator_non_divisor_error_shows_remainder():
    with pytest.raises(CodeError, match="remainder"):
        NegacyclicCode.from_generator(GF3, 10, Poly.from_scalars(GF3, [1, 1]))


def test_dual_of_full_space_is_zero_code():
    full = NegacyclicCode.from_generator(GF3, 10, Poly.one(GF3))
    assert full.dual().k == 0
    zero = NegacyclicCode.from_generator(
        GF3, 10, Poly.x_pow_minus(GF3, 10, -GF3.one()))
    assert zero.dual().k == 10
    for c in (full, zero):
        assert np.array_equal(c.dual_rows(), c.dual().rows())


def test_dual_c5_parameters():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    d = c.dual()
    assert (d.n, d.k) == (10, 6)
    assert distance_report(d).d == 4


def test_double_dual_family3_m4():
    b = build_family3(4, 40)
    dd = b.code.dual().dual()
    assert dd.zero_leaders == b.code.zero_leaders
    assert dd.g == b.code.g


def _dual_from_zeros(c):
    """The dual rebuilt from minimal polynomials: from_zeros on the cosets
    of the negated nonzeros, over the default host (the code's)."""
    dual_T = {(c.R - i) % c.R for i in c._eligible() if i not in c.zero_exponents}
    leaders = sorted({c.table.leader_of[i] for i in dual_T})
    return NegacyclicCode.from_zeros(c.field, c.n, leaders, c.lam_int)


def _family_codes():
    codes = []
    for rho in (5, 7):
        b = build_family1(rho)
        codes += [b.code, b.dual, b.companion, b.companion_dual]
    for ell, n, _, _ in FAMILY2_EXAMPLES:
        b = build_family2(ell, n)
        codes += [b.code, b.dual]
    for m, n, _, _ in FAMILY3_EXAMPLES:
        b = build_family3(m, n)
        codes += [b.code, b.dual]
        if n % 2:
            codes.append(b.code.psi_image())  # a cyclic code
    codes += [build_family4(j, m).code for j in (1, 3) for m in (3, 5)]
    return codes


def test_dual_matches_from_zeros_for_every_family_code():
    for c in _family_codes():
        d, ref = c.dual(), _dual_from_zeros(c)
        assert d.g == ref.g == c.h.reciprocal()
        assert d.zero_exponents == ref.zero_exponents
        assert d.descriptor() == ref.descriptor()
        assert np.array_equal(d.rows(), ref.rows())
        dd = d.dual()
        assert dd.g == c.g and dd.zero_exponents == c.zero_exponents
        assert dd.descriptor() == c.descriptor()


def test_dual_zero_set_reciprocity():
    for c in (NegacyclicCode.from_check(GF3, 10, [1]),
              NegacyclicCode.from_check(GF3, 13, [1, 17]),
              NegacyclicCode.from_check(GF3, 14, [1])):
        d = c.dual()
        elig = set(range(1, 2 * c.n, 2))
        expect = {(2 * c.n - i) % (2 * c.n) for i in elig - set(c.zero_exponents)}
        assert set(d.zero_exponents) == expect
        assert c.k + d.k == c.n
        assert np.array_equal(c.dual_rows(), d.rows())


def test_generator_times_check_is_modulus():
    for c in (NegacyclicCode.from_check(GF3, 10, [1]),
              NegacyclicCode.from_check(GF3, 13, [1, 17]),
              build_family4(3, 3).code):
        assert c.g * c.h == Poly.x_pow_minus(GF3, c.n, -GF3.one())


def test_generator_and_parity_matrices():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    t = GF3.tables()
    G, g_pivots = rref(t, c.rows())
    H, h_pivots = rref(t, c.dual_rows())
    assert G.shape == (4, 10) and len(g_pivots) == 4
    assert H.shape == (6, 10) and len(h_pivots) == 6
    assert not mat_mul(t, G, H.T).any()
    zero = NegacyclicCode.from_generator(
        GF3, 10, Poly.x_pow_minus(GF3, 10, -GF3.one()))
    assert rref(t, zero.rows())[0].shape[0] == 0


def test_rref_is_canonical():
    t = GF3.tables()
    M = np.array([[1, 1, 0], [1, 2, 1]], dtype=t.dtype)
    R, pivots = rref(t, M)
    assert pivots == [0, 1]
    assert R[0, 0] == 1 and R[1, 1] == 1 and R[1, 0] == 0 and R[0, 1] == 0
    # a singular leading block pushes the second pivot right
    M2 = np.array([[2, 1, 0], [1, 2, 1]], dtype=t.dtype)
    assert rref(t, M2)[1] == [0, 2]


def test_encode_all_messages_are_codewords():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    for msg in range(3 ** 4):
        digits = [(msg // 3 ** r) % 3 for r in range(4)]
        assert c.contains(c.encode(digits))


def test_bch_bound_zero_code_is_n():
    from negacyclic.cosets import build_cosets
    t = build_cosets(3, 20)
    zero = NegacyclicCode.from_zeros(GF3, 10, list(t.odd_leaders))
    assert zero.k == 0
    assert zero.bch_bound() == 10


def test_bch_bound_multiplier_validation():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    with pytest.raises(CodeError, match="factor"):
        c.bch_bound(5)


def test_best_multiplier_at_least_v1():
    for c in (NegacyclicCode.from_check(GF3, 10, [1]),
              build_family4(1, 3).code):
        v, b = c.best_bch_multiplier()
        assert b >= c.bch_bound(1)
        assert b <= distance_report(c).d


def _loop_bch_bound(c, v):
    """bch_bound(v) as a run over the gaps between non-zeros, written out."""
    steps = 1 + 2 * np.arange(c.n) if c.lam_int == -1 else np.arange(c.n)
    member = c._zero_mask[(v * steps) % c.R]
    if member.all():
        return c.n
    if not member.any():
        return 1
    padded = np.concatenate([[False], member, member, [False]])
    best = int(np.max(np.diff(np.nonzero(~padded)[0]))) - 1
    return min(best, c.n - 1) + 1


def _loop_best_bch(c):
    """One multiplier per q-coset of units, ascending; the first strictly
    larger bound wins."""
    seen = set()
    best = (1, _loop_bch_bound(c, 1))
    for v in range(1, c.R):
        if math.gcd(v, c.R) != 1 or v in seen:
            continue
        w = v
        while w not in seen:
            seen.add(w)
            w = (w * c.field.order) % c.R
        b = _loop_bch_bound(c, v)
        assert c.bch_bound(v) == b
        if b > best[1]:
            best = (v, b)
    return best


def test_best_multiplier_matches_the_loop_on_every_verified_code():
    built = []
    real = NegacyclicCode.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    with mock.patch.object(NegacyclicCode, "__init__", recording):
        verify_claims("all")
    codes = {descriptor_hash(c.descriptor()): c for c in built}
    assert len(codes) == 81   # distinct codes a cold verify builds
    for c in codes.values():
        assert c.best_bch_multiplier() == _loop_best_bch(c)


def test_family4_descriptors_are_unchanged():
    # code_hash of each descriptor as built with the host passed explicitly
    want = {
        (1, 3): "d8400bbc7c63ee4ac731a91a7fdca94ce08c78912d2981aea48ae3a84e64359d",
        (1, 5): "2d81fd22bea069170cc122b823ace7b27ddb4d45a3a2b832d96222150455e8ed",
        (3, 3): "157e5a261a5caf4e9c4f5b18e6f3a7e074795d7b1a259e88d5b889991a2d3681",
        (3, 5): "52a9679934e80028a32f6f787e760cb0fc9ebe925d4351763dfc6b072406ba6d",
    }
    for (j, m), digest in want.items():
        code = build_family4(j, m).code
        assert code.host is make_field(3, m)
        assert descriptor_hash(code.descriptor()) == digest


def test_psi_image_parameters_and_weights():
    b = build_family3(3, 13)
    img = b.code.psi_image()
    assert img.lam_int == 1
    assert (img.n, img.k) == (13, 6)
    assert distance_report(img).d == 6
    assert weight_distribution(img) == weight_distribution(b.code)


def test_psi_is_involution():
    b = build_family3(3, 13)
    back = b.code.psi_image().psi_image()
    assert back.g == b.code.g and back.lam_int == -1


def test_psi_even_length_rejected():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    with pytest.raises(CodeError, match="odd length"):
        c.psi_image()


def test_psi_of_zero_code():
    zero = NegacyclicCode.from_generator(
        GF3, 13, Poly.x_pow_minus(GF3, 13, -GF3.one()))
    img = zero.psi_image()
    assert img.k == 0 and img.lam_int == 1


def test_trace_code_set_zero_and_count():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    words = c.trace_code_set()
    assert (0,) * c.n in words
    assert len(words) == 3 ** 4
    gen_words = {tuple(int(v) for v in w) for w in c.codewords()}
    assert words == gen_words


def test_residue_decompose_requires_q_1_mod_4():
    c = NegacyclicCode.from_check(GF3, 10, [1])
    with pytest.raises(CodeError, match="1 mod 4"):
        c.residue_decompose()


def test_residue_decompose_requires_even_length():
    g = Poly.from_scalars(GF5, [1, 0, 1])
    # x^2+1 divides x^6+1 over GF(5); length 3 is odd
    c = NegacyclicCode.from_generator(GF5, 3, Poly.from_scalars(GF5, [1, 1]), -1)
    with pytest.raises(CodeError, match="even"):
        c.residue_decompose()


def _q5_code(gen_scalars):
    return NegacyclicCode.from_generator(
        GF5, 6, Poly.from_scalars(GF5, gen_scalars), -1)


def test_residue_dimension_additivity_all_divisors():
    # x^6+1 = (x+2)(x^2+3x+4)(x+3)(x^2+2x+4) over GF(5)
    factors = [[2, 1], [4, 3, 1], [3, 1], [4, 2, 1]]
    for mask in range(16):
        g = Poly.one(GF5)
        for i in range(4):
            if mask >> i & 1:
                g = g * Poly.from_scalars(GF5, factors[i])
        c = NegacyclicCode.from_generator(GF5, 6, g, -1)
        r1, r2, lam = c.residue_decompose()
        assert c.k == r1.k + r2.k
        assert (lam * lam + GF5.one()).is_zero()
        assert r1.g == c.g.gcd(Poly.x_pow_minus(GF5, 3, -lam))
        assert r2.g == c.g.gcd(Poly.x_pow_minus(GF5, 3, lam))


def test_residue_distance_doubling_one_sided():
    lam2 = GF5.from_int(2)
    c = NegacyclicCode.from_generator(
        GF5, 6, Poly.x_pow_minus(GF5, 3, lam2), -1)  # x^3 - 2 divides g
    r1, r2, lam = c.residue_decompose()
    assert lam == lam2
    assert r2.k == 0
    assert distance_report(c).d == 2 * distance_report(r1).d


def test_residue_recombination_reconstructs_code():
    c = _q5_code([1, 0, 1])  # (x^2+2x+4)(x^2+3x+4) = x^4+x^2+1? use x^2+1 divisor
    # x^2+1 = (x+2)(x+3) over GF(5); divides x^6+1
    r1, r2, lam = c.residue_decompose()
    words = {tuple(int(v) for v in w) for w in c.codewords()}
    rec = {tuple(int(v) for v in c.residue_recombine(lam, w1, w2))
           for w1 in r1.codewords() for w2 in r2.codewords()}
    assert rec == words


def test_residue_interval_case_brackets_distance():
    c = _q5_code([1, 0, 1])
    r1, r2, _ = c.residue_decompose()
    d1 = distance_report(r1).d
    d2 = distance_report(r2).d
    rel = residue_distance_relation(d1, d2)
    d = distance_report(c).d
    if rel[0] == "exact":
        assert rel[1] == d
    else:
        assert rel[1] <= d <= rel[2]


def test_uv_construct_weights_and_dims():
    c = _q5_code([1, 0, 1])
    r1, r2, _ = c.residue_decompose()
    uv = uv_construct(r1, r2)
    assert uv.k == r1.k + r2.k
    assert uv.n == 2 * r1.n
    assert weight_distribution(uv) == weight_distribution(c)


def test_uv_with_zero_side_doubles_weights():
    c = _q5_code([1, 0, 1])
    r1, _, _ = c.residue_decompose()
    zero = ConstacyclicCode(GF5, 3, GF5.from_int(2),
                            Poly.x_pow_minus(GF5, 3, GF5.from_int(2)))
    uv = uv_construct(r1, zero)
    wd_uv = weight_distribution(uv)
    wd_r1 = weight_distribution(r1)
    assert wd_uv == {2 * w: c_ for w, c_ in wd_r1.items()}


def test_uv_mismatch_errors():
    c = _q5_code([1, 0, 1])
    r1, r2, _ = c.residue_decompose()
    c3 = NegacyclicCode.from_check(GF3, 10, [1])
    with pytest.raises(CodeError, match="field"):
        uv_construct(r1, c3)
    with pytest.raises(CodeError, match="length"):
        uv_construct(r1, c)


def test_descriptor_round_trip():
    for code in (NegacyclicCode.from_check(GF3, 10, [1]),
                 NegacyclicCode.from_check(make_field(3, 2), 5, [1]),
                 NegacyclicCode.from_check(GF3, 13, [1, 17], 1)):
        desc = code.descriptor()
        again = NegacyclicCode.from_descriptor(desc)
        assert again.g == code.g
        assert again.zero_leaders == code.zero_leaders
        assert again.k == code.k
        with pytest.raises(CodeError, match="k = .* disagrees"):
            NegacyclicCode.from_descriptor({**desc, "k": code.k + 1})
