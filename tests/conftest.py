import pytest

from negacyclic import ff


@pytest.fixture(scope="session")
def smallest_irreducible():
    """smallest_irreducible(p, m): the smallest candidate of the modulus
    sieve that passes Rabin's test, a degree-m irreducible over GF(p) found
    without factoring p^m - 1."""
    def find(p, m):
        for enc in ff._sieved(p, m, min(m // 2, ff._sieve_exponent(p))):
            f = ff._monic(p, enc, m)
            if ff.Field._ring(p, f)._rabin_irreducible():
                return f
    return find
