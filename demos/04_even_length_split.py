"""Walkthrough: splitting an even-length negacyclic code over GF(q), q = 1 mod 4.

With a square root of -1 available, x^n + 1 factors as the product of two
half-length binomials, the code splits into two constacyclic residue codes,
and in coordinates the split is the (u+v | u-v) combination.  GF(3) has no
such root, so the demonstration field is GF(5).
Run:  python demos/04_even_length_split.py
"""

from negacyclic import (NegacyclicCode, Poly, distance_report, make_field,
                        residue_distance_relation, uv_construct,
                        weight_distribution)

gf5 = make_field(5, 1)

# x^6 + 1 over GF(5) and a generator that keeps both residues nonzero.
g = Poly.from_scalars(gf5, [3, 1]) * Poly.from_scalars(gf5, [2, 1])
code = NegacyclicCode.from_generator(gf5, 6, g, -1)
print("code:", code, "generator:", code.g.to_text())

res_minus, res_plus, lam = code.residue_decompose()
print("square root of -1:", lam.as_int())
print("residues:", res_minus, f"(lambda={res_minus.lam.as_int()})",
      "|", res_plus, f"(lambda={res_plus.lam.as_int()})")
print("dimension additivity:", code.k, "=", res_minus.k, "+", res_plus.k)

# Distances: one zero residue doubles the other side; two live residues give
# either an exact value or only an interval.
d1 = distance_report(res_minus).d
d2 = distance_report(res_plus).d
print("residue distances:", d1, d2)
print("relation:", residue_distance_relation(d1, d2),
      "| true distance:", distance_report(code).d)

# The idempotent recombination e1*c1 + e2*c2 rebuilds the code exactly.
words = {tuple(int(v) for v in w) for w in code.codewords()}
rebuilt = {tuple(int(v) for v in code.residue_recombine(lam, w1, w2))
           for w1 in res_minus.codewords() for w2 in res_plus.codewords()}
print("recombination rebuilds the code:", rebuilt == words)

# And in coordinates the split is (u+v | u-v): same weight distribution.
print("u+v|u-v weights match:",
      weight_distribution(uv_construct(res_minus, res_plus))
      == weight_distribution(code))
