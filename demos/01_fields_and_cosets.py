"""Walkthrough: the arithmetic substrate.

Builds GF(3^m) towers, picks roots of unity, evaluates traces, and exposes
the cyclotomic-coset and digit-weight bookkeeping everything else rests on.
Run:  python demos/01_fields_and_cosets.py
"""

from negacyclic import (build_cosets, make_field, mult_order,
                        primitive_element, root_of_unity, trace,
                        weight_classes, wt3)

# A field is pinned down by (p, m, modulus); omitting the modulus picks the
# smallest primitive one, so every run reconstructs the same field.
f81 = make_field(3, 4)
print("GF(81) modulus:", ",".join(map(str, f81.modulus)),
      "(primitive)" if primitive_element(f81) == f81.modulus_root() else "")
alpha = primitive_element(f81)
print("primitive element encodes as", alpha.as_int(), "with order", alpha.order())

# A worked construction usually fixes its own root: supplying that modulus
# makes the modulus root the 20th root of unity the construction refers to.
f81_pinned = make_field(3, 4, [1, 2, 0, 1, 1])
beta = root_of_unity(f81_pinned, 20)
print("pinned beta == modulus root:", beta == f81_pinned.modulus_root())
print("beta^10 == -1:", beta ** 10 == -f81_pinned.one())

# Traces land in the subfield and are GF(3)-linear.
x = f81.from_int(37)
print("Tr(x) down to GF(3):", trace(x, 1).as_int())
print("Tr(x) down to GF(9) is GF(9)-stable:",
      trace(x, 2) ** 9 == trace(x, 2))

# 3-cyclotomic cosets mod 2n drive every code construction of length n.
table = build_cosets(3, 20)
print("\ncosets mod 20:")
for leader, members in table.cosets.items():
    print(f"  C_{leader} = {list(members)}")
print("odd leaders:", list(table.odd_leaders))
print("ord_20(3) =", mult_order(3, 20))

# Base-3 digit sums mod 4 partition residues into the four classes that
# define the fourth family.
wc = weight_classes(3)
print("\ndigit-sum classes for m=3, sizes:", wc.class_sizes)
print("wt3(3^4-1) =", wt3(3 ** 4 - 1), "(all digits are 2)")
