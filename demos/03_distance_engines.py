"""Walkthrough: how minimum distances get settled.

Three tools: the Brouwer-Zimmermann information-set search (exact for any
linear code whose words up to the upper bound U fit the budget, and a lower
bound up to a smaller reach), the meet-in-the-middle column search (exact
for small weights, any dimension), and the bracket of the BCH bound and U
(Singleton, Griesmer, sphere packing and the residual-code step) when no
engine can finish.  distance_report runs whichever engine counts fewer
words.  A blocked full enumeration of all q^k messages gives weight
distributions.
Run:  python demos/03_distance_engines.py
"""

import time

from negacyclic import (SearchBudget, build_family1, build_family2,
                        distance_report, information_set_search,
                        low_weight_search, sphere_packing_max_d,
                        weight_distribution)
from negacyclic.distance import upper_bound

# The [41,8] code has d = 22.  G in reduced row-echelon form makes [0, 8)
# an information set, and the negacyclic shift maps each window [j, j + 8)
# mod 41 to the next, so the words with at most w nonzeros on the first
# window stand for those of all 41 windows.  Any other word has w + 1
# nonzeros on each window, and each position lies in 8 of them, so its
# weight is at least ceil(41(w + 1)/8); once that reaches the best word
# found, the word is a minimum.
# The levels are built from the redundancy parts of the rows, kept as
# one-hot planes of their base-p digits; the column search adds syndromes
# with the same digit-plane kernel.
b = build_family2(4, 41)
t0 = time.time()
rep = information_set_search(b.code)
print(f"[41,8] information sets: d = {rep.d} in {time.time()-t0:.2f}s "
      f"({rep.work} words of 3^8 messages, one per scalar class)")
print("witness:", "".join(str(v) for v in rep.witness))

# The dual has dimension 33 -- hopeless to enumerate, but its distance is
# tiny, so the column search over parity-check syndromes settles it.
t0 = time.time()
rep = low_weight_search(b.dual, 6)
print(f"[41,33] column search: d = {rep.d} in {time.time()-t0:.2f}s")

# The [34,18] dual of family 1 at rho = 17 has 3^18 messages, over the
# default 3^16 budget, and d = 10, beyond the column search.  A word with
# w + 1 nonzeros on each of its 34 windows weighs at least
# ceil(34(w + 1)/18), which reaches 10 at w = 4: some 28 k words settle it
# (the two disjoint windows [0, 18) and [18, 36) mod 34 alone give 2w,
# and took 165 k).
b17 = build_family1(17)
t0 = time.time()
rep = information_set_search(b17.dual)
print(f"[34,18] information sets: d = {rep.d} in {time.time()-t0:.2f}s "
      f"({rep.work} words, one per scalar class)")

# Settling the [58,28] code of family 1 at rho = 29 (d = 18 in Table 2)
# would take 7.3 * 10^9 words or more.  With a reach D the same search stops
# at the first level W whose disjoint windows [0, 28), [28, 56) and
# [56, 84) mod 58, which share 26 positions, give L(W) > D: L(3) = 8 and
# L(4) = 10.  distance_report proves d > 6, the column search's weight cap,
# and lets the search spend up to the column search's 513,881 side entries
# to weight 6: level 4 takes 177,688 words in all (level 5 would take
# 1.75 M), so it asks for D = L(4) - 1 = 9.  There a word it has not met
# has 5 nonzeros on each of the 58 windows [j, j + 28), and each position
# lies in 28 of them, so d >= 58 * 5 / 28, that is d >= 11.
code29 = build_family1(29).code
t0 = time.time()
rep = distance_report(code29)
print(f"[58,28] bracket: {rep.lower}..{rep.upper} in "
      f"{(time.time()-t0)*1e3:.0f} ms ({rep.lower_src}, {rep.work} words)")

# distance_report picks the engine; starve it and it falls back to bounds.
rep = distance_report(b.dual, SearchBudget(max_message_enum=3 ** 10,
                                           max_column_weight=0))
print(f"bounds-only report: {rep.lower}..{rep.upper} exact={rep.exact} "
      f"({rep.lower_src} / {rep.upper_src})")

# The even-distance refinement is what pins several dual distances: for a
# [41,33] code the plain volume bound allows 6, the refinement does not.
print("packing max d at (41,33):", sphere_packing_max_d(41, 33, 3))

# The ceiling of every bracket is U = upper_bound(n, k, q), which holds for
# every linear [n, k]_q code.  Sphere packing allows d = 22 for [58,28]_3,
# but a code of minimum distance d has a residual [58 - d, 27, >= ceil(d/3)]
# code, which the same bounds rule out for d = 21 and 22.
print("packing max d at (58,28):", sphere_packing_max_d(58, 28, 3),
      "upper bound:", upper_bound(58, 28, 3))

# Weight distributions come from the blocked enumeration: an inner block,
# every word of half the rows as digit planes, against one sum of the other
# rows per scalar class, both taken from the engines' colex tables.
b1 = build_family1(5)
print("weight distribution of [10,4,6]:", weight_distribution(b1.code))
