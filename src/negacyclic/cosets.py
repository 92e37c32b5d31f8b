"""q-cyclotomic cosets modulo N, multiplicative orders, base-3 digit weights,
and the digit-sum residue classes mod 4.

CosetTable is immutable after construction; build once, share freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


class CosetError(ValueError):
    """Invalid coset computation."""


def mult_order(q: int, n: int) -> int:
    """Smallest l >= 1 with q^l = 1 (mod n); requires gcd(q, n) = 1."""
    if n < 1:
        raise CosetError(f"modulus must be positive, got {n}")
    if math.gcd(q, n) != 1:
        raise CosetError(f"gcd({q}, {n}) != 1; no multiplicative order")
    if n == 1:
        return 1
    t = q % n
    order = 1
    while t != 1:
        t = (t * q) % n
        order += 1
    return order


@dataclass(frozen=True)
class CosetTable:
    """All q-cyclotomic cosets mod N, with leaders and the odd-leader subset."""

    q: int
    N: int
    cosets: Mapping[int, tuple[int, ...]]
    leaders: tuple[int, ...]
    odd_leaders: tuple[int, ...]
    leader_of: Mapping[int, int]

    def coset_of(self, i: int) -> tuple[int, ...]:
        return self.cosets[self.leader_of[i % self.N]]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "N": self.N,
            "leaders": list(self.leaders),
            "odd_leaders": list(self.odd_leaders),
            "cosets": {str(l): list(c) for l, c in self.cosets.items()},
        }


def build_cosets(q: int, N: int) -> CosetTable:
    """Partition {0,...,N-1} into orbits under multiplication by q mod N."""
    if q < 2:
        raise CosetError(f"q = {q} must be at least 2")
    if N < 1:
        raise CosetError(f"modulus N = {N} must be at least 1")
    if math.gcd(q, N) != 1:
        raise CosetError(f"gcd({q}, {N}) != 1; residues would not partition")
    seen = [False] * N
    cosets: dict[int, tuple[int, ...]] = {}
    leader_of: dict[int, int] = {}
    for i in range(N):
        if seen[i]:
            continue
        members = []
        j = i
        while not seen[j]:
            seen[j] = True
            members.append(j)
            j = (j * q) % N
        leader = min(members)
        cosets[leader] = tuple(sorted(members))
        for j in members:
            leader_of[j] = leader
    leaders = tuple(sorted(cosets))
    odd_leaders = tuple(l for l in leaders if l % 2 == 1)
    return CosetTable(q, N, cosets, leaders, odd_leaders, leader_of)


def wt3(i: int, m: int | None = None) -> int:
    """Base-3 digit sum of i; with m given, i must lie in [0, 3^m - 1]."""
    if i < 0 or (m is not None and i > 3 ** m - 1):
        raise CosetError(f"{i} outside [0, 3^{m} - 1]")
    w = 0
    while i:
        w += i % 3
        i //= 3
    return w


def weight_class_sizes(m: int) -> tuple[int, int, int, int]:
    """Closed-form sizes of the four digit-sum classes mod 4 on {0,1,2}^m."""
    if m < 2:
        raise CosetError(f"need m >= 2, got {m}")
    t = 3 ** m
    if m % 2 == 0:
        sign = (-1) ** (m // 2)
        return ((t + 1 + 2 * sign) // 4, (t - 1) // 4,
                (t + 1 - 2 * sign) // 4, (t - 1) // 4)
    sign = (-1) ** ((m - 1) // 2)
    return ((t + 1) // 4, (t - 1 + 2 * sign) // 4,
            (t + 1) // 4, (t - 1 - 2 * sign) // 4)


@dataclass(frozen=True)
class WeightClassPartition:
    """Digit strings of length m split by digit sum mod 4."""

    m: int
    class_members: Mapping[int, frozenset[int]]
    class_sizes: tuple[int, int, int, int]


def weight_classes(m: int) -> WeightClassPartition:
    """Enumerate the partition and cross-check sizes against the closed forms."""
    if m < 2:
        raise CosetError(f"need m >= 2, got {m}")
    members: dict[int, set[int]] = {0: set(), 1: set(), 2: set(), 3: set()}
    for i in range(3 ** m):
        members[wt3(i) % 4].add(i)
    sizes = tuple(len(members[j]) for j in range(4))
    expected = weight_class_sizes(m)
    if sizes != expected:
        raise CosetError(
            f"class sizes {sizes} disagree with closed forms {expected} at m={m}")
    return WeightClassPartition(
        m, {j: frozenset(members[j]) for j in range(4)}, sizes)
