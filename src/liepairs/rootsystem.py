"""Finite root systems of types A-G in simple-root coordinates.

Roots are integer tuples over the simple-root basis.  The positive roots
are generated from the simple roots by raising reflections alone, with
every coordinate bounded by 6 (the largest coefficient of any finite
type's highest root).  The invariant bilinear form is normalized so that
long roots have squared length 2; six times it is integral.  The one
raising sweep also yields each root's support mask, 6 |a|^2 and integer
key, which the cascade and the Chevalley basis read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, sub

from .errors import UsageError


def type_name(type_label, rank):
    """The type's name: B3 for ("B", 3), but F4 for ("F4", 4)."""
    return type_label if type_label[0] in "EFG" else f"{type_label}{rank}"


def cartan_matrix(type_label, rank):
    """Cartan matrix C[i][j] = 2(a_i,a_j)/(a_i,a_i), Bourbaki numbering."""
    n = rank

    def chain(n):
        C = [[0] * n for _ in range(n)]
        for i in range(n):
            C[i][i] = 2
            if i + 1 < n:
                C[i][i + 1] = -1
                C[i + 1][i] = -1
        return C

    if type_label == "A":
        if n < 1:
            raise UsageError("A requires rank >= 1")
        return chain(n)
    if type_label == "B":
        if n < 2:
            raise UsageError("B requires rank >= 2 (B1 = A1 by convention)")
        C = chain(n)
        C[n - 1][n - 2] = -2      # alpha_n short
        return C
    if type_label == "C":
        if n < 2:
            raise UsageError("C requires rank >= 2 (C1 = A1 by convention)")
        C = chain(n)
        C[n - 2][n - 1] = -2      # alpha_n long
        return C
    if type_label == "D":
        if n < 2:
            raise UsageError("D requires rank >= 2 (D2 = A1 x A1, D3 = A3)")
        if n == 2:
            return [[2, 0], [0, 2]]
        C = chain(n - 1)
        for row in C:
            row.append(0)
        C.append([0] * n)
        C[n - 1][n - 1] = 2
        C[n - 1][n - 3] = -1
        C[n - 3][n - 1] = -1
        # node n-1 attaches to n-3 only; for n = 3 this gives the A3
        # diagram with alpha_1 in the middle
        return C
    if type_label in ("E6", "E7", "E8"):
        n = int(type_label[1])
        if rank != n:
            raise UsageError(f"{type_label} has rank {n}")
        # Bourbaki: alpha_2 attaches to alpha_4; chain 1-3-4-5-...-n
        C = [[0] * n for _ in range(n)]
        for i in range(n):
            C[i][i] = 2
        edges = [(1, 3)] + [(3, 4), (4, 5)] + [(i, i + 1) for i in range(5, n)]
        edges.append((2, 4))
        for a, b in edges:
            C[a - 1][b - 1] = -1
            C[b - 1][a - 1] = -1
        return C
    if type_label == "F4":
        if rank != 4:
            raise UsageError("F4 has rank 4")
        C = chain(4)
        C[2][1] = -2   # alpha_3, alpha_4 short
        C[1][2] = -1
        return C
    if type_label == "G2":
        if rank != 2:
            raise UsageError("G2 has rank 2")
        return [[2, -3], [-1, 2]]
    raise UsageError(f"unknown type label {type_label!r}")


def _root_lengths(C):
    """Squared lengths (a_i,a_i), long roots normalized to 2."""
    # d_i = num_i / den_i ~ (a_i,a_i) symmetrizes C: d_i C_ij = d_j C_ji.  The
    # diagram is a forest, so one pass from node 0 sets each node of its
    # component from its parent; the other component of D2 keeps 1
    rank = len(C)
    num, den = [1] * rank, [1] * rank
    stack, seen = [0], {0}
    while stack:
        i = stack.pop()
        for j in range(rank):
            if C[i][j] and j not in seen:
                num[j], den[j] = num[i] * C[i][j], den[i] * C[j][i]
                seen.add(j)
                stack.append(j)
    common = lcm(*den)
    d = [n * (common // m) for n, m in zip(num, den)]
    top = max(d)
    return [Fraction(2 * x, top) for x in d]


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    cartan_matrix: tuple
    positive_roots: tuple          # tuples of ints, simple-root coordinates
    lengths: tuple                 # (a_i, a_i), long roots squared length 2
    # from the raising sweep, by positive root: support bitmask (bit i for
    # alpha_i), 6 (a, a), and key sum_k a_k 32^k; and 6 (a_i, a_j)
    _masks: tuple = field(default=(), compare=False, repr=False)
    _len6: tuple = field(default=(), compare=False, repr=False)
    _keys: tuple = field(default=(), compare=False, repr=False)
    _gram6: tuple = field(default=(), compare=False, repr=False)
    _cascade: tuple = field(default=None, init=False, compare=False, repr=False)

    @cached_property
    def negative_roots(self):
        """-a for each positive root a, in the positive order."""
        return tuple(tuple([-c for c in r]) for r in self.positive_roots)

    @cached_property
    def _root_set(self):
        return set(self.positive_roots).union(self.negative_roots)

    # -- pairing helpers ----------------------------------------------------

    def form6(self, a, b):
        """6 (a, b), an integer, for integer coordinate vectors."""
        total = 0
        for ai, row in zip(a, self._gram6):
            if ai:
                total += ai * sum(g * bj for g, bj in zip(row, b))
        return total

    def is_root(self, a):
        return tuple(a) in self._root_set

    def pairing(self, a, i):
        """<a, alpha_i^vee> = 2(a, alpha_i)/(alpha_i, alpha_i), an integer."""
        return sum(a[j] * self.cartan_matrix[i][j] for j in range(self.rank))


def build_root_system(type_label, rank):
    """Construct the positive roots from the Cartan matrix.

    From a positive root a, every reflection s_i with
    c = <a, alpha_i^vee> < 0 raises it to a - c alpha_i; each positive
    root is reached from a simple root this way, by induction on height.
    Each root carries its pairing vector, updated by one column of C per
    step, its support mask, its height (up by -c), its key (coordinate k
    in base-32 digit k, up by -c 32^i) and 6 (a, a), that of the simple
    root it started from, as reflections keep lengths.  A coordinate
    above 6 means C is not of finite type: a `ValueError`, raised before
    the key moves, so no digit overflows into a false match.

    Positive roots come out in a deterministic order: graded by height, then
    lexicographically by coordinates.
    """
    C = cartan_matrix(type_label, rank)
    lengths = _root_lengths(C)
    # 6 (a_i, a_j) = 3 |a_i|^2 C_ij is integral: |a_i|^2 is 2, 1 or 2/3
    l3 = [divmod(3 * x.numerator, x.denominator) for x in lengths]
    if any(r for _, r in l3):
        raise ValueError(f"type {type_label}, rank {rank}: 3 |a_i|^2 is not "
                         f"integral for |a_i|^2 = {[str(x) for x in lengths]}")
    gram6 = tuple(tuple(x * c for c in row) for (x, _), row in zip(l3, C))
    cols = [[row[i] for row in C] for i in range(rank)]
    # (height, coordinates, mask, 6 |a|^2, key): sorted, the first two order
    found = [(1, tuple(int(j == i) for j in range(rank)), 1 << i,
              gram6[i][i], 1 << 5 * i) for i in range(rank)]
    seen = {r[4] for r in found}
    frontier = list(zip(found, cols))
    while frontier:
        nxt = []
        for (h, a, m, l6, k), pa in frontier:
            for i, c in enumerate(pa):
                if c >= 0:
                    continue
                if a[i] - c > 6:
                    raise ValueError(f"type {type_label}, rank {rank}: root "
                                     "coordinate exceeds 6, Cartan matrix "
                                     "is not of finite type")
                kb = k - (c << 5 * i)
                if kb in seen:
                    continue
                seen.add(kb)
                b = list(a)
                b[i] -= c
                root = (h - c, tuple(b), m | 1 << i, l6, kb)
                found.append(root)
                nxt.append((root, [p - c * q for p, q in zip(pa, cols[i])]))
        frontier = nxt
    _, positive, masks, len6, keys = zip(*sorted(found))
    return RootSystem(type_label, rank, tuple(tuple(r) for r in C),
                      positive, tuple(lengths), masks, len6, keys, gram6)


def strongly_orthogonal(rs, a, b):
    """True iff neither a+b nor a-b is a root."""
    a, b = tuple(a), tuple(b)
    if a == b:
        raise ValueError("strong orthogonality is only defined for distinct roots")
    if not rs.is_root(a) or not rs.is_root(b):
        raise ValueError("inputs must be roots of the given system")
    return not rs.is_root(map(add, a, b)) and not rs.is_root(map(sub, a, b))


def connected_components(rs, subset):
    """Partition a set of simple-root indices into Dynkin-connected parts,
    ordered by smallest index."""
    subset = sorted(set(subset))
    C = rs.cartan_matrix
    seen = set()
    comps = []
    for start in subset:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in subset:
                if j not in comp and C[i][j] != 0:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def subsystem_positive_roots(rs, subset):
    """Positive roots supported on the given simple-root indices."""
    outside = ~sum(1 << i for i in set(subset))
    return [r for r, m in zip(rs.positive_roots, rs._masks)
            if not m & outside]

