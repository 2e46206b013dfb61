"""Finite root systems of types A-G in simple-root coordinates.

Roots are integer tuples over the simple-root basis, built by reflection
closure from the Cartan matrix.  The invariant bilinear form is normalized
so that long roots have squared length 2; with that normalization every
pairing used here is rational and most are integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    # d_i proportional to (a_i,a_i) symmetrizes C: d_i C_ij = d_j C_ji.
    # A Dynkin diagram is a forest, so one pass from node 0 sets each node
    # of its component from its parent; the other component of D2 keeps 1
    rank = len(C)
    d = [Fraction(1)] * rank
    stack, seen = [0], {0}
    while stack:
        i = stack.pop()
        for j in range(rank):
            if C[i][j] and j not in seen:
                d[j] = d[i] * Fraction(C[i][j], C[j][i])
                seen.add(j)
                stack.append(j)
    top = max(d)
    return [Fraction(2) * x / top for x in d]


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    cartan_matrix: tuple
    positive_roots: tuple          # tuples of ints, simple-root coordinates
    lengths: tuple                 # (a_i, a_i), long roots squared length 2

    def __post_init__(self):
        pos = set(self.positive_roots)
        object.__setattr__(self, "_root_set",
                           pos | {tuple(-c for c in r) for r in pos})
        # 6 (a_i, a_j) = 3 |a_i|^2 C_ij is integral: |a_i|^2 is 2, 1 or 2/3
        gram = [[3 * li * cij for cij in row]
                for li, row in zip(self.lengths, self.cartan_matrix)]
        assert all(x.denominator == 1 for row in gram for x in row)
        object.__setattr__(self, "_gram6",
                           tuple(tuple(int(x) for x in row) for row in gram))

    # -- pairing helpers ----------------------------------------------------

    def form6(self, a, b):
        """6 (a, b), an integer, for integer coordinate vectors."""
        total = 0
        for ai, row in zip(a, self._gram6):
            if ai:
                total += ai * sum(g * bj for g, bj in zip(row, b))
        return total

    def form(self, a, b):
        """Invariant bilinear form (a, b) for integer coordinate vectors."""
        return Fraction(self.form6(a, b), 6)

    def is_root(self, a):
        return tuple(a) in self._root_set

    def pairing(self, a, i):
        """<a, alpha_i^vee> = 2(a, alpha_i)/(alpha_i, alpha_i), an integer."""
        return sum(a[j] * self.cartan_matrix[i][j] for j in range(self.rank))

    def orthogonal(self, a, b):
        return self.form(a, b) == 0

    def support(self, a):
        return frozenset(i for i, c in enumerate(a) if c)


def build_root_system(type_label, rank):
    """Construct the root system by reflection closure from the Cartan matrix.

    Positive roots come out in a deterministic order: graded by height, then
    lexicographically by coordinates.
    """
    C = cartan_matrix(type_label, rank)
    lengths = _root_lengths(C)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for a in frontier:
            for i in range(rank):
                c = sum(a[j] * C[i][j] for j in range(rank))
                b = list(a)
                b[i] -= c
                b = tuple(b)
                if b not in roots and not all(x == 0 for x in b):
                    roots.add(b)
                    nxt.append(b)
        frontier = nxt
    positive = sorted((r for r in roots if all(c >= 0 for c in r)),
                      key=lambda r: (sum(r), r))
    rs = RootSystem(type_label, rank, tuple(tuple(r) for r in C),
                    tuple(positive), tuple(lengths))
    return rs


def strongly_orthogonal(rs, a, b):
    """True iff neither a+b nor a-b is a root."""
    a, b = tuple(a), tuple(b)
    if a == b:
        raise ValueError("strong orthogonality is only defined for distinct roots")
    if not rs.is_root(a) or not rs.is_root(b):
        raise ValueError("inputs must be roots of the given system")
    s = tuple(x + y for x, y in zip(a, b))
    d = tuple(x - y for x, y in zip(a, b))
    return not rs.is_root(s) and not rs.is_root(d)


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
    subset = frozenset(subset)
    return [r for r in rs.positive_roots if rs.support(r) <= subset]


def highest_root_of_subset(rs, subset):
    """Highest root of the (irreducible) subsystem R_T, T a connected subset."""
    roots = subsystem_positive_roots(rs, subset)
    if not roots:
        raise ValueError("empty subset has no highest root")
    best = max(roots, key=lambda r: (sum(r), r))
    for r in roots:
        if any(rc > bc for rc, bc in zip(r, best)):
            raise ValueError("subset is not connected: no highest root")
    return best
