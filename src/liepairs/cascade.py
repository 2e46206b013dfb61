"""Kostant's cascade of strongly orthogonal roots.

For a subset T of the simple roots the cascade K(T) is defined by
recursion: it is empty for empty T, the union over connected components
for disconnected T, and for connected T it is {T} together with the
cascade of the simple roots of T orthogonal to the highest root of R_T.
Each entry carries its highest root eps_K and the set Gamma^K of
positive roots of R_K not orthogonal to eps_K; the Gamma^K partition
the positive roots supported on T.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .rootsystem import (
    RootSystem,
    connected_components,
    strongly_orthogonal,
    subsystem_positive_roots,
)


@dataclass(frozen=True)
class CascadeEntry:
    subset_K: frozenset          # simple-root indices
    epsilon_K: tuple             # highest root of R_K
    gamma_K: tuple               # positive roots of R_K not orthogonal to eps_K

    def __repr__(self):
        ks = "{" + ",".join(f"a{i + 1}" for i in sorted(self.subset_K)) + "}"
        return f"CascadeEntry({ks}, eps={list(self.epsilon_K)})"


def cascade(rs: RootSystem, subset) -> list:
    """The cascade K(T) for T a set of simple-root indices."""
    out = []
    for comp in connected_components(rs, subset):
        roots = subsystem_positive_roots(rs, comp)
        # sorted by height, and R_K is irreducible: the last is its highest
        eps = roots[-1]
        w = [sum(map(mul, row, eps)) for row in rs._gram6]
        # w = 6 (eps, alpha_j)_j: r is orthogonal to eps iff r . w == 0, a
        # sum over the j in K with w_j != 0 (at most two; r_j = 0 off K)
        dot = [0] * len(roots)
        for j, x in enumerate(w):
            if x and j in comp:
                dot = [d + r[j] * x for d, r in zip(dot, roots)]
        gamma = tuple(r for r, d in zip(roots, dot) if d)
        out.append(CascadeEntry(comp, eps, gamma))
        out.extend(cascade(rs, {i for i in comp if not w[i]}))
    return out


def full_cascade(rs: RootSystem) -> tuple:
    """The cascade K(Pi) of all simple roots, computed once per
    `RootSystem` and returned as a tuple."""
    if rs._cascade is None:
        object.__setattr__(rs, "_cascade", tuple(cascade(rs, range(rs.rank))))
    return rs._cascade


def _cascade_of(rs, subset):
    """K(T) for a frozenset T, read through `full_cascade` when T = Pi."""
    if subset == frozenset(range(rs.rank)):
        return full_cascade(rs)
    return cascade(rs, subset)


def verify_gamma_partition(rs: RootSystem, subset) -> dict:
    """Check the structural identities of the cascade over T.

    Verifies that the Gamma^K are pairwise disjoint and cover the
    positive roots supported on T, that every alpha in Gamma^K other
    than eps_K has a unique partner beta in Gamma^K with
    alpha + beta = eps_K, and that the supports of cascade entries are
    nested or disjoint.  Returns a report dict; `failures` lists any
    witnesses (and stays empty for every root system in scope).
    """
    subset = frozenset(subset)
    entries = _cascade_of(rs, subset)
    failures = []

    seen = {}
    for e in entries:
        for r in e.gamma_K:
            if r in seen:
                failures.append({
                    "check": "disjoint",
                    "root": list(r),
                    "entries": [sorted(seen[r]), sorted(e.subset_K)],
                })
            seen[r] = e.subset_K
    all_pos = set(subsystem_positive_roots(rs, subset))
    missed = all_pos - set(seen)
    for r in sorted(missed):
        failures.append({"check": "cover", "root": list(r)})

    for e in entries:
        gamma = set(e.gamma_K)
        for a in e.gamma_K:
            if a == e.epsilon_K:
                continue
            # the roots of Gamma^K are distinct, so the partner is unique
            # if it is there at all
            b = tuple(x - y for x, y in zip(e.epsilon_K, a))
            if b not in gamma:
                failures.append({
                    "check": "unique-complement",
                    "root": list(a),
                    "entry": sorted(e.subset_K),
                    "partners": [],
                })

    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i].subset_K, entries[j].subset_K
            if not (a <= b or b <= a or not (a & b)):
                failures.append({
                    "check": "nesting",
                    "entries": [sorted(a), sorted(b)],
                })

    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "subset": sorted(subset),
        "entries": len(entries),
        "gamma_sizes": [len(e.gamma_K) for e in entries],
        "positive_roots": len(all_pos),
        "failures": failures,
        "ok": not failures,
    }


def epsilons_strongly_orthogonal(rs: RootSystem, subset) -> bool:
    """True iff the highest roots of the cascade entries are pairwise
    strongly orthogonal."""
    eps = [e.epsilon_K for e in _cascade_of(rs, frozenset(subset))]
    for i in range(len(eps)):
        for j in range(i + 1, len(eps)):
            if not strongly_orthogonal(rs, eps[i], eps[j]):
                return False
    return True
