"""Nilpotent-orbit combinatorics for so_{p+2} and its real form so(p,2).

Complex nilpotent orbits are Young diagrams of p+2 where even rows come
in pairs (P1) and an all-even diagram carries a numeral I or II (P2).
Real orbits are signed Young diagrams of signature (p,2): signs
alternate across rows, even rows start with + (P3), an all-even diagram
carries two numerals (P4), and a diagram with odd rows carries one
numeral exactly when all odd rows agree on having an even number of +
boxes, or all agree on an even number of - boxes (P5).

The characteristic of an orbit is the row-data recipe on the multiset
of weights d_i-1, d_i-3, ..., 1-d_i; an orbit is even iff every
characteristic entry is 0 or 2.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import NamedTuple

from .errors import UsageError


class YoungDiagram(NamedTuple):
    rows: tuple                 # weakly decreasing positive ints
    numeral: str | None = None  # "I" / "II" when all rows are even

    def __repr__(self):
        tag = f", {self.numeral}" if self.numeral else ""
        return f"YD({self.rows}{tag})"


class SignedYoungDiagram(NamedTuple):
    rows: tuple                 # ((length, leading_sign), ...) canonical
    numerals: tuple = ()        # 0, 1 or 2 entries in {"I", "II"}

    @property
    def shape(self):
        """The row lengths, weakly decreasing: canonical rows sort by
        length first."""
        return tuple(l for l, _ in self.rows)

    def sign_string(self):
        out = []
        for length, lead in self.rows:
            other = "-" if lead == "+" else "+"
            out.append("".join(lead if i % 2 == 0 else other
                               for i in range(length)))
        return "/".join(out)

    def kernel_signs(self, k):
        """(#+, #-) among the last k boxes of the rows, an even pair read
        as one +-... row and one -+... row: ker X^k is those boxes."""
        rows = self.sign_string().split("/")
        flip = str.maketrans("+-", "-+")
        tail = "".join((r.translate(flip) if len(r) % 2 == 0
                        and rows[:i].count(r) % 2 else r)[-k:]
                       for i, r in enumerate(rows))
        return tail.count("+"), tail.count("-")

    def __repr__(self):
        tag = "".join("," + n for n in self.numerals)
        return f"SYD({self.sign_string()}{tag})"


def _count_signs(length, lead):
    """(#plus, #minus) in a row of given length and leading sign."""
    lead_count = (length + 1) // 2
    other = length // 2
    if lead == "+":
        return lead_count, other
    return other, lead_count


def _partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def enumerate_yd(n):
    """All complex nilpotent orbits of so_n as decorated diagrams."""
    out = []
    for rows in _partitions(n):
        counts = {}
        for r in rows:
            counts[r] = counts.get(r, 0) + 1
        if any(r % 2 == 0 and c % 2 for r, c in counts.items()):
            continue
        if rows and all(r % 2 == 0 for r in rows):
            out.append(YoungDiagram(rows, "I"))
            out.append(YoungDiagram(rows, "II"))
        else:
            out.append(YoungDiagram(rows))
    return out


def _canonical_rows(rows):
    # + sorts before - within a length block
    return tuple(sorted(rows, key=lambda t: (-t[0], t[1] != "+")))


# The rows that can hold one of the two - boxes of signature (p,2): a row
# of length l holds at least l // 2 of them.  Every other row is (1,+).
# No (4,+): a lone even row breaks P1, and a pair of them holds four -.
_MINUS_ROWS = ((1, "-"), (3, "+"), (3, "-"), (5, "+"), (2, "+"))


def enumerate_dyo(p):
    """All real nilpotent orbits of so(p,2) as signed diagrams, ordered by
    descending shape, then by leading signs (+ before -).

    Each diagram is one or two rows of _MINUS_ROWS holding exactly two -
    boxes, with paired even rows (P1), filled up with (1,+) rows.
    """
    if p < 2:
        raise UsageError("signature (p,2) requires p >= 2")
    n = p + 2
    found = []
    for k in (1, 2):
        for pick in combinations_with_replacement(_MINUS_ROWS, k):
            size = sum(l for l, _ in pick)
            if (size <= n
                    and sum(_count_signs(l, s)[1] for l, s in pick) == 2
                    and all(l % 2 or pick.count((l, s)) % 2 == 0
                            for l, s in pick)):
                found.append(_canonical_rows(pick + ((1, "+"),) * (n - size)))
    found.sort(key=lambda rows: ([-l for l, _ in rows], [s for _, s in rows]))
    return [d for rows in found for d in _numeral_variants(rows)]


def _numeral_variants(rows):
    shape = [l for l, _ in rows]
    if all(l % 2 == 0 for l in shape):
        # P4: two numerals, four orbits
        return [SignedYoungDiagram(rows, (a, b))
                for a in ("I", "II") for b in ("I", "II")]
    odd = [(l, s) for l, s in rows if l % 2]
    plus_even = all(_count_signs(l, s)[0] % 2 == 0 for l, s in odd)
    minus_even = all(_count_signs(l, s)[1] % 2 == 0 for l, s in odd)
    if plus_even or minus_even:
        # P5: one numeral
        return [SignedYoungDiagram(rows, (n,)) for n in ("I", "II")]
    return [SignedYoungDiagram(rows)]


def minimal_shape(p):
    """(2,2,1^(p-2)), the shape of the minimal nilpotent orbit of so_{p+2}."""
    return (2, 2) + (1,) * (p - 2)


def forget_signs(d: SignedYoungDiagram) -> YoungDiagram:
    """Underlying complex orbit diagram.

    The numeral decorations are dropped: which real numeral corresponds
    to which complex numeral I/II is a convention the combinatorics
    alone does not determine, so no numeral is guessed here.
    """
    return YoungDiagram(d.shape)


# ---------------------------------------------------------------------------
# characteristics


def _weight_terms(rows):
    out = []
    for d in rows:
        out.extend(range(d - 1, -d, -2))
    return out


def characteristic(d: YoungDiagram):
    """Candidate characteristics of the orbit with the given diagram, as a
    tuple of tuples over {0,1,2}; see characteristic_of_weights."""
    return characteristic_of_weights(_weight_terms(d.rows), d.numeral)


def characteristic_of_weights(weights, numeral):
    """Candidate characteristics of a nilpotent orbit of so_n whose neutral
    element H has the eigenvalue multiset `weights` (length n).

    There is one candidate, except for so_{2r} without the weight 0 (an
    all-even diagram), which gives the pair (C^I, C^II) when `numeral` is
    None and only the matching one when it is "I" or "II".
    """
    n = len(weights)
    r = n // 2
    pos = sorted((t for t in weights if t > 0), reverse=True)
    zeros = weights.count(0)
    # for odd n the sequence rearranges to (0, h_1..h_r, -h_1..-h_r): one
    # zero leads, the remaining zeros split evenly between the h's and -h's
    h = pos + [0] * ((zeros - n % 2) // 2)
    if len(h) != r:
        raise ValueError(f"weights {list(weights)}: {len(h)} values h_i"
                         f" for rank {r}, not H's eigenvalues on so_{n}")
    if n % 2 == 1:
        return (tuple(h[i] - h[i + 1] for i in range(r - 1)) + (h[r - 1],),)
    if zeros:
        head = tuple(h[i] - h[i + 1] for i in range(r - 1))
        return (head + (h[r - 2] + h[r - 1],),)
    a = 0 if r % 4 == 0 else 2
    head = tuple(h[i] - h[i + 1] for i in range(r - 2))
    c1 = head + (a, 2 - a)
    c2 = head + (2 - a, a)
    if numeral == "I":
        return (c1,)
    if numeral == "II":
        return (c2,)
    return (c1, c2)


def is_even(entries) -> bool:
    """True iff every characteristic entry is 0 or 2."""
    return all(x in (0, 2) for x in entries)
