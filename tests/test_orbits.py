"""Nilpotent orbit combinatorics: diagram enumeration, characteristics,
evenness."""

from itertools import product

import pytest

from liepairs import orbits
from liepairs.orbits import (
    SignedYoungDiagram,
    YoungDiagram,
    _canonical_rows,
    _count_signs,
    _numeral_variants,
    _partitions,
    characteristic,
    enumerate_dyo,
    enumerate_yd,
    forget_signs,
    is_even,
)


def exhaustive_dyo(p):
    """Reference: every sign tuple of every partition of p + 2 with paired
    even rows, keeping those with exactly two - boxes, in scan order."""
    out = []
    for shape in _partitions(p + 2):
        if any(r % 2 == 0 and shape.count(r) % 2 for r in shape):
            continue
        seen = set()
        for leads in product("+-", repeat=sum(r % 2 for r in shape)):
            it = iter(leads)
            rows = [(r, "+" if r % 2 == 0 else next(it)) for r in shape]
            if sum(_count_signs(l, s)[1] for l, s in rows) != 2:
                continue
            canon = _canonical_rows(rows)
            if canon not in seen:
                seen.add(canon)
                out.extend(_numeral_variants(canon))
    return out


def test_complex_orbits_small():
    # so_4: partitions of 4 with even rows paired: (3,1), (2,2)+numerals, 1^4
    shapes = [(d.rows, d.numeral) for d in enumerate_yd(4)]
    assert ((3, 1), None) in shapes
    assert ((2, 2), "I") in shapes and ((2, 2), "II") in shapes
    assert ((1, 1, 1, 1), None) in shapes
    assert len(shapes) == 4
    # so_5 has no all-even partitions: no numerals
    assert all(d.numeral is None for d in enumerate_yd(5))
    assert len(enumerate_yd(5)) == 4  # (5), (3,1,1), (2,2,1), (1^5)


def test_even_row_pairing_enforced():
    for d in enumerate_yd(8):
        counts = {}
        for r in d.rows:
            counts[r] = counts.get(r, 0) + 1
        for r, c in counts.items():
            if r % 2 == 0:
                assert c % 2 == 0


def test_enumerate_dyo_matches_exhaustive_scan():
    # same diagrams in the same order: parse_orbit takes the first match
    for p in range(2, 14):
        assert enumerate_dyo(p) == exhaustive_dyo(p), p


def test_signature_always_p_2():
    for p in (2, 3, 5, 8, 64):
        for d in enumerate_dyo(p):
            signs = d.sign_string()
            assert signs.count("+") == p
            assert signs.count("-") == 2


def test_shape_is_weakly_decreasing():
    for p in range(2, 65):
        for d in enumerate_dyo(p):
            assert list(d.shape) == sorted(d.shape, reverse=True), d


def test_forget_signs():
    d = SignedYoungDiagram(((3, "+"), (1, "-")), ("I",))
    assert forget_signs(d) == YoungDiagram((3, 1))


def test_characteristic_odd_rank():
    # so_5 = B2 examples
    assert characteristic(YoungDiagram((5,))) == ((2, 2),)
    assert characteristic(YoungDiagram((3, 1, 1))) == ((2, 0),)
    assert characteristic(YoungDiagram((2, 2, 1))) == ((0, 1),)
    assert characteristic(YoungDiagram((1, 1, 1, 1, 1))) == ((0, 0),)


def test_characteristic_even_rank_mixed():
    # so_8 = D4, shape (3,3,1,1): weights 2,0,-2,2,0,-2,0,0
    assert characteristic(YoungDiagram((3, 3, 1, 1))) == ((0, 2, 0, 0),)
    assert characteristic(YoungDiagram((5, 1, 1, 1))) == ((2, 2, 0, 0),)


def test_characteristic_all_even_numerals():
    d1 = YoungDiagram((2, 2), "I")
    d2 = YoungDiagram((2, 2), "II")
    (c1,), (c2,) = characteristic(d1), characteristic(d2)
    assert sorted([c1, c2]) == [(0, 2), (2, 0)]
    both = characteristic(YoungDiagram((2, 2)))
    assert both == (c1, c2)


def test_is_even():
    assert is_even((2, 0, 2))
    assert not is_even((0, 1, 2))


def test_invalid_signature():
    with pytest.raises(ValueError):
        enumerate_dyo(1)


@pytest.mark.parametrize("weights, rank", [
    ([2, 2, 0], 1),        # odd n: one zero leads, two h_i for rank 1
    ([2, 2, 0, 0], 2),     # even n: three h_i for rank 2
])
def test_weight_count_guard_is_named_error(monkeypatch, weights, rank):
    # a weight list that is not the spectrum of a neutral element of so_n
    # fails by name (with or without -O), not by an assert
    monkeypatch.setattr(orbits, "_weight_terms", lambda rows: list(weights))
    with pytest.raises(ValueError) as err:
        characteristic(YoungDiagram((len(weights),)))
    n = len(weights)
    assert str(err.value) == (
        f"weights {weights}: {rank + 1} values h_i for rank {rank}, "
        f"not H's eigenvalues on so_{n}")
