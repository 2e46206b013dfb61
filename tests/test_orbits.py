"""Nilpotent orbit combinatorics: diagram enumeration, characteristics,
evenness."""

import pytest

from liepairs.orbits import (
    SignedYoungDiagram,
    YoungDiagram,
    characteristic,
    enumerate_dyo,
    enumerate_yd,
    forget_signs,
    is_even,
)


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


def test_signed_counts_per_p():
    # frozen counts from brute-force enumeration under P1-P5
    expected = {2: 9, 3: 8, 4: 10, 5: 9, 6: 9, 7: 9, 8: 9, 9: 9,
                10: 9, 11: 9, 12: 9}
    for p, n in expected.items():
        assert len(enumerate_dyo(p)) == n, p


def test_max_row_length_five():
    for p in range(2, 13):
        for d in enumerate_dyo(p):
            assert max(d.shape) <= 5


def test_signature_always_p_2():
    for p in (2, 3, 5, 8):
        for d in enumerate_dyo(p):
            assert d.plus_count() == p
            assert d.minus_count() == 2


def test_p3_orbit_breakdown():
    by_shape = {}
    for d in enumerate_dyo(3):
        by_shape.setdefault(tuple(sorted(d.shape, reverse=True)), []).append(d)
    assert len(by_shape[(5,)]) == 2            # one numeral: I, II
    assert len(by_shape[(3, 1, 1)]) == 3       # one sign class x2, one x1
    assert len(by_shape[(2, 2, 1)]) == 2       # one numeral: I, II
    assert len(by_shape[(1, 1, 1, 1, 1)]) == 1


def test_p2_families():
    shapes = sorted(set(tuple(sorted(d.shape, reverse=True))
                        for d in enumerate_dyo(2)))
    assert shapes == [(1, 1, 1, 1), (2, 2), (3, 1)]
    all_even = [d for d in enumerate_dyo(2) if d.shape == (2, 2)]
    assert len(all_even) == 4                  # two numerals: 4 orbits


def test_general_p_families():
    # the five displayed families plus the zero orbit, for p >= 5
    for p in (5, 7, 10):
        tail = (1,) * (p - 3)
        by_shape = {}
        for d in enumerate_dyo(p):
            by_shape.setdefault(tuple(sorted(d.shape, reverse=True)),
                                []).append(d)
        assert len(by_shape[(5,) + tail]) == 2
        assert len(by_shape[(3, 3) + (1,) * (p - 4)]) == 1
        assert len(by_shape[(3,) + (1,) * (p - 1)]) == 3
        assert len(by_shape[(2, 2) + (1,) * (p - 2)]) == 2
        assert len(by_shape[(1,) * (p + 2)]) == 1


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


def test_distinguished_shape_has_odd_entry():
    for p in range(3, 13):
        d = YoungDiagram((2, 2) + (1,) * (p - 2))
        cands = characteristic(d)
        assert all(any(x % 2 == 1 for x in cc) for cc in cands), (p, cands)


def test_all_other_shapes_even():
    for p in range(2, 13):
        special = (2, 2) + (1,) * (p - 2)
        for d in enumerate_dyo(p):
            shape = tuple(sorted(d.shape, reverse=True))
            if shape == special and p >= 3:
                continue
            cands = characteristic(forget_signs(d))
            assert any(is_even(cc) for cc in cands), (p, d)


def test_invalid_signature():
    with pytest.raises(ValueError):
        enumerate_dyo(1)
