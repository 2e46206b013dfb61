"""Acceptance gate: ten exact end-to-end criteria, one pass/fail line each.

Every criterion runs the `liepairs verify-all` item functions of
`liepairs.report`, at the gate's sizes.  Each test prints
"criterion N: <name> ... PASS" on success; a failure raises with the
item's details as its witness.  Budgets: criteria 1, 2, 3, 7, 9 under a
minute; 4, 5 and 6 take seconds.
"""

from liepairs import report as rp
from liepairs.parabolic import enumerate_catalog


def _report(num, name):
    print(f"criterion {num}: {name} ... PASS", flush=True)


def _check(it):
    assert it["status"] == "pass", (it["name"], it.get("details"))


def test_criterion_01_catalog_table():
    """Exhaustive abelian-radical scan reproduces the catalog exactly."""
    catalog, mismatches = enumerate_catalog(max_rank=8)
    _check(rp.catalog_item(catalog, mismatches))
    # spot-frozen rows: the one pair each of B5, C5 and E7
    b, c, e7 = ([P for P in catalog if (P.rs.type_label, P.rs.rank) == tn][0]
                for tn in (("B", 5), ("C", 5), ("E7", 7)))
    assert b.omitted_index == 0 and b.rank == 2
    assert sorted(sorted(i + 1 for i in e.subset_K) for e in b.E_entries) \
        == [[1], [1, 2, 3, 4, 5]]
    assert c.omitted_index == 4 and c.rank == 5
    assert e7.omitted_index == 6 and e7.rank == 3
    _report(1, "catalog of abelian-radical parabolic pairs")


def test_criterion_02_centralizer_dims_and_locus():
    """dim g^X is 7/11 (B3) and 19/29 (D5) on the non-regular lines,
    which are exactly {[1:0],[0:1],[1:1],[1:-1]}; dim l, the type of l
    and the subpair on each line match too."""
    for label, rank in rp.SPECIAL_LINES:
        _check(rp.centralizer_dims_item(label, rank))
    _report(2, "B3/D5 centralizer dimensions and non-regular locus")


def test_criterion_03_cartan_subspace_structure():
    """For every catalog entry: a abelian, X_K semisimple, radical
    covered by the Gamma^K, eps_K - alpha outside the radical."""
    _check(rp.cartan_subspace_item(enumerate_catalog(max_rank=8)[0]))
    _report(3, "Cartan-subspace structure for all catalog pairs")


def test_criterion_04_cascade_invariants():
    """Strong orthogonality of the eps_K; Gamma^K partition identity."""
    jobs = ([("A", k) for k in range(1, 9)] + [("B", k) for k in range(2, 9)]
            + [("C", k) for k in range(2, 9)] + [("D", k) for k in range(4, 9)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
    _check(rp.cascade_item(jobs))
    _report(4, "cascade invariants for all types to rank 8")


def test_criterion_05_jacobi():
    """Antisymmetry on every ordered basis pair and the Jacobi identity
    on every i < j < k: every triple of B3, D5, E6 and E7."""
    _check(rp.jacobi_item([("B", 3), ("D", 5), ("E6", 6), ("E7", 7)]))
    _report(5, "Jacobi identity (B3/D5/E6/E7 exhaustive)")


def test_criterion_06_orbit_lists():
    """Signed-diagram enumeration matches the displayed orbit lists."""
    _check(rp.orbit_counts_item(range(2, 65)))
    _report(6, "signed orbit enumeration for p = 2..64")


def test_criterion_07_distinguished_evenness_and_witness():
    """Every shape other than (2,2,1^(p-2)) is even, p <= 64; that shape
    has an odd characteristic entry and an explicit H in p^X witness,
    checked for p = 3..64."""
    _check(rp.parity_item(range(2, 65)))
    _check(rp.minimal_orbit_item(range(3, 65)))
    _report(7, "evenness of p-distinguished orbits plus witnesses")


def test_criterion_08_characteristic_oracle():
    """(alpha_i(H)) from exact normal triples equals the combinatorial
    recipe for every orbit representative, p <= 64."""
    _check(rp.characteristic_item(range(2, 65)))
    _report(8, "characteristics from normal triples, p = 2..64")


def test_criterion_09_even_sheet():
    """For every nonzero even orbit: dim p^(X+Y) = dim p^X and X + Y is
    semisimple, which covers every X + lambda Y with lambda != 0 (Ad
    exp(uH) carries one to a multiple of the other), p <= 64."""
    _check(rp.even_sheet_item(range(2, 65)))
    _report(9, "even-sheet property at lambda = 1, so every lambda != 0, "
            "for p = 2..64")


def test_criterion_10_jordan_component_and_dim_identity():
    """100 fixed-seed trials: semisimple component of Y in p^X stays
    proportional to X_s; plus dim[k,X] + dim p^X = dim p on 100 X."""
    _check(rp.jordan_component_item(5, 100, 0))
    _check(rp.dim_identity_item(4, 100, 0))
    _report(10, "Jordan-component sampling and dimension identity")
