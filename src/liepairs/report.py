"""Machine-readable verification reports.

Every report is a plain dict of ints, strings and lists — never floats;
exact rationals are rendered as "a/b" strings.  Reports are
deterministic given (command, inputs, seed).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import matrixmodel as mm
from . import orbits
from .cascade import (
    epsilons_strongly_orthogonal,
    full_cascade,
    verify_gamma_partition,
)
from .centralizer import nonregular_locus, subpair
from .chevalley import build_algebra
from .parabolic import (
    build_parabolic,
    enumerate_catalog,
    expected_rows,
    generic_p_centralizer_dim,
    proposition_checks,
)
from .rootsystem import build_root_system


def frac_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def item(name, ok, details=None, skipped=False):
    out = {"name": name,
           "status": "skipped" if skipped else ("pass" if ok else "fail")}
    if details is not None:
        out["details"] = details
    return out


def assemble(command, items, seed=None):
    ok = all(i["status"] != "fail" for i in items)
    out = {"command": command, "items": items, "ok": ok}
    if seed is not None:
        out["seed"] = seed
    return out


# ---------------------------------------------------------------------------
# subcommand reports


def pairs_report(max_rank=8):
    catalog = enumerate_catalog(max_rank)
    rows = []
    for P in catalog:
        rows.append({
            "type": P.rs.type_label,
            "rank_g": P.rs.rank,
            "omitted_root": P.omitted_index + 1,
            "pair": P.pair_label,
            "rank": P.rank,
            "E": [sorted(i + 1 for i in e.subset_K) for e in P.E_entries],
            "dim_p": 2 * len(P.R_S1),
        })
    items = [item("catalog-matches-static-table", True,
                  {"rows": len(rows), "max_rank": max_rank})]
    return assemble("pairs", items), rows


def cascade_report(type_label, rank):
    rs = build_root_system(type_label, rank)
    entries = full_cascade(rs)
    rows = []
    for e in entries:
        rows.append({
            "K": sorted(i + 1 for i in e.subset_K),
            "epsilon_K": list(e.epsilon_K),
            "gamma_size": len(e.gamma_K),
        })
    rep = verify_gamma_partition(rs, frozenset(range(rs.rank)))
    items = [
        item("gamma-partition", not rep["failures"],
             {"entries": len(entries),
              "positive_roots": len(rs.positive_roots)}),
    ]
    return assemble(f"cascade {type_label} {rank}", items), rows


def orbits_report(p, signed):
    if signed:
        ds = orbits.enumerate_dyo(p)
        rows = [{"shape": list(d.shape),
                 "signs": d.sign_string(),
                 "numerals": list(d.numerals)} for d in ds]
    else:
        ds = orbits.enumerate_yd(p + 2)
        rows = [{"shape": list(d.rows),
                 "numeral": d.numeral or ""} for d in ds]
    items = [item("enumeration", True, {"count": len(rows), "p": p})]
    return assemble(f"orbits --p {p}" + (" --signed" if signed else ""),
                    items), rows


def centralizer_report(type_label, rank, omitted=None):
    alg = build_algebra(type_label, rank)
    table = expected_rows(type_label, rank)
    if omitted is None:
        if not table:
            raise ValueError(f"{type_label}{rank} has no catalog rows")
        omitted = min(table) + 1
    S = frozenset(range(rank)) - {omitted - 1}
    P = build_parabolic(alg, S)
    items = []
    rows = {"pair": P.pair_label, "rank": P.rank}
    if P.rank == 2:
        locus = nonregular_locus(P)
        rows["special_lines"] = [[frac_str(a), frac_str(b)]
                                 for a, b in locus.special_lines]
        items.append(item("pencil-not-degenerate", True,
                          {"generic_rank": locus.generic_rank}))
        xs = P.cartan_subspace()
        line_rows = []
        for mu, lam in locus.special_lines:
            X = mu * xs[0] + lam * xs[1]
            rep = subpair(P, X)
            line_rows.append({"line": [frac_str(mu), frac_str(lam)],
                              **rep.to_json_dict()})
        rows["lines"] = line_rows
    else:
        d = generic_p_centralizer_dim(P)
        items.append(item("generic-centralizer-dim-is-rank", d == P.rank,
                          {"dim": d, "rank": P.rank}))
    return assemble(f"centralizer {type_label} {rank}", items), rows


# ---------------------------------------------------------------------------
# model subcommand


def _shape(d):
    return tuple(sorted(d.shape, reverse=True))


def parse_orbit(p, spec):
    """shape[:signs][:numerals], e.g. "3,1,1:+++", "2,2,1:++-:I",
    "2,2:++:II:I".  Numerals, when given, must be the diagram's numerals
    in order; without them the first diagram that fits is taken."""
    parts = spec.split(":")
    try:
        shape = tuple(sorted((int(x) for x in parts[0].split(",")),
                             reverse=True))
    except ValueError:
        raise ValueError(f"bad shape {parts[0]!r}") from None
    signs = None
    numerals = ()
    for extra in parts[1:]:
        if extra in ("I", "II"):
            numerals += (extra,)
        elif set(extra) <= {"+", "-"}:
            signs = extra
        else:
            raise ValueError(f"bad orbit component {extra!r}")
    for d in orbits.enumerate_dyo(p):
        if (_shape(d) == shape
                and signs in (None, "".join(s for _, s in d.rows))
                and numerals in ((), d.numerals)):
            return d
    raise ValueError(f"no so(p,2) orbit matches {spec!r} for p = {p}")


def model_report(p, orbit_spec, verify, seed=0):
    pair = mm.build_pair(p)
    d = parse_orbit(p, orbit_spec)
    command = f"model --p {p} --orbit {orbit_spec} --verify {verify}"
    X = mm.nilpotent_from_diagram(pair, d)
    items = [item("representative-in-model", mm.is_skew(X),
                  {"diagram": repr(d),
                   "jordan_type": list(mm.jordan_type(mm.qi_entries(X)))})]
    if mm.mat_is_zero(X):
        items.append(item(verify, True, {"note": "zero orbit"}, skipped=True))
        return assemble(command, items, seed)

    t = mm.normal_triple_for(pair, X)
    if verify == "triple":
        errs = t.validate()
        items.append(item("normal-triple", not errs, {"errors": errs}))
    elif verify == "characteristic":
        cands = mm.characteristic_from_triple(t)
        cd_cands = orbits.characteristic(orbits.forget_signs(d))
        ok = bool(set(cands) & set(cd_cands))
        items.append(item("characteristic-matches-recipe", ok,
                          {"from_triple": [list(x) for x in cands],
                           "from_recipe": [list(x) for x in cd_cands]}))
    elif verify == "sheet":
        cd_cands = orbits.characteristic(orbits.forget_signs(d))
        if not any(orbits.is_even(c) for c in cd_cands):
            items.append(item("even-sheet", True,
                              {"note": "orbit is not even; rejected"},
                              skipped=True))
        else:
            rep = mm.even_sheet_witness(pair, t)
            items.append(item("even-sheet", rep["ok"],
                              {"dim_p_X": rep["dim_p_X"],
                               "samples": rep["samples"]}))
    elif verify == "distinguished":
        expected = (2, 2) + (1,) * (p - 2)
        if _shape(d) != expected or p < 3:
            items.append(item("not-distinguished-witness", True,
                              {"note": "witness argument applies to shape "
                               "(2,2,1^(p-2)) with p >= 3"}, skipped=True))
        else:
            rep = mm.minimal_orbit_not_distinguished(pair)
            items.append(item("not-distinguished-witness", rep["ok"],
                              {"reports": [
                                  {k: (list(v) if isinstance(v, tuple) else v)
                                   for k, v in r.items()}
                                  for r in rep["reports"]]}))
    else:
        raise ValueError(f"unknown verification {verify!r}")
    return assemble(command, items, seed)


# ---------------------------------------------------------------------------
# verify-all: one function per item, shared with the acceptance gate
# (tests/test_acceptance.py), which calls them at its own sizes


# sorted dim g^X on the four special lines of (so_N, so_{N-2} x so_2)
SPECIAL_LINE_DIMS = {("B", 3): (7, 7, 11, 11), ("D", 5): (19, 19, 29, 29)}
SPECIAL_LINES = [["0", "1"], ["1", "-1"], ["1", "0"], ["1", "1"]]


def orbit_shapes(p):
    """{descending shape: number of so(p,2) orbits}; rows are <= 5 long."""
    if p == 2:
        return {(3, 1): 4, (2, 2): 4, (1, 1, 1, 1): 1}
    if p == 3:
        return {(5,): 2, (3, 1, 1): 3, (2, 2, 1): 2, (1,) * 5: 1}
    return {(5,) + (1,) * (p - 3): 2,
            (3, 3) + (1,) * (p - 4): 2 if p == 4 else 1,
            (3,) + (1,) * (p - 1): 3,
            (2, 2) + (1,) * (p - 2): 2,
            (1,) * (p + 2): 1}


def catalog_item(catalog):
    """Criterion 1: `enumerate_catalog` raises on any table mismatch."""
    return item("catalog-table", True, {"rows": len(catalog)})


def cartan_subspace_item(catalog):
    """Criterion 3: the Cartan-subspace structure of every catalog pair."""
    bad = [P.pair_label for P in catalog if not proposition_checks(P)["ok"]]
    return item("cartan-subspace-structure", not bad, {"failing": bad})


def cascade_item(types):
    """Criterion 4: per (type, rank), the Gamma^K partition, Gamma sizes
    summing to the positive roots, and strongly orthogonal eps_K."""
    bad = []
    for t, n in types:
        rs = build_root_system(t, n)
        full = frozenset(range(n))
        rep = verify_gamma_partition(rs, full)
        if (rep["failures"]
                or sum(rep["gamma_sizes"]) != len(rs.positive_roots)
                or not epsilons_strongly_orthogonal(rs, full)):
            bad.append(f"{t}{n}")
    return item("cascade-invariants", not bad, {"failing": bad})


def centralizer_dims_item(t, n):
    """Criterion 2: the non-regular lines of (so_N, so_{N-2} x so_2) and
    dim g^X on each, from the `centralizer` report with alpha_1 omitted."""
    _, rows = centralizer_report(t, n, 1)
    lines = sorted([str(a), str(b)] for a, b in rows["special_lines"])
    got = sorted(line["dim_g_X"] for line in rows["lines"])
    ok = lines == SPECIAL_LINES and tuple(got) == SPECIAL_LINE_DIMS[(t, n)]
    return item(f"centralizer-dims-{t}{n}", ok,
                {"lines": lines, "dim_g_X": got})


def orbit_counts_item(ps):
    """Criterion 6: the signed diagrams of each p, tallied by shape."""
    bad = {}
    for p in ps:
        ds = orbits.enumerate_dyo(p)
        if Counter(map(_shape, ds)) != orbit_shapes(p):
            bad[p] = len(ds)
    return item("orbit-counts", not bad, {"mismatched": bad})


def parity_item(ps):
    """Criterion 7: every so(p,2) orbit is even, except the
    p-distinguished shape (2,2,1^(p-2)), p >= 3, whose characteristic
    candidates all have an odd entry."""
    bad = []
    for p in ps:
        special = (2, 2) + (1,) * (p - 2)
        for d in orbits.enumerate_dyo(p):
            cands = orbits.characteristic(orbits.forget_signs(d))
            if _shape(d) == special and p >= 3:
                ok = all(any(x % 2 for x in c) for c in cands)
            else:
                ok = any(orbits.is_even(c) for c in cands)
            if not ok:
                bad.append(repr(d))
    return item("distinguished-orbits-even", not bad, {"failing": bad})


def characteristic_item(ps):
    """Criterion 8: each orbit representative has the diagram's Jordan
    type, and its normal triple gives a characteristic the recipe allows."""
    bad = []
    for p in ps:
        pair = mm.build_pair(p)
        for d in orbits.enumerate_dyo(p):
            X = mm.nilpotent_from_diagram(pair, d)
            ok = mm.jordan_type(mm.qi_entries(X)) == _shape(d)
            if ok and not mm.mat_is_zero(X):
                c = mm.characteristic_from_triple(mm.normal_triple_for(pair, X))
                cd = orbits.characteristic(orbits.forget_signs(d))
                ok = bool(set(c) & set(cd))
            if not ok:
                bad.append(repr(d))
    return item("characteristic-oracle", not bad, {"failing": bad})


def minimal_orbit_item(ps):
    """Criterion 7: the semisimple witness that (2,2,1^(p-2)) is not
    p-distinguished; details only on failure."""
    bad = [p for p in ps
           if not mm.minimal_orbit_not_distinguished(mm.build_pair(p))["ok"]]
    return item("minimal-orbit-witness", not bad,
                {"failing": bad} if bad else None)


def jordan_component_item(p, trials, seed):
    """Criterion 10: for sampled Y in p^X, X the witness element, the
    semisimple component of Y is proportional to that of X."""
    pair = mm.build_pair(p)
    X, _, _ = mm.lemma_witness_element(pair)
    rep = mm.lemma51_check(pair, X, trials=trials, seed=seed)
    return item("jordan-component-sampling", rep["ok"],
                {"trials": rep["trials"], "failures": rep["failures"]})


def dim_identity_item(p, samples, seed):
    """Criterion 10: dim [k, X] + dim p^X = dim p on sampled X in p."""
    rep = mm.dim_identity_check(mm.build_pair(p), samples=samples, seed=seed)
    return item("dimension-identity", rep["ok"],
                {"samples": rep["samples"], "failures": rep["failures"]})


def verify_all_report(max_rank=8, seed=0):
    catalog = enumerate_catalog(max_rank)  # raises on any oracle mismatch
    types = [("A", max_rank), ("B", max_rank), ("C", max_rank),
             ("D", max(4, max_rank)), ("E6", 6), ("F4", 4), ("G2", 2)]
    items = [
        catalog_item(catalog),
        cartan_subspace_item(catalog),
        cascade_item(types),
        *(centralizer_dims_item(t, n) for t, n in SPECIAL_LINE_DIMS),
        orbit_counts_item(range(2, 7)),
        parity_item(range(2, 9)),
        characteristic_item((3, 4)),
        minimal_orbit_item((4,)),
        jordan_component_item(4, 20, seed),
        dim_identity_item(4, 20, seed),
    ]
    return assemble(f"verify-all --max-rank {max_rank}", items, seed)
