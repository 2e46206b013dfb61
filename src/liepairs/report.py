"""Machine-readable verification reports.

Every report is a plain dict of ints, strings and lists — never floats;
exact rationals are rendered as "a/b" strings.  Reports are
deterministic given (command, inputs, seed).
"""

from __future__ import annotations

from fractions import Fraction

from . import matrixmodel as mm
from . import orbits
from .cascade import full_cascade, verify_gamma_partition
from .centralizer import nonregular_locus, subpair
from .chevalley import build_algebra
from .parabolic import (
    build_parabolic,
    enumerate_catalog,
    expected_rows,
    generic_p_centralizer_dim,
    proposition_checks,
    scan_type,
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


def parse_orbit(p, spec):
    """shape[:signs][:numeral], e.g. "3,1,1:+++", "2,2,1:++-:I"."""
    parts = spec.split(":")
    try:
        shape = tuple(int(x) for x in parts[0].split(","))
    except ValueError:
        raise ValueError(f"bad shape {parts[0]!r}") from None
    signs = None
    numeral = None
    for extra in parts[1:]:
        if extra in ("I", "II"):
            numeral = extra
        elif set(extra) <= {"+", "-"}:
            signs = extra
        else:
            raise ValueError(f"bad orbit component {extra!r}")
    matches = []
    for d in orbits.enumerate_dyo(p):
        if tuple(sorted(d.shape, reverse=True)) != tuple(
                sorted(shape, reverse=True)):
            continue
        if signs is not None and "".join(s for _, s in d.rows) != signs:
            continue
        if numeral is not None and numeral not in d.numerals:
            continue
        matches.append(d)
    if not matches:
        raise ValueError(f"no so(p,2) orbit matches {spec!r} for p = {p}")
    return matches[0]


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
        if tuple(sorted(d.shape, reverse=True)) != expected or p < 3:
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
# verify-all


def verify_all_report(max_rank=8, seed=0):
    items = []

    catalog = enumerate_catalog(max_rank)  # raises on any oracle mismatch
    items.append(item("catalog-table", True, {"rows": len(catalog)}))

    bad = [p.pair_label for p in catalog
           if not proposition_checks(p)["ok"]]
    items.append(item("cartan-subspace-structure", not bad,
                      {"failing": bad}))

    cas_bad = []
    for t, n in [("A", max_rank), ("B", max_rank), ("C", max_rank),
                 ("D", max(4, max_rank)), ("E6", 6), ("F4", 4), ("G2", 2)]:
        rs = build_root_system(t, n)
        rep = verify_gamma_partition(rs, frozenset(range(n)))
        if rep["failures"]:
            cas_bad.append(f"{t}{n}")
    items.append(item("cascade-invariants", not cas_bad,
                      {"failing": cas_bad}))

    for t, n, want in (("B", 3, (7, 7, 11, 11)), ("D", 5, (19, 19, 29, 29))):
        alg = build_algebra(t, n)
        P = build_parabolic(alg, frozenset(range(n)) - {0})
        locus = nonregular_locus(P)
        lines = sorted([str(a), str(b)] for a, b in locus.special_lines)
        xs = P.cartan_subspace()
        got = tuple(sorted(
            subpair(P, mu * xs[0] + lam * xs[1]).dim_g_X
            for mu, lam in locus.special_lines))
        details = {"lines": lines, "dim_g_X": sorted(got)}
        ok = (lines == [["0", "1"], ["1", "-1"], ["1", "0"], ["1", "1"]]
              and got == want)
        items.append(item(f"centralizer-dims-{t}{n}", ok, details))

    counts = {2: 9, 3: 8, 4: 10, 5: 9, 6: 9}
    bad = {p: len(orbits.enumerate_dyo(p)) for p in counts
           if len(orbits.enumerate_dyo(p)) != counts[p]}
    items.append(item("orbit-counts", not bad, {"mismatched": bad}))

    parity_bad = []
    for p in range(2, 9):
        special = (2, 2) + (1,) * (p - 2)
        for d in orbits.enumerate_dyo(p):
            cands = orbits.characteristic(orbits.forget_signs(d))
            shape = tuple(sorted(d.shape, reverse=True))
            even = any(orbits.is_even(c) for c in cands)
            if shape == special and p >= 3:
                if even:
                    parity_bad.append(repr(d))
            elif not even:
                parity_bad.append(repr(d))
    items.append(item("distinguished-orbits-even", not parity_bad,
                      {"failing": parity_bad}))

    char_bad = []
    for p in (3, 4):
        pair = mm.build_pair(p)
        for d in orbits.enumerate_dyo(p):
            X = mm.nilpotent_from_diagram(pair, d)
            if mm.mat_is_zero(X):
                continue
            t = mm.normal_triple_for(pair, X)
            c = mm.characteristic_from_triple(t)
            cd = orbits.characteristic(orbits.forget_signs(d))
            if not set(c) & set(cd):
                char_bad.append(repr(d))
    items.append(item("characteristic-oracle", not char_bad,
                      {"failing": char_bad}))

    pair = mm.build_pair(4)
    rep = mm.minimal_orbit_not_distinguished(pair)
    items.append(item("minimal-orbit-witness", rep["ok"], None))
    X, _, _ = mm.lemma_witness_element(pair)
    rep = mm.lemma51_check(pair, X, trials=20, seed=seed)
    items.append(item("jordan-component-sampling", rep["ok"],
                      {"trials": rep["trials"], "failures": rep["failures"]}))
    rep = mm.dim_identity_check(pair, samples=20, seed=seed)
    items.append(item("dimension-identity", rep["ok"],
                      {"samples": rep["samples"],
                       "failures": rep["failures"]}))

    return assemble(f"verify-all --max-rank {max_rank}", items, seed)
