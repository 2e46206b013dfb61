"""Machine-readable verification reports.

Every report is a plain dict of ints, strings and lists — never floats;
exact rationals are rendered as "a/b" strings.  Reports are
deterministic given (command, inputs, seed).
"""

from __future__ import annotations

import functools
import itertools
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
from .chevalley import build_algebra, jacobi_defect
from .errors import UsageError
from .parabolic import (
    build_parabolic,
    enumerate_catalog,
    expected_rows,
    generic_p_centralizer_dim,
    proposition_checks,
)
from .rootsystem import build_root_system, type_name


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
    if max_rank < 1:
        raise UsageError(f"--max-rank must be >= 1, got {max_rank}")
    catalog, mismatches = enumerate_catalog(max_rank)
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
    extra = {"mismatches": mismatches} if mismatches else {}
    items = [item("catalog-matches-static-table", not mismatches,
                  {"rows": len(rows), "max_rank": max_rank, **extra})]
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
    if p < 0:
        raise UsageError(f"--p must be >= 0, got {p}")
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
    command = f"centralizer {type_label} {rank}"
    if omitted is not None:
        if not 1 <= omitted <= rank:
            raise UsageError(f"--root must be in 1..{rank} for "
                             f"{type_name(type_label, rank)}, got {omitted}")
        command += f" --root {omitted}"
    else:
        if not table:
            raise UsageError(
                f"{type_name(type_label, rank)} has no catalog rows")
        omitted = min(table) + 1
    S = frozenset(range(rank)) - {omitted - 1}
    P = build_parabolic(alg, S)
    items = []
    rows = {"pair": P.pair_label, "rank": P.rank}
    if P.rank == 2:
        locus = nonregular_locus(P)
        rows["special_lines"] = [[frac_str(a), frac_str(b)]
                                 for a, b in locus.special_lines]
        residual = [[frac_str(c) for c in f] for f in locus.residual_factors]
        extra = {"residual_factors": residual} if residual else {}
        items.append(item("pencil-not-degenerate", not residual,
                          {"generic_rank": locus.generic_rank, **extra}))
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
    return assemble(command, items), rows


# ---------------------------------------------------------------------------
# model subcommand


def parse_orbit(p, spec):
    """shape[:signs][:numerals], e.g. "3,1,1:+++", "2,2,1:++-:I",
    "2,2:++:II:I".  Numerals, when given, must be the diagram's numerals
    in order; without them the first diagram that fits is taken."""
    parts = spec.split(":")
    try:
        shape = tuple(sorted((int(x) for x in parts[0].split(",")),
                             reverse=True))
    except ValueError:
        raise UsageError(f"bad shape {parts[0]!r}") from None
    signs = None
    numerals = ()
    for extra in parts[1:]:
        if extra in ("I", "II"):
            numerals += (extra,)
        elif set(extra) <= {"+", "-"}:
            signs = extra
        else:
            raise UsageError(f"bad orbit component {extra!r}")
    for d in orbits.enumerate_dyo(p):
        if (d.shape == shape
                and signs in (None, "".join(s for _, s in d.rows))
                and numerals in ((), d.numerals)):
            return d
    raise UsageError(f"no so(p,2) orbit matches {spec!r} for p = {p}")


def orbit_items(pair, d, verify):
    """The `model` items of the orbit of the signed diagram d under the
    check `verify`; a failing representative ends the list."""
    X = mm.nilpotent_from_diagram(pair, d)
    jt = mm.jordan_type(X)
    powers = itertools.accumulate(itertools.repeat(X, jt[0]), mm.mat_mul)
    in_model = (jt == d.shape and pair.in_p(X)
                and all(pair.kernel_signs(Xk) == d.kernel_signs(k)
                        for k, Xk in enumerate(powers, 1)))
    items = [item("representative-in-model", in_model,
                  {"diagram": repr(d), "jordan_type": list(jt)})]
    if not in_model:
        return items
    if mm.mat_is_zero(X):
        items.append(item(verify, True, {"note": "zero orbit"}, skipped=True))
        return items

    if verify == "triple":
        errs = mm.normal_triple_for(pair, X).validate()
        items.append(item("normal-triple", not errs, {"errors": errs}))
    elif verify == "characteristic":
        cands = mm.characteristic_from_triple(mm.normal_triple_for(pair, X))
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
            rep = mm.even_sheet_witness(pair, mm.normal_triple_for(pair, X))
            items.append(item("even-sheet", rep.pop("ok"), rep))
    elif verify == "distinguished":
        if d.shape != orbits.minimal_shape(pair.p) or pair.p < 3:
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
        raise UsageError(f"unknown verification {verify!r}")
    return items


def model_report(p, orbit_spec, verify, seed=0):
    pair = mm.build_pair(p)
    d = parse_orbit(p, orbit_spec)
    command = f"model --p {p} --orbit {orbit_spec} --verify {verify}"
    return assemble(command, orbit_items(pair, d, verify), seed)


# ---------------------------------------------------------------------------
# verify-all: one function per item, shared with the acceptance gate
# (tests/test_acceptance.py), which calls them at its own sizes


# (dim g^X, dim l, type of l, subpair) on the coordinate lines [0:1], [1:0]
# and the diagonal lines [1:1], [1:-1] of (so_N, so_{N-2} x so_2)
SPECIAL_LINES = {
    ("B", 3): ((7, 6, "A1xA1", "(so_3, so_2)"),
               (11, 10, "B2", "(so_5, so_4)")),
    ("D", 5): ((19, 18, "A1xA3", "(so_3, so_2)"),
               (29, 28, "D4", "(so_8, so_7)")),
}


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


def check(name):
    """Make a function returning (ok, details) the verify-all item `name`,
    formatted with its arguments; an exception fails it as witness."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args):
            try:
                ok, details = fn(*args)
            except Exception as e:
                ok, details = False, {"error": f"{type(e).__name__}: {e}"}
            return item(name.format(*args), ok, details)
        return run
    return wrap


@check("catalog-table")
def catalog_item(catalog, mismatches):
    """Criterion 1: the exhaustive scan agrees with the static oracle."""
    extra = {"mismatches": mismatches} if mismatches else {}
    return not mismatches, {"rows": len(catalog), **extra}


@check("cartan-subspace-structure")
def cartan_subspace_item(catalog):
    """Criterion 3: the Cartan-subspace structure of every catalog pair."""
    bad = [P.pair_label for P in catalog if not proposition_checks(P)["ok"]]
    return not bad, {"failing": bad}


@check("cascade-invariants")
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
            bad.append(type_name(t, n))
    return not bad, {"failing": bad}


@check("centralizer-dims-{}{}")
def centralizer_dims_item(t, n):
    """Criterion 2: the non-regular lines of (so_N, so_{N-2} x so_2) and
    dim g^X, dim l, the type of l and the subpair on each, from the
    `centralizer` report with alpha_1 omitted."""
    _, rows = centralizer_report(t, n, 1)
    fields = ("dim_g_X", "l_dim", "l_type", "r_pair_label")
    got = {tuple(line["line"]): tuple(line[f] for f in fields)
           for line in rows["lines"]}
    details = {"lines": sorted([str(a), str(b)] for a, b in got),
               "dim_g_X": sorted(v[0] for v in got.values())}
    coord, diag = SPECIAL_LINES[(t, n)]
    ok = got == {(0, 1): coord, (1, 0): coord, (1, 1): diag, (1, -1): diag}
    if not ok:
        details["per_line"] = [[*k, *v] for k, v in got.items()]
    return ok, details


@check("jacobi-identity")
def jacobi_item(types):
    """Criterion 5: [e_i, e_j] = -[e_j, e_i] on every ordered basis pair
    and the Jacobi identity on every i < j < k, which together cover
    every triple; the first failure of a type is its witness."""
    bad = []
    for t, n in types:
        alg = build_algebra(t, n)
        d = range(alg.dimension)
        witnesses = itertools.chain(
            ({"antisymmetry": [i, j]} for i in d for j in d
             if alg.bracket_basis(i, j)
             != {k: -c for k, c in alg.bracket_basis(j, i).items()}),
            ({"jacobi": [i, j, k]} for i in d for j in d[i + 1:]
             for k in d[j + 1:] if jacobi_defect(alg, i, j, k)))
        w = next(witnesses, None)
        if w:
            bad.append({"type": type_name(t, n), **w})
    return not bad, {"failing": bad}


@check("orbit-counts")
def orbit_counts_item(ps):
    """Criterion 6: the signed diagrams of each p, tallied by shape."""
    bad = {}
    for p in ps:
        ds = orbits.enumerate_dyo(p)
        if Counter(d.shape for d in ds) != orbit_shapes(p):
            bad[p] = len(ds)
    return not bad, {"mismatched": bad}


@check("distinguished-orbits-even")
def parity_item(ps):
    """Criterion 7: every so(p,2) orbit is even, except the
    p-distinguished shape (2,2,1^(p-2)), p >= 3, whose characteristic
    candidates all have an odd entry."""
    bad = []
    for p in ps:
        for d in orbits.enumerate_dyo(p):
            cands = orbits.characteristic(orbits.forget_signs(d))
            if d.shape == orbits.minimal_shape(p) and p >= 3:
                ok = all(any(x % 2 for x in c) for c in cands)
            else:
                ok = any(orbits.is_even(c) for c in cands)
            if not ok:
                bad.append(repr(d))
    return not bad, {"failing": bad}


def _model_failures(ps, verify):
    """The diagrams of p in ps on which a `model --verify` item fails."""
    return [repr(d) for p in ps for d in orbits.enumerate_dyo(p)
            if any(i["status"] == "fail"
                   for i in orbit_items(mm.build_pair(p), d, verify))]


@check("characteristic-oracle")
def characteristic_item(ps):
    """Criterion 8: no `model --verify characteristic` item fails: each
    orbit representative is skew, in p and of the diagram's Jordan type,
    and its normal triple gives a characteristic the recipe allows."""
    bad = _model_failures(ps, "characteristic")
    return not bad, {"failing": bad}


@check("minimal-orbit-witness")
def minimal_orbit_item(ps):
    """Criterion 7: the semisimple witness that (2,2,1^(p-2)) is not
    p-distinguished; details only on failure."""
    bad = [p for p in ps
           if not mm.minimal_orbit_not_distinguished(mm.build_pair(p))["ok"]]
    return not bad, {"failing": bad} if bad else None


@check("even-sheet-property")
def even_sheet_item(ps):
    """Criterion 9: no `model --verify sheet` item fails: for every
    nonzero even orbit, X + Y keeps dim p^X and is semisimple, which
    covers every X + lambda Y with lambda != 0."""
    bad = _model_failures(ps, "sheet")
    return not bad, {"failing": bad}


@check("jordan-component-sampling")
def jordan_component_item(p, trials, seed):
    """Criterion 10: for sampled Y in p^X, X the witness element, the
    semisimple component of Y is proportional to that of X."""
    pair = mm.build_pair(p)
    X, _, _ = mm.lemma_witness_element(pair)
    rep = mm.lemma51_check(pair, X, trials=trials, seed=seed)
    return rep["ok"], {"trials": rep["trials"], "failures": rep["failures"]}


@check("dimension-identity")
def dim_identity_item(p, samples, seed):
    """Criterion 10: dim [k, X] + dim p^X = dim p on sampled X in p."""
    rep = mm.dim_identity_check(mm.build_pair(p), samples=samples, seed=seed)
    return rep["ok"], {"samples": rep["samples"],
                       "failures": rep["failures"]}


def verify_all_report(max_rank=8, seed=0):
    if max_rank < 2:
        raise UsageError(f"--max-rank must be >= 2, got {max_rank}")
    catalog, mismatches = enumerate_catalog(max_rank)
    types = [("A", max_rank), ("B", max_rank), ("C", max_rank),
             ("D", max(4, max_rank)), ("E6", 6), ("F4", 4), ("G2", 2)]
    items = [
        catalog_item(catalog, mismatches),
        cartan_subspace_item(catalog),
        cascade_item(types),
        *(centralizer_dims_item(t, n) for t, n in SPECIAL_LINES),
        jacobi_item([("B", 3), ("D", 5)]),
        orbit_counts_item(range(2, 7)),
        parity_item(range(2, 9)),
        characteristic_item((3, 4)),
        minimal_orbit_item((4,)),
        even_sheet_item(range(2, 5)),
        jordan_component_item(4, 20, seed),
        dim_identity_item(4, 20, seed),
    ]
    return assemble(f"verify-all --max-rank {max_rank}", items, seed)
