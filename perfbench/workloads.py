"""The benchmark's workloads: fixed job lists with golden certificates.

A workload is a list of jobs run in order as a closed loop, each job
starting when the previous one ends.  A job builds everything it needs
(root system, Chevalley algebra, parabolic, matrix pair) itself, so it
pays the lazy bracket and structure-constant memo fill the way one
`liepairs` CLI invocation does.

The seed picks only generated inputs: nonzero rational rescalings of
points on known special lines, generic Cartan points off those lines,
the sample seeds of the matrix-model checks, and the order and signs of
the coefficients of the semisimple test elements.  Every golden answer
holds for every seed.  The golden values restate classical facts (the
B3 and E7 centralizer data and the so(p,2) orbit counts that the test
suite pins, the subpairs of (so_N, so_{N-2} x so_2), cascade sizes,
the catalog); none is read back from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from liepairs import cli
from liepairs import matrixmodel as mm
from liepairs import orbits
from liepairs.centralizer import regularity_check, subpair
from liepairs.chevalley import build_algebra, centralizer_in, is_ad_semisimple
from liepairs.parabolic import build_parabolic, proposition_checks, scan_type


@dataclass
class Job:
    name: str
    run: Callable[[], object]   # does the work, returns the exact answer
    want: object                # golden answer; the job passes iff equal


# ---------------------------------------------------------------------------
# golden data

# (dim g^X, r_pair_label) on the four lines of (so_7, so_5 x so_2)
B3_LINES = {(0, 1): (7, "(so_3, so_2)"), (1, -1): (11, "(so_5, so_4)"),
            (1, 0): (7, "(so_3, so_2)"), (1, 1): (11, "(so_5, so_4)")}
B3_FIELDS = ("dim_g_X", "r_pair_label")

# (dim g^X, dim l, r_pair_label) of (so_N, so_{N-2} x so_2) on a diagonal
# line [1:1] or [1:-1], where g^X = so_{N-2} + C and the subpair is
# (so_{N-2}, so_{N-3}), and on a coordinate line [1:0] or [0:1], where
# g^X = so_3 + so_{N-4} + C and the subpair is (so_3, so_2)
SUBPAIR_FIELDS = ("dim_g_X", "l_dim", "r_pair_label")


def so_pair_subpair(N, line):
    if 0 in line:
        l_dim = 3 + (N - 4) * (N - 5) // 2
        return l_dim + 1, l_dim, "(so_3, so_2)"
    l_dim = (N - 2) * (N - 3) // 2
    return l_dim + 1, l_dim, f"(so_{N - 2}, so_{N - 3})"


# (dim g^X, dim p^X) at the special points of (E7, E6 x C), coordinates
# over the three X_K
E7_POINTS = {(-1, 0, 0): (67, 21), (0, -1, 0): (67, 21), (0, 0, -1): (67, 21),
             (-1, -1, 0): (49, 12), (-1, 0, -1): (49, 12),
             (0, -1, -1): (49, 12), (-1, -1, -1): (79, 27),
             (-1, -1, 1): (79, 27), (-1, 1, -1): (79, 27),
             (-1, 1, 1): (79, 27)}

# the 30 rank-2 catalog pairs as (type, rank, omitted simple root, 1-based)
RANK2_PAIRS = tuple(
    [("A", n, i) for n in range(3, 9) for i in sorted({2, n - 1})]
    + [("B", n, 1) for n in range(2, 9)] + [("C", 2, 2)]
    + [("D", 4, i) for i in (1, 3, 4)] + [("D", 5, i) for i in (1, 4, 5)]
    + [("D", n, 1) for n in range(6, 9)] + [("E6", 6, 1), ("E6", 6, 6)])

# every simple type up to rank 8
TYPES = tuple([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
              + [("C", n) for n in range(2, 9)]
              + [("D", n) for n in range(4, 9)]
              + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])

POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                  "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                  "E6": lambda n: 36, "E7": lambda n: 63, "E8": lambda n: 120,
                  "F4": lambda n: 24, "G2": lambda n: 6}
CASCADE_SIZE = {"A": lambda n: (n + 1) // 2, "B": lambda n: n,
                "C": lambda n: n, "D": lambda n: n - n % 2,
                "E6": lambda n: 4, "E7": lambda n: 7, "E8": lambda n: 8,
                "F4": lambda n: 4, "G2": lambda n: 2}

# omitted simple roots (1-based) with abelian unipotent radical; 68 pairs
CATALOG_ROOTS = {"A": lambda n: tuple(range(1, n + 1)), "B": lambda n: (1,),
                 "C": lambda n: (n,), "D": lambda n: (1, n - 1, n),
                 "E6": lambda n: (1, 6), "E7": lambda n: (7,)}

# signed so(p,2) orbit counts, p = 2..12
ORBIT_COUNTS = {2: 9, 3: 8, 4: 10, **{p: 9 for p in range(5, 13)}}

# nonzero orbits whose characteristic is even: all of them, except the
# two real forms of (2,2,1^(p-2)) when p >= 3
EVEN_ORBITS = {2: 8, 3: 5, 4: 7}


# ---------------------------------------------------------------------------
# input generators and shared job bodies


def _scale(rng):
    """A nonzero rational with numerator and denominator in 1..9."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _generic_point(rng):
    """(mu, lam) off every special line: both nonzero, |mu| != |lam|."""
    while True:
        mu, lam = _scale(rng), _scale(rng)
        if abs(mu) != abs(lam):
            return mu, lam


def _signed_order(rng, n):
    """The magnitudes 1..n in a seeded order with seeded signs.

    The restricted roots of every catalog pair form a C or BC system in
    the X_K coordinates, which signed permutations preserve; so every
    seed gives a Cartan element with the same eigenvalue pattern, and
    the minimal polynomial costs the same."""
    mags = list(range(1, n + 1))
    rng.shuffle(mags)
    return tuple(Fraction(rng.choice((-1, 1)) * m) for m in mags)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, json.loads(out.getvalue())


def _pair(label, rank, root):
    alg = build_algebra(label, rank)
    return build_parabolic(alg, frozenset(range(rank)) - {root - 1})


def _combo(P, coeffs):
    X = P.alg.zero()
    for c, x in zip(coeffs, P.cartan_subspace()):
        if c:
            X = X + c * x
    return X


def _centralizer_cli(label, rank, fields):
    code, doc = _cli(["centralizer", label, str(rank), "--json"])
    lines = {tuple(row["line"]): tuple(row[f] for f in fields)
             for row in doc["rows"][0]["lines"]}
    return code, doc["ok"], lines


def _subpair_at(label, rank, root, coeffs, fields):
    P = _pair(label, rank, root)
    rep = subpair(P, _combo(P, coeffs)).to_json_dict()
    return tuple(rep[f] for f in fields)


def _regular_at(label, rank, root, point):
    P = _pair(label, rank, root)
    return regularity_check(P, _combo(P, point))


def _e7_dims(points):
    """(dim g^X, dim p^X) at each point, on one cold E7 algebra."""
    P = _pair("E7", 7, 7)
    full = [P.alg.basis_element(i) for i in range(P.alg.dimension)]
    out = []
    for coeffs in points:
        X = _combo(P, coeffs)
        out.append((len(centralizer_in(X, full)),
                    len(centralizer_in(X, P.p_basis()))))
    return tuple(out)


def _witness(p):
    rep = mm.minimal_orbit_not_distinguished(mm.build_pair(p))
    return rep["ok"], tuple(r["jordan_type"] for r in rep["reports"])


def _candidates(c):
    return set(c) if isinstance(c[0], tuple) else {c}


def _recipe(d):
    return _candidates(orbits.characteristic(orbits.forget_signs(d)))


def _triples(p):
    """Per nonzero orbit: the normal triple validates and its
    characteristic is one the combinatorial recipe allows."""
    pair = mm.build_pair(p)
    out = []
    for d in orbits.enumerate_dyo(p):
        X = mm.nilpotent_from_diagram(pair, d)
        if mm.mat_is_zero(X):
            continue
        t = mm.normal_triple_for(pair, X)
        c = _candidates(mm.characteristic_from_triple(t))
        out.append(not t.validate() and bool(c & _recipe(d)))
    return tuple(out)


def _even_sheets(p):
    pair = mm.build_pair(p)
    out = []
    for d in orbits.enumerate_dyo(p):
        if not any(orbits.is_even(c) for c in _recipe(d)):
            continue
        X = mm.nilpotent_from_diagram(pair, d)
        if mm.mat_is_zero(X):
            continue
        t = mm.normal_triple_for(pair, X)
        out.append(mm.even_sheet_witness(pair, t)["ok"])
    return tuple(out)


def _lemma51(seed):
    pair = mm.build_pair(5)
    X, _, _ = mm.lemma_witness_element(pair)
    rep = mm.lemma51_check(pair, X, trials=10, seed=seed)
    return rep["ok"], rep["trials"], rep["failures"]


def _dim_identity(seed):
    rep = mm.dim_identity_check(mm.build_pair(4), samples=10, seed=seed)
    return rep["ok"], rep["samples"], rep["failures"]


def _root_multiplicities(p):
    pair = mm.build_pair(p)
    roots = ((1, -1), (1, 1), (1, 0), (0, 1))
    return (tuple(len(mm.real_restricted_root_space(pair, a, b))
                  for a, b in roots),
            tuple(len(mm.restricted_root_space(pair, a, b))
                  for a, b in roots))


def _model_cli(argv):
    code, doc = _cli(["model", *argv, "--json"])
    return code, doc["ok"], tuple(i["status"] for i in doc["items"])


def _cascade_cli(label, rank):
    code, doc = _cli(["cascade", label, str(rank), "--json"])
    details = doc["items"][0]["details"]
    return code, doc["ok"], details["entries"], details["positive_roots"]


def _orbits_cli(p):
    code, doc = _cli(["orbits", "--p", str(p), "--signed", "--json"])
    return code, doc["ok"], doc["items"][0]["details"]["count"]


def _pairs_cli():
    code, doc = _cli(["pairs", "--max-rank", "8", "--json"])
    return code, doc["ok"], len(doc["rows"])


def _catalog_algebra(label, rank, seed):
    """Scan one algebra's maximal parabolics, run the Cartan-subspace
    checks on every abelian one, and test ad-semisimplicity of a seeded
    element of the largest Cartan subspace."""
    found = scan_type(label, rank)
    oks = tuple(proposition_checks(P)["ok"] for P in found)
    P = max(found, key=lambda q: q.rank)
    X = _combo(P, _signed_order(random.Random(seed), P.rank))
    return tuple(P.omitted_index + 1 for P in found), oks, is_ad_semisimple(X)


# ---------------------------------------------------------------------------
# the workloads


def subpair_lines(rng):
    """Root-space centralizer path over Fraction: loci, subpairs,
    regularity and E7 centralizer dimensions."""
    jobs = [Job("cli centralizer B 3",
                lambda: _centralizer_cli("B", 3, B3_FIELDS),
                (0, True, B3_LINES))]
    # (type, rank, N, line): the pair (so_N, so_{N-2} x so_2), alpha_1 omitted
    for label, rank, N, line in (("B", 4, 9, (1, 1)), ("D", 5, 10, (0, 1))):
        r = _scale(rng)
        coeffs = tuple(r * c for c in line)
        jobs.append(Job(f"subpair {label}{rank} {r}*{list(line)}",
                        lambda a=(label, rank, 1, coeffs, SUBPAIR_FIELDS):
                        _subpair_at(*a),
                        so_pair_subpair(N, line)))
    for label, rank, root in RANK2_PAIRS:
        pt = _generic_point(rng)
        jobs.append(Job(f"regularity {label}{rank} a{root} {pt[0]}:{pt[1]}",
                        lambda a=(label, rank, root, pt): _regular_at(*a),
                        True))
    points = tuple(tuple(r * c for c in point)
                   for r, point in ((_scale(rng), pt) for pt in E7_POINTS))
    jobs.append(Job("centralizer_in E7 at the ten special points, rescaled",
                    lambda: _e7_dims(points), tuple(E7_POINTS.values())))
    return jobs


def so_p2_model(rng):
    """Matrix model of (so_{p+2}, so_p x so_2) over Q(i): witnesses,
    normal triples, sheets and the sampled checks."""
    jobs = []
    for p in (3, 5, 7):
        special = (2, 2) + (1,) * (p - 2)
        jobs.append(Job(f"minimal-orbit witness p={p}",
                        lambda p=p: _witness(p), (True, (special, special))))
    for p in (2, 3):
        jobs.append(Job(f"normal triples p={p}", lambda p=p: _triples(p),
                        (True,) * (ORBIT_COUNTS[p] - 1)))
    jobs.append(Job("even sheets p=3", lambda: _even_sheets(3),
                    (True,) * EVEN_ORBITS[3]))
    s = rng.randrange(10 ** 6)
    jobs.append(Job(f"lemma51 p=5 seed={s}", lambda: _lemma51(s),
                    (True, 10, 0)))
    s2 = rng.randrange(10 ** 6)
    jobs.append(Job(f"dim identity p=4 seed={s2}",
                    lambda: _dim_identity(s2), (True, 10, 0)))
    jobs.append(Job("restricted roots p=3", lambda: _root_multiplicities(3),
                    ((1, 1, 1, 1), (1, 1, 1, 1))))
    seed = str(rng.randrange(10 ** 6))
    for argv in (("--p", "4", "--orbit", "2,2,1,1", "--verify",
                  "distinguished"),
                 ("--p", "4", "--orbit", "3,1,1,1", "--verify", "sheet")):
        argv = argv + ("--seed", seed)
        jobs.append(Job("cli model " + " ".join(argv),
                        lambda a=argv: _model_cli(a),
                        (0, True, ("pass", "pass"))))
    return jobs


def catalog_battery(rng):
    """Many small and medium algebras built cold: the catalog, cascades,
    orbit lists and the Cartan-subspace checks of the catalog pairs."""
    jobs = [Job("cli pairs --max-rank 8", _pairs_cli, (0, True, 68))]
    for label, rank in TYPES:
        jobs.append(Job(f"cli cascade {label} {rank}",
                        lambda a=(label, rank): _cascade_cli(*a),
                        (0, True, CASCADE_SIZE[label](rank),
                         POSITIVE_ROOTS[label](rank))))
    for p in range(2, 13):
        jobs.append(Job(f"cli orbits --p {p} --signed",
                        lambda p=p: _orbits_cli(p),
                        (0, True, ORBIT_COUNTS[p])))
    # every catalog algebra of rank <= 5, E6, and C6: type C has the
    # largest Cartan subspaces, hence the longest ad X minimal polynomials
    for label, rank in TYPES:
        if label not in CATALOG_ROOTS or (
                rank > 5 and (label, rank) not in (("C", 6), ("E6", 6))):
            continue
        roots = CATALOG_ROOTS[label](rank)
        jobs.append(Job(f"catalog checks {label}{rank}",
                        lambda a=(label, rank, rng.randrange(10 ** 6)):
                        _catalog_algebra(*a),
                        (roots, (True,) * len(roots), True)))
    return jobs


def _calls(module, *functions):
    return tuple(f"{module}.{f}.calls" for f in functions)


# call counters each workload must drive above zero; a traced run that
# reads 0 for one of them fails, so a renamed or bypassed layer shows
EXPECT_CALLED = {
    "subpair-lines": (
        _calls("linalg", "rref", "nullspace", "solve", "det", "min_poly",
               "pencil_locus", "Span.add", "Span.contains")
        + _calls("chevalley", "bracket", "centralizer_in",
                 "derived_subalgebra", "is_ad_semisimple", "build_algebra")
        + _calls("centralizer", "subpair", "split_ideals", "ideal_closure",
                 "span_intersection", "bracket_span",
                 "identify_semisimple_type", "toral_rank",
                 "nonregular_locus", "regularity_check")
        + _calls("parabolic", "build_parabolic")
        + _calls("cascade", "full_cascade")
        + _calls("rootsystem", "build_root_system")
        + _calls("report", "centralizer_report") + _calls("cli", "run")),
    "so-p2-model": (
        _calls("linalg", "rref", "nullspace", "solve", "min_poly",
               "Span.add", "Span.contains")
        + ("gaussian.QI.created",)
        + _calls("matrixmodel", "normal_triple_for",
                 "characteristic_from_triple", "even_sheet_witness",
                 "jordan_decompose", "real_restricted_root_space",
                 "restricted_root_space", "minimal_orbit_not_distinguished",
                 "MatrixPair.centralizer_in", "mat_mul", "commutator",
                 "lemma51_check", "dim_identity_check")
        + _calls("orbits", "enumerate_dyo", "characteristic")
        + _calls("report", "model_report") + _calls("cli", "run")),
    "catalog-battery": (
        _calls("linalg", "rref", "solve", "min_poly", "Span.add",
               "Span.contains")
        + _calls("chevalley", "bracket", "is_ad_semisimple", "build_algebra")
        + _calls("parabolic", "proposition_checks", "enumerate_catalog",
                 "build_parabolic")
        + _calls("cascade", "full_cascade", "verify_gamma_partition")
        + _calls("orbits", "enumerate_dyo")
        + _calls("rootsystem", "build_root_system")
        + _calls("report", "pairs_report", "cascade_report", "orbits_report")
        + _calls("cli", "run")),
}

WORKLOADS = {"subpair-lines": subpair_lines, "so-p2-model": so_p2_model,
             "catalog-battery": catalog_battery}


def build(workload, seed):
    """The job list of a workload for one seed."""
    return WORKLOADS[workload](random.Random(seed))
