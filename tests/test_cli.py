"""CLI front door: subcommands, exit codes, JSON hygiene."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepairs import centralizer, parabolic, report
from liepairs import matrixmodel as mm
from liepairs.cli import run
from liepairs.orbits import enumerate_dyo
from liepairs.report import frac_str, model_report, parse_orbit

GOLDEN = Path(__file__).parent / "golden"


def _no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(_no_floats(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_no_floats(v) for v in obj)
    return True


def test_frac_str():
    assert frac_str(Fraction(3)) == 3
    assert frac_str(Fraction(-1, 2)) == "-1/2"


def test_usage_errors(capsys):
    assert run(["bogus"]) == 2
    assert run(["model", "--p", "3"]) == 2          # missing required flags
    for spec in ("9,9", "3,1,1:-++:I:II"):        # no such orbit
        assert run(["model", "--p", "3", "--orbit", spec,
                    "--verify", "triple"]) == 2
    assert run(["model", "--p", "2", "--orbit", "2,2:I",  # needs two numerals
                "--verify", "triple"]) == 2
    for p in ("-1", "-3"):
        assert run(["orbits", "--p", p]) == 2
    for n in ("0", "-1"):
        assert run(["pairs", "--max-rank", n]) == 2
    # each place that validates input raises a UsageError
    for argv in ("cascade Q 3", "cascade B 1", "centralizer E6 5",
                 "centralizer B 3 --root 9", "centralizer C 3 --root 1",
                 "centralizer G2 2", "orbits --p 1 --signed",
                 "model --p 1 --orbit 3 --verify triple"):
        assert run(argv.split()) == 2, argv
    # a root outside 1..rank is named as such, not as a bad S
    capsys.readouterr()
    for root in (0, 9):
        assert run(["centralizer", "B", "3", "--root", str(root)]) == 2
        assert capsys.readouterr().err == (
            f"error: --root must be in 1..3 for B3, got {root}\n")


@st.composite
def argvs(draw):
    """argv from a small grammar: every subcommand, with valid and invalid
    arguments (rank <= 4, p in -3..6, malformed orbit specs)."""
    def pick(*choices):
        return draw(st.sampled_from(choices))
    rank, p = pick(*range(-1, 5)), pick(*range(-3, 7))
    typ = pick("A", "B", "C", "D", "E6", "F4", "G2", "Q")
    verify = pick("triple", "characteristic", "sheet", "distinguished", "x")
    spec = pick(",".join(["3"] + ["1"] * (p - 1)),
                ",".join(["2", "2"] + ["1"] * (p - 2)),
                "3,1:+-:II", "9,9", "x,y", "3,1,1:*", "3:I:I:I", "")
    argv = pick(f"pairs --max-rank {rank}", f"cascade {typ} {rank}",
                f"orbits --p {p}", f"orbits --p {p} --signed",
                f"centralizer {typ} {rank}",
                f"centralizer {typ} {rank} --root {pick(0, 1, 3, 9)}",
                f"model --p {p} --verify {verify} --orbit={spec}",
                f"verify-all --max-rank {pick(*range(-1, 4))}", "bogus")
    return argv.split() + pick([], ["--json"])


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


def test_cascade_command(capsys):
    assert run(["cascade", "B", "3"]) == 0
    out = capsys.readouterr().out
    assert "[pass] gamma-partition" in out


def test_orbits_p2_signed_count(capsys):
    assert run(["orbits", "--p", "2", "--signed", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 9
    assert _no_floats(doc)


def test_pairs_json(capsys):
    assert run(["pairs", "--max-rank", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"]
    assert _no_floats(doc)
    labels = {r["pair"] for r in doc["rows"]}
    assert "(so_7, so_5 x so_2)" in labels


def test_centralizer_c8_generic_dim_is_rank(capsys):
    assert run(["centralizer", "C", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["items"][0]["details"] == {"dim": 8, "rank": 8}


def test_catalog_mismatch_fails_items(monkeypatch, capsys):
    oracle = parabolic.expected_rows
    # a wrong E set for (so_5, so_3 x so_2): the oracle says {alpha_1} only
    monkeypatch.setattr(parabolic, "expected_rows", lambda t, n: (
        {0: ([frozenset({0})], 1)} if (t, n) == ("B", 2) else oracle(t, n)))
    assert run(["verify-all", "--max-rank", "2"]) == 1
    assert "[fail] catalog-table" in capsys.readouterr().out.splitlines()
    assert run(["pairs", "--max-rank", "2", "--json"]) == 1
    item = json.loads(capsys.readouterr().out)["items"][0]
    assert item["status"] == "fail" and item["details"]["mismatches"] == [
        "E-set mismatch for B2, alpha_1: computed [[0], [0, 1]] rank 2,"
        " oracle [[0]] rank 1"]


def test_item_error_is_a_failing_item(monkeypatch):
    monkeypatch.setattr(report, "centralizer_report", lambda *args: 1 // 0)
    assert report.centralizer_dims_item("B", 3) == {
        "name": "centralizer-dims-B3", "status": "fail",
        "details": {"error": "ZeroDivisionError: integer division or "
                             "modulo by zero"}}


def test_internal_error_exits_1(monkeypatch, capsys):
    def broken(*args):
        raise AssertionError("structure constant out of range")
    monkeypatch.setattr(report, "cascade_report", broken)
    assert run(["cascade", "B", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: AssertionError: structure constant out of range\n"


def test_internal_value_error_exits_1(monkeypatch, capsys):
    # an inconsistency found deep in the computation is not bad input
    monkeypatch.setattr(centralizer, "is_ad_semisimple", lambda x: False)
    assert run(["centralizer", "B", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ValueError: X must be ad-semisimple\n"


def test_type_names_carry_the_rank_once(monkeypatch, capsys):
    assert run(["centralizer", "F4", "4"]) == 2
    assert capsys.readouterr().err == "error: F4 has no catalog rows\n"
    monkeypatch.setattr(report, "verify_gamma_partition",
                        lambda rs, full: {"failures": ["forced"]})
    failing = report.cascade_item([("E6", 6), ("B", 3)])["details"]
    assert failing == {"failing": ["E6", "B3"]}


def test_residual_factor_fails_the_pencil(monkeypatch, capsys):
    # a root-free factor x^2 + 1 left by the pencil is a failure that
    # names the factor, not a locus of rational lines alone
    locus = centralizer.nonregular_locus

    def with_residual(P):
        got = locus(P)
        return centralizer.RegularityLocus(
            got.generic_rank, got.special_lines,
            ((Fraction(1), Fraction(0), Fraction(1)),))

    monkeypatch.setattr(report, "nonregular_locus", with_residual)
    assert run(["centralizer", "B", "3", "--json"]) == 1
    pencil = json.loads(capsys.readouterr().out)["items"][0]
    assert pencil == {"name": "pencil-not-degenerate", "status": "fail",
                      "details": {"generic_rank": 8,
                                  "residual_factors": [[1, 0, 1]]}}


def test_model_rejects_a_wrong_representative(monkeypatch, capsys):
    # every other p = 3 orbit's representative has the wrong Jordan type
    # for (3,1,1); X = e1 v^T - v e1^T with v = (0, 1, i) isotropic is
    # skew and nilpotent of type (3,1,1), but it lies in k: theta(X) = X
    pair = mm.build_pair(3)
    wrong = [mm.nilpotent_from_diagram(pair, d) for d in enumerate_dyo(3)
             if d.shape != (3, 1, 1)]
    i = mm.I_UNIT
    wrong.append([{1: Fraction(1), 2: i}, {0: Fraction(-1)}, {0: -i}, {}, {}])
    for X in wrong:
        monkeypatch.setattr(mm, "nilpotent_from_diagram",
                            lambda pair, d, X=X: X)
        assert run(["model", "--p", "3", "--orbit", "3,1,1:++-",
                    "--verify", "triple", "--json"]) == 1, X
        item = json.loads(capsys.readouterr().out)["items"][0]
        assert item["name"] == "representative-in-model", X
        assert item["status"] == "fail", X


def test_model_rejects_a_representative_with_wrong_signs(monkeypatch,
                                                        capsys):
    # (3,-)(1,+)(1,+) has the shape and signature of (3,+)(1,+)(1,-): its
    # representative is skew, in p and of Jordan type (3,1,1), and only
    # the signs of ker X^k on V+ and V- tell the two orbits apart
    pair = mm.build_pair(3)
    d = [d for d in enumerate_dyo(3)
         if d.rows == ((3, "-"), (1, "+"), (1, "+"))][0]
    X = mm.nilpotent_from_diagram(pair, d)
    monkeypatch.setattr(mm, "nilpotent_from_diagram", lambda pair, d: X)
    assert run(["model", "--p", "3", "--orbit", "3,1,1:++-",
                "--verify", "characteristic", "--json"]) == 1
    items = json.loads(capsys.readouterr().out)["items"]
    assert items == [{"name": "representative-in-model", "status": "fail",
                      "details": {"diagram": "SYD(+-+/+/-)",
                                  "jordan_type": [3, 1, 1]}}]


def test_criteria_8_and_9_fail_exactly_where_model_does(monkeypatch):
    # break each check on the shape (3,1,1) alone: the verify-all item
    # names exactly its diagrams, and `model` fails on exactly those
    real_char = mm.characteristic_from_triple
    real_sheet = mm.even_sheet_witness

    def char(t):
        return ((9, 9),) if mm.jordan_type(t.X) == (3, 1, 1) else real_char(t)

    def sheet(pair, t):
        rep = real_sheet(pair, t)
        return {**rep, "ok": mm.jordan_type(t.X) != (3, 1, 1)}

    want = [repr(d) for d in enumerate_dyo(3) if d.shape == (3, 1, 1)]
    for verify, item_fn, name, fake in (
            ("characteristic", report.characteristic_item,
             "characteristic_from_triple", char),
            ("sheet", report.even_sheet_item, "even_sheet_witness", sheet)):
        with monkeypatch.context() as m:
            m.setattr(mm, name, fake)
            it = item_fn((3, 4))
            assert it["status"] == "fail", verify
            assert it["details"] == {"failing": want}, verify
            for p in (3, 4):
                for d in enumerate_dyo(p):
                    spec = ",".join(map(str, d.shape)) + ":" + "".join(
                        s for _, s in d.rows) + "".join(
                        ":" + n for n in d.numerals)
                    ok = model_report(p, spec, verify)["ok"]
                    assert ok == (repr(d) not in want), (verify, d)


def test_centralizer_json(capsys):
    assert run(["centralizer", "B", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert _no_floats(doc)
    row = doc["rows"][0]
    dims = sorted(line["dim_g_X"] for line in row["lines"])
    assert dims == [7, 7, 11, 11]


@pytest.mark.parametrize("argv, golden", [
    (["centralizer", "B", "3"], "centralizer_B3.json"),
    (["centralizer", "D", "5", "--root", "5"], "centralizer_D5_root5.json"),
    # (sl_4, s(gl_2 x gl_2)) = (so_6, so_4 x so_2): l is so_4 = A1xA1 on
    # the diagonal lines, with the subpair (so_4, so_3)
    (["centralizer", "A", "3", "--root", "2"], "centralizer_A3_root2.json"),
])
def test_centralizer_golden(argv, golden, capsys):
    assert run(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    # the command names every option given: D5 with root 5 is (so_10, gl_5),
    # not the default (so_10, so_8 x so_2)
    assert json.loads(out)["command"] == " ".join(argv)
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["pairs", "--max-rank", "8"], "pairs_max_rank_8.json"),
    (["cascade", "E8", "8"], "cascade_E8.json"),
])
def test_pairs_and_cascade_golden(argv, golden, capsys):
    # both read every root system's sweep data (masks, cascades, keys)
    assert run(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_model_verify_commands(capsys):
    for verify in ("triple", "characteristic", "sheet", "distinguished"):
        code = run(["model", "--p", "3", "--orbit", "2,2,1",
                    "--verify", verify, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc
        assert _no_floats(doc)


def test_model_sheet_rejects_non_even(capsys):
    assert run(["model", "--p", "3", "--orbit", "2,2,1",
                "--verify", "sheet", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    statuses = {i["name"]: i["status"] for i in doc["items"]}
    assert statuses["even-sheet"] == "skipped"


def test_parse_orbit():
    d = parse_orbit(3, "3,1,1:-++:I")
    assert d.shape == (3, 1, 1)
    assert d.rows[0][1] == "-"
    assert "I" in d.numerals
    with pytest.raises(ValueError):
        parse_orbit(3, "x,y")
    with pytest.raises(ValueError):
        parse_orbit(3, "3,1,1:*")
    # every so(2,2) orbit by its own spec, numerals in the diagram's order
    specs = ["3,1:+-:I", "3,1:+-:II", "3,1:-+:I", "3,1:-+:II", "2,2:++:I:I",
             "2,2:++:I:II", "2,2:++:II:I", "2,2:++:II:II", "1,1,1,1"]
    assert [parse_orbit(2, s) for s in specs] == enumerate_dyo(2)


def test_model_report_zero_orbit_skips():
    rep = model_report(2, "1,1,1,1", "triple")
    statuses = [i["status"] for i in rep["items"]]
    assert "skipped" in statuses
    assert rep["ok"]


def test_verify_all_small(capsys):
    # every certificate is exact, so neither report may move by a byte
    for argv, golden in ((["--max-rank", "4"], "verify_all_max_rank_4.json"),
                         ([], "verify_all_default.json")):
        assert run(["verify-all", *argv, "--json"]) == 0, argv
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN / golden).read_bytes(), argv
        doc = json.loads(out)
        assert doc["ok"]
        assert _no_floats(doc)
        names = {i["name"] for i in doc["items"]}
        assert "catalog-table" in names
        assert "centralizer-dims-D5" in names


# every so(p,2) orbit of p = 3 and p = 4, by shape[:signs][:numeral]
MODEL_ORBITS = {
    3: ["5:+:I", "5:+:II", "3,1,1:++-", "3,1,1:-++:I", "3,1,1:-++:II",
        "2,2,1:+++:I", "2,2,1:+++:II", "1,1,1,1,1"],
    4: ["5,1:++:I", "5,1:++:II", "3,3:++:I", "3,3:++:II", "3,1,1,1:+++-",
        "3,1,1,1:-+++:I", "3,1,1,1:-+++:II", "2,2,1,1:++++:I",
        "2,2,1,1:++++:II", "1,1,1,1,1,1"],
}


@pytest.mark.parametrize("verify", ["triple", "characteristic", "sheet",
                                    "distinguished"])
@pytest.mark.parametrize("p", [3, 4])
def test_model_golden(p, verify, capsys):
    out = []
    for spec in MODEL_ORBITS[p]:
        assert run(["model", "--p", str(p), "--orbit", spec, "--verify",
                    verify, "--seed", "5", "--json"]) == 0, spec
        out.append(capsys.readouterr().out)
    golden = GOLDEN / f"model_p{p}_{verify}.txt"
    assert "".join(out).encode() == golden.read_bytes()


def test_python_m_liepairs_from_checkout():
    # the package runs as a module with only its source on the path
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "liepairs", "pairs", "--max-rank", "2"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # --max-rank bounds the classical types only: the E rows always show
    assert "(sp_4, gl_2)" in proc.stdout and "(E7, E6 x C)" in proc.stdout
