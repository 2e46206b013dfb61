"""The record classes: constructor order and defaults, equality and
hashing, and an import of the CLI that compiles no dataclass code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from liepairs import (
    AbelianParabolic,
    CascadeEntry,
    CayleyTriple,
    MatrixPair,
    NormalTriple,
    RegularityLocus,
    RootSystem,
    SignedYoungDiagram,
    SubpairReport,
    YoungDiagram,
    build_root_system,
    full_cascade,
)

SUBPAIR_FIELDS = ("dim_g_X", "dim_k_X", "dim_p_X", "l_dim", "l_center_dim",
                  "l_type", "dim_l_minus", "dim_r_plus", "r_pair_label")


def _subpair_json(rec, values):
    assert list(rec.to_json_dict().items()) == list(zip(SUBPAIR_FIELDS,
                                                        values))


def _matrix_pair(rec, values):
    assert rec.n == values[0] + 2
    assert repr(rec) == f"MatrixPair(p={values[0]})"


def _root_system(rec, values):
    # the derived data and the cascade cache take no part in eq and hash
    assert rec == RootSystem(*values[:5])
    a, b = build_root_system("E6", 6), build_root_system("E6", 6)
    assert a == b and hash(a) == hash(b)
    full_cascade(a)
    assert a._cascade is not None and b._cascade is None
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)


# class, its constructor's parameters in order, the defaults of the
# optional ones, whether it hashes (it was frozen), and a class-specific
# check on an instance built from the values
RECORDS = [
    (CascadeEntry, ("subset_K", "epsilon_K", "gamma_K"), {}, True, None),
    (YoungDiagram, ("rows", "numeral"), {"numeral": None}, True, None),
    (SignedYoungDiagram, ("rows", "numerals"), {"numerals": ()}, True,
     None),
    (AbelianParabolic, ("alg", "omitted_index", "R_S1", "E_entries",
                        "pair_label", "rank"), {}, True, None),
    (SubpairReport, SUBPAIR_FIELDS, {}, False, _subpair_json),
    (RegularityLocus, ("generic_rank", "special_lines", "residual_factors"),
     {}, False, None),
    (CayleyTriple, ("H0", "X0", "Y0"), {}, False, None),
    (NormalTriple, ("pair", "H", "X", "Y"), {}, False, None),
    (RootSystem, ("type_label", "rank", "cartan_matrix", "positive_roots",
                  "lengths", "_masks", "_len6", "_keys", "_gram6"),
     dict.fromkeys(("_masks", "_len6", "_keys", "_gram6"), ()), True,
     _root_system),
    (MatrixPair, ("p",), {}, False, _matrix_pair),
]


@pytest.mark.parametrize("cls,params,defaults,hashes,check", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, params, defaults, hashes, check):
    values = [3 + i for i in range(len(params))]
    rec = cls(*values)
    assert [getattr(rec, name) for name in params] == values
    bare = cls(*(v for name, v in zip(params, values)
                 if name not in defaults))
    assert {name: getattr(bare, name) for name in defaults} == defaults
    assert cls(*values) == rec
    assert cls(0, *values[1:]) != rec
    if hashes:
        assert hash(cls(*values)) == hash(rec)
    if check is not None:
        check(rec, values)


def test_cli_import_compiles_no_dataclass():
    # -S: no site hook imports anything first
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "import liepairs.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
