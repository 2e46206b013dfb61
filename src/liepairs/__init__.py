"""Exact computational toolkit for commuting varieties of symmetric
pairs with abelian Cartan subspaces and the nilpotent orbits of
(so_{p+2}, so_p x so_2).

Everything is computed over the rationals (Gaussian rationals where the
Cayley transform needs i); there are no floating-point numbers anywhere.
"""

from .cascade import CascadeEntry, cascade, full_cascade
from .centralizer import (
    RegularityLocus,
    SubpairReport,
    nonregular_locus,
    regularity_check,
    subpair,
)
from .chevalley import ChevalleyAlgebra, LieElement, bracket, build_algebra
from .gaussian import QI
from .matrixmodel import (
    CayleyTriple,
    MatrixPair,
    NormalTriple,
    build_pair,
    cayley_transform,
    characteristic_from_triple,
    even_sheet_witness,
    jordan_decompose,
    lemma51_check,
    minimal_orbit_not_distinguished,
    nilpotent_from_diagram,
    normal_triple_for,
)
from .orbits import (
    SignedYoungDiagram,
    YoungDiagram,
    characteristic,
    enumerate_dyo,
    enumerate_yd,
    forget_signs,
    is_even,
)
from .parabolic import (
    AbelianParabolic,
    build_parabolic,
    enumerate_catalog,
    proposition_checks,
    scan_type,
)
from .rootsystem import RootSystem, build_root_system

__all__ = [
    "AbelianParabolic",
    "CascadeEntry",
    "CayleyTriple",
    "ChevalleyAlgebra",
    "LieElement",
    "MatrixPair",
    "NormalTriple",
    "QI",
    "RegularityLocus",
    "RootSystem",
    "SignedYoungDiagram",
    "SubpairReport",
    "YoungDiagram",
    "bracket",
    "build_algebra",
    "build_pair",
    "build_parabolic",
    "build_root_system",
    "cascade",
    "cayley_transform",
    "characteristic",
    "characteristic_from_triple",
    "enumerate_catalog",
    "enumerate_dyo",
    "enumerate_yd",
    "even_sheet_witness",
    "forget_signs",
    "full_cascade",
    "is_even",
    "jordan_decompose",
    "lemma51_check",
    "minimal_orbit_not_distinguished",
    "nilpotent_from_diagram",
    "nonregular_locus",
    "normal_triple_for",
    "proposition_checks",
    "regularity_check",
    "scan_type",
    "subpair",
]
