"""End-to-end walkthrough of the matrix model for so(6) with the
involution by diag(I_4, -I_2), i.e. the pair (so_6, so_4 x so_2).

Covers: orbit representative from a signed diagram, exact normal
sl2-triple, characteristic read off the neutral element, the Cayley
transform from the real form, and the witness showing the minimal
orbit is not p-distinguished.

Run:  python3 demos/matrix_model_walkthrough.py
"""

from liepairs import (
    build_pair,
    cayley_transform,
    characteristic_from_triple,
    enumerate_dyo,
    even_sheet_witness,
    jordan_decompose,
    lemma51_check,
    minimal_orbit_not_distinguished,
    nilpotent_from_diagram,
    normal_triple_for,
)
from liepairs.matrixmodel import (
    jordan_type,
    lemma_witness_element,
    minimal_orbit_cayley_triple,
)

p = 4
pair = build_pair(p)
print(f"pair: so_{p + 2} with theta = Ad diag(I_{p}, -I_2)")
print(f"dim k = {len(pair.k_basis())}, dim p = {len(pair.p_basis())}\n")

print("=" * 72)
print("orbit representatives and their characteristics")
print("=" * 72)
for d in enumerate_dyo(p):
    X = nilpotent_from_diagram(pair, d)
    shape = jordan_type(X)
    if shape == (1,) * (p + 2):
        print(f"  {d.sign_string():<14} zero orbit")
        continue
    t = normal_triple_for(pair, X)
    c = characteristic_from_triple(t)
    print(f"  {d.sign_string():<14} Jordan type {shape!s:<14}"
          f" characteristic {' or '.join(map(str, c))}")

print()
print("=" * 72)
print("even-sheet check on the (3,1,1,1) orbit")
print("=" * 72)
d = [x for x in enumerate_dyo(p) if x.shape == (3, 1, 1, 1)][0]
t = normal_triple_for(pair, nilpotent_from_diagram(pair, d))
rep = even_sheet_witness(pair, t)
print(f"dim p^X = {rep['dim_p_X']}")
print(f"  dim p^(X + Y) = {rep['dim_p_X_plus_Y']},"
      f" X + Y semisimple = {rep['semisimple']} (so for every lambda != 0)")

print()
print("=" * 72)
print("minimal orbit (2,2,1,...): Cayley transform and witness")
print("=" * 72)
ct = minimal_orbit_cayley_triple(pair)
print("Cayley triple in the real form valid:", ct.validate() == [])
nt = cayley_transform(pair, ct)
print("normal triple after transform valid:", nt.validate() == [])
rep = minimal_orbit_not_distinguished(pair)
print("nonzero semisimple H in p commuting with both real orbit reps:",
      rep["ok"])

print()
print("=" * 72)
print("Jordan components of mixed elements of p")
print("=" * 72)
X, Xs, Xn = lemma_witness_element(pair)
S, N = jordan_decompose(X)
print("X = Xs + Xn with [Xs, Xn] = 0 recovered exactly:",
      S == Xs and N == Xn)
rep = lemma51_check(pair, X, trials=20, seed=0)
print(f"sampled Y in p^X with Y_s proportional to X_s:"
      f" {rep['trials'] - rep['failures']}/{rep['trials']}")
