"""Tour of the catalog: maximal parabolics with abelian unipotent
radical, the symmetric pairs they induce, and the Kostant cascade
elements spanning their Cartan subspaces.

Run:  python3 demos/catalog_tour.py
"""

from liepairs import build_root_system, enumerate_catalog, full_cascade
from liepairs.parabolic import proposition_checks

print("=" * 72)
print("Kostant cascade of a few root systems")
print("=" * 72)
for label, rank in (("A", 3), ("B", 3), ("C", 4), ("D", 5), ("E6", 6)):
    rs = build_root_system(label, rank)
    entries = full_cascade(rs)
    print(f"\n{label}{rank}:  {len(entries)} cascade entries")
    for e in entries:
        print(f"  K = {sorted(i + 1 for i in e.subset_K)!s:<22} "
              f"eps_K = {e.epsilon_K}  |Gamma^K| = {len(e.gamma_K)}")

print()
print("=" * 72)
print("All symmetric pairs from abelian-radical maximal parabolics")
print("(exhaustive scan, checked against the static catalog)")
print("=" * 72)
catalog, mismatches = enumerate_catalog(max_rank=6)
assert not mismatches, mismatches
for P in catalog:
    print(f"{P.rs.type_label}{P.rs.rank} alpha_{P.omitted_index + 1}:"
          f"  {P.pair_label:<28} rank {P.rank}  dim p = {2 * len(P.R_S1)}")

print()
print("Structural facts (abelian Cartan subspace, semisimple X_K,")
print("radical covered by the Gamma^K) for each pair:")
for P in catalog:
    rep = proposition_checks(P)
    tag = "ok" if rep["ok"] else f"FAILED: {rep['failures']}"
    print(f"  {P.pair_label:<32} {tag}")
