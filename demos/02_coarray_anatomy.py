"""Anatomy of the third-order exhaustive co-array (TO-ECA).

An N-sensor array yields 4*N^3 cumulant entries, one per conjugation
pattern and ordered sensor triple.  Each entry responds to a virtual
"lag": a signed triple sum of positions.  What a subspace method can use
is the consecutive run of lags around zero, [-Z, Z]; everything beyond
the first gap is stranded.
"""

from tosda import build_to_sda, build_ula, second_order, to_eca, toca

print("Second-order co-arrays of {0, 1, 4}:")
from tosda import SensorArray

arr = SensorArray("probe", (0, 1, 4))
for kind in ("DCA", "SCA"):
    rep = second_order(arr, kind)
    print(f"  {kind}: lags={list(rep.phi_u)} holes={list(rep.holes)}")

print("\nPer-pattern third-order co-arrays of a 2-element array:")
ula2 = build_ula(2)
for j in (1, 2, 3, 4):
    print(f"  pattern {j}: {dict(toca(ula2, j).entries)}")

print("\nTO-ECA of ULA(3) — the minimum-size case (6N-5 lags):")
rep = to_eca(build_ula(3))
print(f"  lags {rep.phi_u[0]}..{rep.phi_u[-1]}, {rep.size_u} distinct, "
      f"Z={rep.one_sided_z}, holes={list(rep.holes)}")

print("\nTO-ECA of the 8-sensor CNA design:")
arr, _ = build_to_sda("cna", 8)
rep = to_eca(arr)
print(f"  {rep.size_u} distinct lags spanning ±{rep.phi_u[-1]}")
print(f"  consecutive segment: [-{rep.one_sided_z}, {rep.one_sided_z}] "
      f"-> {2 * rep.one_sided_z + 1} usable virtual elements")
print(f"  first gap just outside: lag {rep.one_sided_z + 1} "
      f"{'present' if (rep.one_sided_z + 1) in rep.weights else 'missing'}")
print(f"  multiplicity sums to 4*N^3 = {rep.weights.total}")
print(f"  heaviest lags: "
      f"{sorted(rep.weights.entries.items(), key=lambda kv: -kv[1])[:3]}")
