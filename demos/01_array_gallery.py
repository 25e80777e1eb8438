"""Tour of the array geometries this package can build.

Every array lives on an integer grid in units of the element spacing
(half a wavelength by default).  The interesting designs are two-part:
a dense "generator" block whose sums produce a gap-free run of virtual
lags, and a coarse uniform tail that replicates that run outward.
"""

import numpy as np

from tosda import (
    build_generator,
    build_gtoa,
    build_to_sda,
    build_ula,
    minimum_sensors,
)


def show(array, note=""):
    line = np.full(array.positions[-1] + 1, ".")
    line[list(array.positions)] = "x"
    print(f"{array.name:28s} {''.join(line)}  {note}")


print("A uniform array is the degenerate baseline:")
show(build_ula(8))

print("\nThe three generator families (dense blocks):")
show(build_generator("cna", 1, 3))
show(build_generator("scna", 1, 3))
show(build_generator("tna2", 3, 3))

print("\nA generator plus a coarse tail = general third-order array:")
gen = build_generator("cna", 1, 3)
show(build_gtoa(gen, 31, 25, 3), "(tail at 31, 56, 81)")

print("\nDOF-maximizing designs with 8 sensors:")
for variant in ("cna", "scna", "tna2"):
    arr, params = build_to_sda(variant, 8)
    show(arr, f"split N1={params.N1} N2={params.N2} "
              f"M=({params.M1},{params.M2}) J={params.J}")

print("\nSmallest feasible sensor counts per family:")
for variant in ("cna", "scna", "tna2"):
    print(f"  {variant:5s}: N >= {minimum_sensors(variant)}")
