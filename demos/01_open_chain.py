"""Open chains: the {0, +-1} Green's function pattern, four ways.

The zero-energy Green's function of the uniform open chain exists only for
an even number of sites, and then every entry is 0 or +-1.  This script
computes it by closed form, by the Usmani tridiagonal recursions, by float
LU, and by the spectral sum, and shows they coincide.
"""

import numpy as np

from hueckel_green import (ChainSpec, Topology, TridiagonalSpec,
                           build_hamiltonian, det_open, direct_green_sum,
                           green_matrix, lu_inverse, transmission_proxy,
                           usmani_inverse)

N = 8
spec = ChainSpec(Topology.OPEN, N)
H = build_hamiltonian(spec)
print(f"open chain with {N} sites, det = {det_open(N)}")

G = green_matrix(spec)
print("\nclosed-form G = -H^(-1):")
for row in G.to_lists():
    print("  " + " ".join(f"{str(x):>2}" for x in row))

usmani = -usmani_inverse(TridiagonalSpec.from_chain(spec))
print("\nUsmani route identical:", usmani == G)

numeric = -np.asarray(lu_inverse(H.to_float()))
print("float LU route max |diff|:", np.max(np.abs(numeric - G.to_float())))

r, s = 4, 1
print(f"\nspectral sum at ({r},{s}):", direct_green_sum(N, r, s))

print("\ntransmission |G(r,s)|^2 from site 1:")
for s in range(1, N + 1):
    print(f"  1 -> {s}: {transmission_proxy(G, 1, s)}")
print("zeros at same-parity sites: destructive interference")
