"""Hecke double cosets by a CRT-split coset scan, and the Iwahori invariants.

The square of the transpose degree-(p+1) correspondence decomposes as the
degree-(p^2+p) coset plus (p+1) copies of a diamond twist of the scalar
coset; the engine finds this by counting products of explicit coset
representatives.  Those come from the preimage of the subgroup modulo L*n
split by CRT into its level side and SL2(Z/n1), n1 the part of the
determinant prime to the level: one Hermite form per pair of parts and one
class label per level-side element.  Products are grouped into right cosets
by a key, the Hermite normal form of the matrix under SL2(Z) together with
the class of its unimodular part modulo the subgroup; the representatives
themselves are still certified pairwise inequivalent by a direct membership
test.
"""

from fractions import Fraction as F

from rankin import (CongSubgroup, CosetMatrix, coset_reps, iwahori_index,
                    iwahori_invariant, t_prime_square_identity)

G = CongSubgroup.gamma1(5)
reps = coset_reps(G, CosetMatrix((2, 0, 0, 1)))
print("right-coset representatives of the degree-3 coset at level 5:")
for r in reps:
    print("   ", r)

print("\nsquare identity at (N, p) = (5, 2):")
report = t_prime_square_identity(5, 2)
for entry in report["constituents"]:
    print(f"    {entry['cell']}: multiplicity {entry['multiplicity']}, "
          f"degree {entry['degree']}")
print("verdict:", report["holds"], "| diamond constituent is", report["diamond"])

print("\nIwahori indices at p = 3:")
for j in range(3):
    diag = (F(3) ** j, F(0), F(0), F(3) ** -j)
    anti = (F(0), -(F(3) ** -j), F(3) ** j, F(0))
    print(f"    j = {j}: diagonal cell {iwahori_invariant(diag, 3)} index "
          f"{iwahori_index(diag, 3)}, antidiagonal cell "
          f"{iwahori_invariant(anti, 3)} index {iwahori_index(anti, 3)}")
