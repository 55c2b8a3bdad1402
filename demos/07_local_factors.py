"""Local factors of the convolution and the identities around them: the
two-route computation of the degree-4 factor, the dual-form symmetry of the
ordinary interpolation factors, and the certified correction polynomial.
"""

from rankin import (functional_symmetry_check, interpolation_factors,
                    load_bundled, local_correction, rankin_euler_factor,
                    weil_check)
from rankin.euler import SYM_RING, joint_coefficient_ring

f = load_bundled("f11.eigenform")
g = load_bundled("g26.eigenform")

# the degree-4 factor is computed from the coefficient display and re-derived
# from the product over the four root pairs in the splitting ring; the
# constructor asserts the two routes agree
for p in (3, 5, 7):
    fac = rankin_euler_factor(f, g, p)
    print(f"p = {p}: {fac}")
    print(f"   reciprocal roots within p^((k+l-2)/2):",
          weil_check(fac, p, 2, 2))

fac17 = interpolation_factors(SYM_RING.var("p"))
print("\nordinary interpolation factors at twist 1 (symbolic):")
print("   modification:", fac17.modification)
print("   level-lowering variant:", fac17.modification_star)

print("\ndual-form symmetry of the interpolation ratio (every weight and twist):",
      functional_symmetry_check())

# the correction polynomial at the joint level 286 = 11 * 26: the two levels
# are coprime, so for the newforms themselves the correction is exactly 1
joint, mf, mg = joint_coefficient_ring(f, g)
one = joint.one()
a2g, a11g, a13g = mg(g.a(2)), mg(g.a(11)), mg(g.a(13))
a2f, a11f, a13f = mf(f.a(2)), mf(f.a(11)), mf(f.a(13))
bad = {2: [one, -(a2g * a2f), a2g * a2g * 2],
       11: [one, -(a11f * a11g), a11f * a11f * mg(g.char_value(11)) * 11],
       13: [one, -(a13g * a13f), a13g * a13g * 13]}
C, certified, _ = local_correction(lambda p, r: mf(f.prime_power(p, r)),
                                   lambda p, r: mg(g.prime_power(p, r)),
                                   286, bad, 8, joint)
print(f"\ncorrection polynomial at N = 286: C = {C} (certified: {certified})")
