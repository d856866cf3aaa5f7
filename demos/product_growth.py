"""
Evaluating the canonical product and watching it grow
=====================================================

f(z) is the product over all lattice zeros of (1 - z/a).  Grouping each
circle's zeros turns the product into prod_k (1 - (z/2^k)^(2^k)), which this
package evaluates in log space with an automatic cutoff.  The script prints a
few values, then traces log|f| / r along a ray to expose the growth rate:
the normalized maximum modulus hovers near 4/e = 1.4715 at the top of each
dyadic window and sags to 2 log 2 = 1.3863 between them.
"""
import math

import numpy as np

from expgrowth import ProductEvaluator, ZeroLattice, dyadic_radii
from expgrowth.lognum import exp

ev = ProductEvaluator(ZeroLattice(k_max=14))

print("sample values")
for z in (1.0 + 0.0j, 3.0 + 2.0j, 10.0j, -25.0 + 0.0j):
    lf = ev.log_f([z])[0]
    print("  f(%s) = %s   log|f| = %.6f" % (z, complex(exp(lf)), lf.real))
print()

# exact zeros: 2^k times a 2^k-th root of unity
z = ev.lattice.zero(3, 5)
print("at a lattice zero %s: log|f| = %s" % (z, ev.log_abs_f([z])[0]))
print()

# powers of two on this ray are exact zeros, so sample between them
print("normalized growth along the positive axis")
print("  r          log|f(r)| / r")
for r in (260.0, 384.0, 520.0, 768.0, 1000.0):
    print("  %7.1f    %.6f" % (r, ev.log_abs_f([r])[0] / r))
print()

print("maximum modulus over 64 directions, normalized by r")
radii = dyadic_radii(9, 14, 8)
vals = np.array([ev.max_modulus(float(r), 64) for r in radii])
print("  sup  = %.6f   (limit 4/e = %.6f)" % (vals.max(), 4.0 / math.e))
print("  min  = %.6f   (2 ln 2    = %.6f)" % (vals.min(), 2.0 * math.log(2.0)))
print("  the sup lands near the top of a dyadic window; between tops the")
print("  curve sags below 2 ln 2 at finite radius and rises toward it as")
print("  the windows get deeper")
