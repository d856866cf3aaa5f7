"""Dyadic root-of-unity zero lattice.

Circle k (radius 2^k, k = 1, 2, ...) carries the 2^k-th roots of unity
scaled by 2^k.  Counting queries are answered in exact integer arithmetic;
zero coordinates are materialized lazily, one circle at a time.  A circle is
built from its first octant by exact reflections, so its reciprocal sum is
exactly 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .csvio import row_blocks
from .lognum import TAU


class LatticeExhaustedError(ValueError):
    """Raised when a query needs zeros beyond radius 2^k_max."""


@dataclass(frozen=True)
class ZeroLattice:
    """Zeros a_{kj} = 2^k * exp(2*pi*i*j/2^k), k = 1..k_max."""

    k_max: int = 20
    _circles: dict = field(default_factory=dict, repr=False, compare=False)
    _recip: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    def zero(self, k: int, j: int) -> complex:
        """Single lattice point, bit for bit as circle(k)[j]."""
        n = 1 << k
        turns, rem = divmod(4 * (j % n), n)  # j = turns quarters + rem/4
        i = min(rem, n - rem) // 4  # the first-octant point or its mirror
        x = math.cos(TAU * i / n)
        y = x if 8 * i == n else math.sin(TAU * i / n)
        if 2 * rem > n:
            x, y = y, x
        for _ in range(turns):
            x, y = 0.0 - y, x
        return complex(n * x, n * y)

    def circle(self, k: int) -> np.ndarray:
        """All 2^k zeros on circle k, ordered by j (memoized).

        cos and sin are taken for 0 <= j <= 2^k/8 only (x = y on the
        diagonal); x <-> y fills the first quarter and the exact quarter turn
        x, y -> 0.0 - y, x the others, with no -0.0."""
        if not 1 <= k <= self.k_max:
            raise LatticeExhaustedError(f"circle {k} outside 1..{self.k_max}")
        cached = self._circles.get(k)
        if cached is None:
            n = 1 << k
            cached = np.empty(n, dtype=complex)
            if k < 3:
                cached[:] = [self.zero(k, j) for j in range(n)]
            else:
                m = n // 8
                phi = TAU * np.arange(m + 1) / n
                c, s = float(n) * np.cos(phi), float(n) * np.sin(phi)
                s[m] = c[m]
                x, y = np.append(c, s[m - 1:0:-1]), np.append(s, c[m - 1:0:-1])
                cached.real = np.concatenate((x, 0.0 - y, 0.0 - x, y))
                cached.imag = np.concatenate((y, x, 0.0 - y, 0.0 - x))
            self._circles[k] = cached
        return cached

    def _nearest_zero(self, z: complex):
        """(k, a): the zero a of circle k nearest to z, where |z| is within
        4 ulps of 2^k (a zero's modulus is rounded), on any circle k >= 1,
        materialized or not; None where |z| is no such radius.

        Every exact zero is its own nearest zero on circles 1-60.  The
        rounded angle index can miss by one; from k = 55, where its error
        2^k ulp(pi) / tau passes 1 and binary64 lattice points alias, by
        more, so a miss on circles 55-60 searches +-2 * 2^(k - 52) indices
        (up to 1025 points, about 1.4 ms).  Beyond circle 60, where that
        search would grow without bound, some exact zeros are missed."""
        r = abs(z)
        if not 1.0 < r < math.inf:
            return None
        frac, e = math.frexp(r)
        k = e - (frac < 0.75)
        if not 1 <= k <= 1023 or abs(r - 2.0 ** k) > 4.0 * math.ulp(2.0 ** k):
            return None
        j = round(math.atan2(z.imag, z.real) * (1 << k) / TAU)
        a = self.zero(k, j)
        if a != z:  # the rounded angle index can be off by one
            a = min((a, self.zero(k, j - 1), self.zero(k, j + 1)),
                    key=lambda b: abs(b - z))
        if a != z and 55 <= k <= 60:
            w = 1 << (k - 51)
            a = min((self.zero(k, i) for i in range(j - w, j + w + 1)),
                    key=lambda b: abs(b - z))
        return k, a

    def _check_range(self, r: float) -> int:
        """Largest k with 2^k <= r, or 0, exact; r in [0, 2^k_max] only."""
        if not r >= 0.0:
            raise ValueError("radius must be a nonnegative number, not %r" % r)
        # r = frac 2^e with frac in [0.5, 1), so r <= 2^k_max unless e passes
        # k_max, or k_max + 1 with frac above 0.5; frexp(inf) has e = 0
        frac, e = math.frexp(r)
        if r == math.inf or e - (frac == 0.5) > self.k_max:
            raise LatticeExhaustedError(
                f"r={r} exceeds 2^{self.k_max}; increase k_max")
        return e - 1 if r >= 2.0 else 0

    def counting(self, r: float) -> int:
        """n(r): number of zeros with modulus <= r (ties included)."""
        k = self._check_range(r)
        return (1 << (k + 1)) - 2 if k >= 1 else 0

    def _circle_recip(self, k: int) -> complex:
        """Exact-order full-precision sum of 1/a over circle k."""
        cached = self._recip.get(k)
        if cached is None:
            inv = 1.0 / self.circle(k)
            cached = complex(math.fsum(inv.real.tolist()),
                             math.fsum(inv.imag.tolist()))
            self._recip[k] = cached
        return cached

    def reciprocal_sum(self, r: float) -> complex:
        """Sum of 1/a over |a| <= r; per circle this vanishes identically."""
        k = self._check_range(r)
        if k == 0:
            return 0j
        parts = [self._circle_recip(kk) for kk in range(1, k + 1)]
        return complex(
            math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts)
        )


#: the largest |sum 1/a| over a cutoff radius that counts as bounded
RECIPROCAL_BOUND = 1e-12


@dataclass(frozen=True)
class CountingReport:
    """Boundedness diagnostics for the counting and reciprocal-sum laws."""

    k_max: int
    sup_normalized: Fraction  # sup over k of n(2^k)/2^k, exact
    sup_at_k: int
    max_reciprocal: float  # max |sum 1/a| over the radius grid
    max_reciprocal_at_r: float

    @property
    def density_bounded_by_two(self) -> bool:
        return self.sup_normalized <= 2

    @property
    def reciprocal_bounded(self) -> bool:
        return self.max_reciprocal <= RECIPROCAL_BOUND


def verify_counting_bounds(lattice: ZeroLattice) -> CountingReport:
    """Check that n(r)/r stays <= 2 and reciprocal sums stay bounded.

    n(2^k)/2^k is evaluated as an exact rational; the reciprocal sums are
    scanned over every dyadic radius 2^k, where the step function
    r -> sum_{|a| <= r} 1/a takes each of its values.
    A small k_max (below ~4) gives a report too coarse to mean much, but the
    arithmetic is still exact, so no minimum is enforced.
    """
    sup = Fraction(0)
    sup_k = 0
    for k in range(1, lattice.k_max + 1):
        val = Fraction(lattice.counting(2.0 ** k), 1 << k)
        if val > sup:
            sup, sup_k = val, k
    worst = 0.0
    worst_r = 2.0
    for r in (2.0 ** k for k in range(1, lattice.k_max + 1)):
        mag = abs(lattice.reciprocal_sum(r))
        if mag > worst:
            worst, worst_r = mag, r
    return CountingReport(
        k_max=lattice.k_max,
        sup_normalized=sup,
        sup_at_k=sup_k,
        max_reciprocal=worst,
        max_reciprocal_at_r=worst_r,
    )


def write_zeros_csv(lattice: ZeroLattice, path) -> None:
    """Export the lattice as columns k, j, re, im (17 significant digits) in
    blocks of rows.  Circles 1-2 go row by row.  A larger circle relies on the
    reflections circle() documents: its first octant is formatted once and
    mirrored to the texts of j = 0..2^k/4, and quarter t takes the row template
    of its turn (x, y), (-y, x), (-x, -y) or (y, -x), cut so that no "-" goes
    before the 0 of y at j = 0 or of x at j = 2^k/4 (0.0 - y is +0.0)."""
    with open(path, "w", encoding="ascii") as out:
        out.write("k,j,re,im\n")
        for k in range(1, lattice.k_max + 1):
            a, n = lattice.circle(k), 1 << k
            if k < 3:
                out.writelines(row_blocks(f"{k},%d,%.17g,%.17g\n", range(n),
                                          a.real, a.imag))
                continue
            c, s = ("".join(row_blocks("%.17g\n", part[:n // 8 + 1])).split()
                    for part in (a.real, a.imag))
            x, y, q = c + s[-2::-1], s + c[-2::-1], n // 4  # j = 0..q
            cuts = (0, q + 1, 2 * q + 1, 3 * q, n)  # quarter t from j = t q + i
            for t, cells in enumerate(("%s,%s", "-%s,%s", "-%s,-%s", "%s,-%s")):
                u, v = (x, y) if t % 2 == 0 else (y, x)
                i = cuts[t] - t * q
                out.writelines(row_blocks(f"{k},%d,{cells}\n",
                                          range(cuts[t], cuts[t + 1]),
                                          islice(u, i, None), islice(v, i, None)))
