"""Dyadic root-of-unity zero lattice.

Circle k (radius 2^k, k = 1, 2, ...) carries the 2^k-th roots of unity
scaled by 2^k, optionally rotated as a whole.  Counting queries are answered
in exact integer arithmetic; zero coordinates are materialized lazily, one
circle at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lognum import TAU

#: cardinal unit roots, exact in binary64
_QUARTER = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class LatticeExhaustedError(ValueError):
    """Raised when a query needs zeros beyond radius 2^k_max."""


@dataclass(frozen=True)
class ZeroLattice:
    """Zeros a_{kj} = 2^k * exp(i*(2*pi*j/2^k + rotation)), k = 1..k_max."""

    k_max: int = 20
    rotation: float = 0.0
    _circles: dict = field(default_factory=dict, repr=False, compare=False)
    _recip: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    def zero(self, k: int, j: int) -> complex:
        """Single lattice point; cardinal angles are exact when unrotated."""
        n = 1 << k
        j %= n
        if self.rotation == 0.0:
            q, rem = divmod(4 * j, n)
            if rem == 0:
                return float(n) * _QUARTER[q]
        phi = TAU * j / n + self.rotation
        return float(n) * complex(math.cos(phi), math.sin(phi))

    def circle(self, k: int) -> np.ndarray:
        """All 2^k zeros on circle k, ordered by j (memoized)."""
        if not 1 <= k <= self.k_max:
            raise LatticeExhaustedError(f"circle {k} outside 1..{self.k_max}")
        cached = self._circles.get(k)
        if cached is None:
            n = 1 << k
            phi = TAU * np.arange(n) / n + self.rotation
            cached = np.empty(n, dtype=complex)
            cached.real = float(n) * np.cos(phi)
            cached.imag = float(n) * np.sin(phi)
            if self.rotation == 0.0:
                # the quarter turns, exact as zero() gives them
                step = max(n // 4, 1)
                cached[::step] = [self.zero(k, j) for j in range(0, n, step)]
            self._circles[k] = cached
        return cached

    def _k_of_radius(self, r: float) -> int:
        """Largest k with 2^k <= r, or 0; exact for dyadic r."""
        if r < 2.0:
            return 0
        k = int(math.floor(math.log2(r)))
        while 2.0 ** (k + 1) <= r:
            k += 1
        while 2.0 ** k > r:
            k -= 1
        return k

    def _check_range(self, r: float) -> int:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        k = self._k_of_radius(r)
        if r > 2.0 ** self.k_max:
            raise LatticeExhaustedError(
                f"r={r} exceeds 2^k_max={2.0 ** self.k_max}; increase k_max"
            )
        return k

    def counting(self, r: float) -> int:
        """n(r): number of zeros with modulus <= r (ties included)."""
        k = self._check_range(r)
        return (1 << (k + 1)) - 2 if k >= 1 else 0

    def _circle_recip(self, k: int) -> complex:
        """Exact-order full-precision sum of 1/a over circle k."""
        cached = self._recip.get(k)
        if cached is None:
            inv = 1.0 / self.circle(k)
            cached = complex(math.fsum(inv.real), math.fsum(inv.imag))
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

    def reciprocal_bounded(self, bound: float = 1e-10) -> bool:
        return self.max_reciprocal <= bound


def verify_counting_bounds(lattice: ZeroLattice) -> CountingReport:
    """Check that n(r)/r stays <= 2 and reciprocal sums stay bounded.

    n(2^k)/2^k is evaluated as an exact rational; the reciprocal sums are
    scanned over every dyadic radius and every dyadic midpoint 1.5*2^k.
    A small k_max (below ~4) gives a report too coarse to mean much, but the
    arithmetic is still exact, so no minimum is enforced.
    """
    sup = Fraction(0)
    sup_k = 0
    for k in range(1, lattice.k_max + 1):
        val = Fraction((1 << (k + 1)) - 2, 1 << k)
        if val > sup:
            sup, sup_k = val, k
    worst = 0.0
    worst_r = 2.0
    radii = [2.0 ** k for k in range(1, lattice.k_max + 1)]
    radii += [1.5 * 2.0 ** k for k in range(1, lattice.k_max)]
    for r in sorted(radii):
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
    """Export the lattice as columns k, j, re, im (17 significant digits),
    written circle by circle."""
    with open(path, "w", encoding="ascii") as out:
        out.write("k,j,re,im\n")
        for k in range(1, lattice.k_max + 1):
            a = lattice.circle(k)
            out.write("".join([
                "%d,%d,%.17g,%.17g\n" % (k, j, x, y)
                for j, (x, y) in enumerate(zip(a.real.tolist(),
                                               a.imag.tolist()))
            ]))
