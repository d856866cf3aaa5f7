"""Tests for contour geometry, adaptive quadrature, and the three transforms."""
import dataclasses
import cmath
import functools
import hashlib
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expgrowth import contours
from expgrowth.borel import BorelDomainError, BorelEvaluator
from expgrowth.cli import _sample_disc
from expgrowth.contours import (
    CancellationCapError,
    F_eval,
    IntegralResult,
    NonConvergenceError,
    QuadratureSpec,
    _FINEST_PANELS,
    _ARC,
    _GAUSS_W,
    _GAUSS_X,
    _POINTS_PER_PANEL,
    _SEGMENT,
    _SHARED_TAIL,
    _TABLE_SIZE,
    _Path,
    _asymptotic_tail,
    _exp_zs,
    _extracted_values,
    _F_channel,
    _integrate,
    _level_table,
    _refinement_values,
    _split,
    _value_and_mass,
    borel_inversion,
    splitting_profile,
    u_decay_bound,
    u_eval,
)
from expgrowth.lattice import ZeroLattice
from expgrowth.lognum import cis, exp
from expgrowth.product import ProductEvaluator

# magnitude of the bounded piece at the origin, frozen from a 50-digit
# quadrature of the transform over the axis segment
ABS_U_AT_0 = 0.04384139741316833


def _circle(radius):
    """The circle borel_inversion integrates over."""
    return _Path(radius, radius, 0.0, math.tau, 4)


@pytest.fixture(scope="module")
def ev():
    return ProductEvaluator(ZeroLattice(k_max=14))


@pytest.fixture(scope="module")
def g():
    return BorelEvaluator()


class TestSegments:
    def test_arc_endpoints_exact(self):
        assert _ARC.at(0.0)[0] == -4.0 + 0.0j
        assert _ARC.at(1.0)[0] == -3.0 + 0.0j
        assert _ARC.at(0.5)[0] == 3.5 + 0.0j  # halfway: angle 0, radius 3.5

    def test_segment_endpoints(self):
        assert _SEGMENT.at(0.0)[0] == -3.0 + 0.0j
        assert _SEGMENT.at(1.0)[0] == -4.0 + 0.0j
        assert _SEGMENT.at(0.3)[1] == -1.0 + 0.0j

    def test_circle_geometry(self):
        c = _circle(4.0)
        assert c.at(0.0)[0] == 4.0 + 0.0j
        assert c.at(0.25)[0] == pytest.approx(4.0j, abs=1e-15)

    def test_radial_segment(self):
        seg = _Path(2.5, 4.0, 0.5 * math.pi, 0.5 * math.pi, 1)
        assert seg.at(0.0)[0] == 2.5j and seg.at(1.0)[0] == 4.0j
        assert seg.at(0.3)[1] == 1.5j

    def test_circle_and_segment_keep_their_closed_form_bits(self):
        # r + 0 t is r and 0 + tau t is tau t exactly, so a circle is
        # r e^{2 pi i t} with derivative 2 pi i r e^{2 pi i t} bit for bit;
        # cis(pi) is exactly -1, so the segment is -3 - t with derivative -1
        t = np.arange(1024) / 1024
        e = cis(math.tau * t)
        for r in (2.5, 3.0, 4.0, 5.0, 8.0):
            s, ds = _circle(r).at(t)
            assert s.tobytes() == (r * e).tobytes()
            assert ds.tobytes() == (r * math.tau * 1j * e).tobytes()
        s, ds = _SEGMENT.at(t)
        assert s.tobytes() == (-3.0 + (-1.0 + 0.0j) * t).tobytes()
        assert ds.tobytes() == np.full(t.shape, -1.0 + 0.0j).tobytes()

    def test_only_a_full_turn_at_a_fixed_radius_is_closed(self):
        assert _circle(4.0).closed and _Path(3.0, 3.0, math.pi, -math.pi,
                                             4).closed
        for path in (_ARC, _SEGMENT, _Path(4.0, 4.0, 0.0, math.pi, 4),
                     _Path(4.0, 3.0, 0.0, math.tau, 4)):
            assert not path.closed

    def test_paths_too_close_to_origin_rejected(self):
        # paths are plain geometry: g refuses the first node inside its floor
        for path in (_circle(2.0), _Path(4.0, 2.0, -math.pi, math.pi, 8),
                     _Path(3.0, 1.0, 0.5, 0.5, 1)):  # down to modulus 1
            with pytest.raises(BorelDomainError):
                _integrate(_SHARED_TAIL.at, path, 1.0)


class TestQuadratureSpec:
    def test_validation(self):
        # a spec is a tolerance only
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
            "target_rel_tol"]
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_tol=1e-14)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                QuadratureSpec(target_rel_tol=tol)


class TestResidues:
    def test_simple_pole(self):
        out = _integrate(lambda s: 1.0 / s, _circle(4.0), 0.0)
        assert isinstance(out, IntegralResult)
        assert abs(out.value - 1.0) <= 1e-12

    def test_double_pole_picks_linear_term(self):
        out = _integrate(lambda s: 1.0 / s**2, _circle(4.0), 3.0)
        assert abs(out.value - 3.0) <= 1e-9

    def test_entire_integrand_vanishes(self):
        out = _integrate(lambda s: 1.0, _circle(4.0), 2.0)
        assert abs(out.value) <= 1e-12


class TestInversion:
    def test_at_origin(self):
        assert abs(borel_inversion(0.0) - 1.0) <= 1e-10

    def test_at_first_zero(self):
        assert abs(borel_inversion(2.0)) <= 1e-8

    def test_matches_product(self, ev):
        for z in (1.0, 1.0 + 1.0j, -2.5j, 3.0 - 1.0j):
            want = ev.eval_log_f(z).to_complex()
            got = borel_inversion(z)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_deformation_invariance(self):
        for z in (1.0 + 1.0j, 2.5, 3.0j):
            base = borel_inversion(z, 4.0)
            for radius in (3.0, 5.0, 6.0):
                other = borel_inversion(z, radius)
                assert abs(other - base) <= 1e-8 * max(abs(base), 1e-3)

    @pytest.mark.parametrize("radius, edge", [
        (2.5, 12.0), (3.0, 10.5), (4.0, 6.0), (5.0, 5.0), (8.0, 2.0)])
    def test_readme_domain(self, ev, radius, edge):
        # the README's z domain of the smallest, the default and the largest
        # circle and of contour_solve's radii 3 and 5, swept at 48
        # directions (offset 0.1 rad) on |z| = 0.5, 1, ..., edge against
        # criterion 5's 1e-7.  Measured worst: 2.5e-9, 4.6e-8, 5.4e-9,
        # 3.2e-8 and 4.3e-12, each on the edge; radius 3 reaches 9.9e-8 at
        # |z| = 11, too near the bound to claim, and 2.2e-7 at 11.5, one
        # step past the edge the default circle 1.5e-7 at 7, radius 5
        # 2.0e-7 at 5.5 and radius 8 4.9e-5 at 4
        directions = cis(0.1 + math.tau * np.arange(48) / 48)
        zs = (np.arange(1, int(2 * edge) + 1)[:, None] / 2.0
              * directions).ravel()
        f = exp(ev.log_f(zs))
        rel = np.abs(borel_inversion(zs, radius) - f) / (1.0 + np.abs(f))
        assert rel.max() <= 1e-7
        assert np.argmax(rel) >= zs.size - 48  # the worst is on the edge

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            borel_inversion(1.0, 2.4)
        with pytest.raises(ValueError):
            borel_inversion(1.0, 8.5)


class TestBoundedPiece:
    def test_origin_value(self):
        u0 = u_eval(0.0)
        assert u0.real == 0.0  # real integrand on a real path
        assert u0.imag == pytest.approx(-ABS_U_AT_0, abs=1e-12)
        assert abs(u0) == pytest.approx(ABS_U_AT_0, abs=1e-12)

    def test_decay_bound(self):
        for x in range(1, 11):
            assert abs(u_eval(float(x))) <= u_decay_bound(x) * (1.0 + 1e-6)

    def test_decay_bound_far_out(self):
        # at 12 the 1/s channel runs two Gauss panels, each term carrying
        # e^{-3x} or less; from 16 on it is the difference of the endpoint
        # tails, which has no log term, so no roundoff of size 1e-16 is
        # left in u
        for x in (12.0, 16.0, 1000.0, 2048.0):
            assert abs(u_eval(x)) <= u_decay_bound(x)

    def test_decay_bound_on_the_half_plane(self):
        # |e^{zs}| <= e^{-3 Re z} on the segment and (1/2 pi) int |g| over
        # [-4, -3] is at most 0.0478, so the bound holds on all of
        # Re z >= 0: a grid with Re z in [0, 12] and |z| <= 40, whose
        # largest ratio is 0.873, at z = 0
        x, y = np.meshgrid(np.arange(0.0, 12.01, 0.25), np.arange(-40.0, 40.01, 0.5))
        zs = (x + 1j * y).ravel()
        zs = zs[np.abs(zs) <= 40.0]
        ratio = np.abs(u_eval(zs)) / [u_decay_bound(z.real) for z in zs]
        assert zs.size > 7000 and ratio.max() == ratio[zs == 0][0] < 0.874

    def test_decay_bound_on_the_left_half_plane(self):
        # for Re z = x < 0 the largest |e^{zs}| on [-4, -3] is e^{-4x}, not
        # e^{-3x}: |u(-1)| is 1.481, above 0.0502 e^3
        for x in (-5.0, -2.0, -1.0, -0.5):
            for y in (0.0, 1.0, -3.0, 7.5):
                assert abs(u_eval(complex(x, y))) <= u_decay_bound(x)
        assert u_decay_bound(-1.0) == 0.0502 * math.exp(4.0)
        with pytest.raises(ValueError):
            u_decay_bound(math.nan)

    def test_positive_axis_oracle(self):
        # 40-digit mpmath quadrature of the series for g over [-4, -3];
        # measured worst 6.1e-16 relative
        oracle = {10.0: -4.5563626942242023e-16j,
                  12.0: -9.4552749608754030e-19j,
                  16.0: -4.3825397880563907e-24j}
        for x, want in oracle.items():
            assert abs(u_eval(x) - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("z, want", [
        (6j, -2.6926816932426637525877361626521500e-03
         - 6.0537037430285508200914455808418849e-04j),
        (8j, 1.6473115520245289680571915945641598e-03
         - 8.2888478393520475446263040875623578e-03j),
        (3.6287689714046185 - 7.129658880491483j,
         -4.9493519622655670035414603340118514e-08
         + 1.0223905376185317327352372706492496e-07j),
        (-4 + 5j, -1.0839550293591416926510400030091474e+04
         - 5.3222783258705152573119733870603645e+04j),
        (6.0, -1.2118294994814136022566932497407802e-10j),
        (8.25, -1.0462546512133320175225863023791476e-13j),
        (12.0, -9.4552749608754029628210007740453762e-19j),
        # past |z| = 12 the segment refines beyond its one-panel level 0
        (20.0, -2.16179217461386613326806659301997889579364414e-29j),
        (-20.0, -1.08037826510324129173014339031084486870529999e+32j),
        (40j, -1.96355585999742497435764665097283528028850731e-03
         + 5.02670377962309439657484044226737574968900394e-04j),
        (16 + 30j, -6.88014554440469585456844591395641525007582059e-26
         + 2.08998635477994076535375453341949395751954238e-24j),
        (-100 + 5j, -1.79560727786983063511363494315445518944428203e+170
         - 9.13074310734484926204622995599625795973673599e+169j),
    ])
    def test_matches_mpmath(self, z, want):
        # frozen from a 50-digit mpmath quadrature (tanh-sinh and
        # Gauss-Legendre agreeing) of the series for g over [-4, -3], at
        # the binary64 z; the Taylor route of the exponential integral
        # missed 3.6287689714046185 - 7.129658880491483j by 3.3e-2.  From
        # 20 on: the 1/s part (Ei(-4z) - Ei(-3z)) / (2 pi i) by mpmath.ei,
        # the tail g - 1/s by 48-node Gauss-Legendre on 64 and on 128
        # subintervals at 60 digits, agreeing to 1e-61 (a plain 8-interval
        # mp.quad is off by 5.6e-7 at z = 100)
        assert abs(u_eval(z) - want) <= 1e-13 * abs(want)

    def test_overflow_names_z_and_the_bound(self):
        u_eval(-177.4)
        for z in (-177.5, np.array([0.0, -200.0 + 3.0j])):
            with pytest.raises(OverflowError, match=r"Re z < -177\.4"):
                u_eval(z)

    def test_anti_conjugation(self):
        # the segment integral T satisfies T(conj z) = conj(T(z)), but the
        # 1/(2 pi i) normalization flips it: u(conj z) = -conj(u(z)).  Every
        # step commutes with negation bit-for-bit, so assert exact equality.
        for z in (1.0 + 2.0j, -0.5 + 4.0j, 3.0 - 1.0j, -6.0 + 1.0j):
            assert u_eval(z.conjugate()) == (-u_eval(z)).conjugate()


class TestArcTransform:
    def test_cap_refusal(self):
        with pytest.raises(CancellationCapError):
            F_eval(41.0)

    def test_cap_refusal_names_the_exact_modulus(self):
        # on the ray pi/9, 40 cis(theta) rounds to a modulus one ulp past 40
        z = 40.0 * cis(math.pi / 9)
        assert abs(complex(z)) == 40.00000000000001
        with pytest.raises(CancellationCapError,
                           match=r"\|z\|=40\.00000000000001 beyond"):
            F_eval(z)

    def test_anchor_values(self, ev):
        f1 = ev.eval_log_f(1.0).to_complex()
        assert abs(F_eval(1.0) - (f1 - u_eval(1.0))) <= 1e-8
        assert abs(F_eval(0.0) - (1.0 - u_eval(0.0))) <= 1e-9
        assert abs(F_eval(2.0) + u_eval(2.0)) <= 1e-8

    def test_splitting_identity(self, ev):
        # the identity needs absolute accuracy pinned to |f|, while F and u
        # individually reach ~2e11 near |z| = 8; drive the quadrature to its
        # floor instead of the default relative target
        spec = QuadratureSpec(target_rel_tol=1e-13)
        rng = np.random.default_rng(21)
        for _ in range(12):
            r = rng.uniform(0.0, 8.0)
            phi = rng.uniform(-math.pi, math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            fv = ev.eval_log_f(z).to_complex()
            resid = abs(F_eval(z, spec) + u_eval(z, spec) - fv)
            assert resid <= 1e-7 * (1.0 + abs(fv))

    def test_readme_domain(self, ev):
        # the README's F_eval claim, |F + u - f| <= 1e-7 (1 + |f|) for
        # |z| <= 7.25 in every direction, swept at 144 directions tau j/144
        # on |z| = 0.5, 1, ..., 7 and the edge 7.25, with the quadrature
        # driven to its floor as above.  Measured worst: 8.9e-8, on the
        # edge at theta = tau 70/144
        spec = QuadratureSpec(target_rel_tol=1e-13)
        directions = cis(math.tau * np.arange(144) / 144)
        radii = np.append(np.arange(1, 15) / 2.0, 7.25)
        zs = (radii[:, None] * directions).ravel()
        f = exp(ev.log_f(zs))
        rel = np.abs(F_eval(zs, spec) + u_eval(zs, spec) - f) / (
            1.0 + np.abs(f))
        assert rel.max() <= 1e-7
        assert np.argmax(rel) >= zs.size - 144  # the worst is on the edge


class TestEndpointChannels:
    # Gauss-panel and asymptotic channels, and pairs that differ only in
    # the sign of a zero component
    SIGNED = [complex(-5.0, 0.0), complex(-5.0, -0.0), complex(-0.5, 0.0),
              complex(-0.5, -0.0), complex(0.0, 2.0), complex(-0.0, 2.0),
              complex(0.5, 0.0), complex(0.5, -0.0), complex(-20.0, 0.0),
              complex(-20.0, -0.0)]

    @pytest.mark.parametrize("x, real", [
        (12.0, "0x1.d37e309bce9cbp+13"),
        (24.0, "0x1.13299d00142aep+30"),
        (32.0, "0x1.28dd38708af77p+41"),
        (100.0, "0x1.8f03bdbc00ab1p+137"),
        (700.0, "0x1.5aa94a53af48dp+1000"),
    ])
    def test_asymptotic_tail_on_the_positive_axis_is_pinned(self, x, real):
        # E is real on the positive axis: frozen real parts, and an
        # imaginary part of +0.0
        tail = _asymptotic_tail(complex(x, 0.0))
        assert tail.real.hex() == real
        assert tail.imag == 0.0 and math.copysign(1.0, tail.imag) == 1.0

    def test_signed_zeros_and_batches_keep_uncached_bits(self):
        spec = QuadratureSpec(target_rel_tol=1e-13)
        for fn in (u_eval, F_eval):
            first = np.array([fn(z, spec) for z in self.SIGNED])
            # the other function and the other sign of zero go first
            other = F_eval if fn is u_eval else u_eval
            other(np.array(self.SIGNED[::-1]), spec)
            again = np.array([fn(z, spec) for z in self.SIGNED[::-1]])[::-1]
            batch = fn(np.array(self.SIGNED), spec)
            assert again.tobytes() == first.tobytes()
            assert batch.tobytes() == first.tobytes()
            # the sign of a zero component does not move the value
            assert (first[0::2] == first[1::2]).all()


class TestClosedLoop:
    def test_matches_circle_inversion(self, g):
        # the arc and then the segment wind once around the origin
        for z in (0.0, 1.5 + 0.5j, -2.0 + 1.0j):
            via_loop = (_integrate(g.at, _ARC, z).value
                        + _integrate(g.at, _SEGMENT, z).value)
            via_circle = borel_inversion(z)
            assert abs(via_loop - via_circle) <= 1e-8 * (1.0 + abs(via_circle))


def _counting(g_eval):
    """A pure g_eval that records the size of every node array it gets."""
    sizes = []

    def counted(s):
        sizes.append(s.size)
        return g_eval(s)

    return counted, sizes


def _sign_of_imag(s):
    """A jump across the real axis: no level of the trapezoid rule settles."""
    return np.sign(s.imag)


class TestRefinement:
    def test_trapezoid_geometric_decay(self):
        # a pole at distance 0.05 inside the circle: the periodic trapezoid
        # error falls like (2.45 / 2.5)^n in the node count n (Trefethen and
        # Weideman, SIAM Review 56, 2014), from 8e-2 at 128 nodes (level 1)
        # to 1e-9 at 1024 (level 4)
        circ = _circle(2.5)

        def pole(s):
            return 1.0 / (s - 2.45)

        def level(n):
            return _refinement_values(pole, circ, 0.0, (n,))[0][0]

        ref = level(7)
        errs = [abs(level(n) - ref) for n in range(1, 7)]
        assert errs[0] > 1e-2
        for a, b in zip(errs, errs[1:]):
            if a <= 1e-12:
                break  # roundoff floor reached
            assert b <= a / 4.0
        assert errs[4] <= 1e-12

    def test_non_convergence_carries_last_values(self):
        g_eval, sizes = _counting(_sign_of_imag)
        with pytest.raises(NonConvergenceError) as info:
            _integrate(g_eval, _circle(4.0), 0.0)
        # it gives up only after the last level
        assert sizes[-1] == _FINEST_PANELS * _POINTS_PER_PANEL
        err = info.value
        assert cmath.isfinite(err.value) and cmath.isfinite(err.previous)
        assert err.value != err.previous
        assert math.isfinite(err.error) and err.error > 0.0


def _noisy_exp(s):
    """e^{s/4} / s with a deterministic relative noise of 1e-8 at each node."""
    noise = np.modf(np.abs(np.sin(12.9898 * s.real + 78.233 * s.imag))
                    * 43758.5453)[0]
    return np.exp(s / 4.0) / s * (1.0 + 1e-8 * (2.0 * noise - 1.0))


class TestFloorStop:
    def test_lattice_zero_stalls_at_level_three(self):
        # f(-8j) = 0, so F = -u there; the arc's levels miss it by up to
        # 2.4 floors with no trend, and the difference grows at level 3
        spec = QuadratureSpec(target_rel_tol=1e-13)
        out = _integrate(_SHARED_TAIL.at, _ARC, -8j, spec)
        assert out.refinements == 3 and out.floor_limited
        assert abs(F_eval(-8j, spec) + u_eval(-8j, spec)) <= 2e-6

    @pytest.mark.parametrize("path", [
        _circle(4.0), _ARC, _SEGMENT],
        ids=["circle", "arc", "segment"])
    def test_tolerance_stop_is_not_floor_limited(self, path):
        out = _integrate(_SHARED_TAIL.at, path, 1 + 1j)
        assert not out.floor_limited
        assert out.error <= 1e-10 * abs(out.value)

    def test_batch_flags_are_the_scalar_flags(self):
        # a batch's entries are the scalar results, and its points stop on
        # both rules
        spec = QuadratureSpec(target_rel_tol=1e-13)
        zs = _batch_points(41).tolist() + [-8j]
        scalar = [_integrate(_SHARED_TAIL.at, _ARC, z, spec)
                  for z in zs]
        assert F_eval(np.array(zs), spec).tobytes() == np.array(
            [r.value + _F_channel(z) for r, z in zip(scalar, zs)]).tobytes()
        assert {r.floor_limited for r in scalar} == {False, True}

    def test_noise_far_above_the_floor_still_raises(self):
        # the differences stop shrinking at the noise, 2e4 to 5e5 floors
        # up (they grow at levels 3, 5, 6 and 10), so the stall rule must
        # not take them for roundoff
        g_eval, sizes = _counting(_noisy_exp)
        with pytest.raises(NonConvergenceError):
            _integrate(g_eval, _circle(4.0), 0.0,
                       QuadratureSpec(target_rel_tol=1e-13))
        assert sizes[-1] == _FINEST_PANELS * _POINTS_PER_PANEL


class TestFinestLevel:
    @pytest.mark.parametrize("path", [
        _SEGMENT, _circle(4.0), _ARC],
        ids=["segment", "circle", "arc"])
    def test_every_path_refines_to_131072_nodes(self, path):
        # the first level is sized to the path, the last is the same for
        # all: noise 1e-8 keeps every level apart until it
        g_eval, sizes = _counting(_noisy_exp)
        with pytest.raises(NonConvergenceError):
            _integrate(g_eval, path, 0.5, QuadratureSpec(target_rel_tol=1e-13))
        assert sizes[-1] == 131072


#: the five |z| = 8 points; at tolerance 1e-13 they converge up to one
#: level later than the points of the unit disc on the circle of radius 4,
#: and one or two levels later on the arc
EIGHT = (8.0, -8.0, 8j, -8j, 8.0 * complex(math.cos(math.pi / 4),
                                         math.sin(math.pi / 4)))


def _batch_points(count):
    """count points: draws from the unit disc, then the |z| = 8 points."""
    rng = np.random.default_rng(2024)
    small = max(count - len(EIGHT), 2)
    r = rng.uniform(0.0, 1.0, small)
    phi = rng.uniform(-math.pi, math.pi, small)
    return np.concatenate([r * np.exp(1j * phi), EIGHT])[-count:]


class TestSharedFirstPass:
    @pytest.mark.parametrize("count", [1, 7, 41])
    @pytest.mark.parametrize("pieces", [
        (_circle(3.0),), (_ARC,), (_SEGMENT,),
        (_ARC, _SEGMENT),
    ], ids=["circle", "arc", "segment", "loop"])
    def test_levels_0_and_1_match_single_level_passes(self, pieces, count):
        # levels 0 and 1 share one g pass on their joined nodes; each level
        # must keep the bits of its own pass, at every z and on every piece
        # of a path (the loop's two pieces keep apart tables of the same g)
        zs = [complex(z) for z in _batch_points(count)]
        with np.errstate(over="raise", invalid="raise"):
            joint = [[_refinement_values(_SHARED_TAIL.at, seg, z, (0, 1))
                      for z in zs] for seg in pieces]
            single = [[[_refinement_values(
                _SHARED_TAIL.at, seg, z, (level,))[0] for level in (0, 1)]
                for z in zs] for seg in pieces]
        assert len(joint[0]) == count and len(joint[0][0]) == 2
        assert (np.array(joint, dtype=complex).tobytes()
                == np.array(single, dtype=complex).tobytes())


def _outcome(path, z, spec):
    """Every field of _integrate's result as bits, or its error's."""
    try:
        out = _integrate(_SHARED_TAIL.at, path, z, spec)
    except NonConvergenceError as exc:
        return np.array([exc.value, exc.previous, exc.error]).tobytes()
    return (np.array([out.value, out.error]).tobytes(), out.refinements,
            out.floor_limited)


def _seeded_round():
    """A seeded contour_solve-like round (the five |z| = 8 identities, 50
    inversions at radius 3, 4 or 5 and 50 identities) and the 22 contour
    points of reproduce."""
    spec = QuadratureSpec(target_rel_tol=1e-13)
    rng = np.random.default_rng(7)
    draw = random.Random(7)
    inversions = [(z, float(rng.choice((3.0, 4.0, 5.0))))
                  for z in _sample_disc(draw, 50, 4.0)]
    inversions += [(z, 4.0) for z in _sample_disc(random.Random(55), 12, 4.0)]
    identities = (list(EIGHT) + _sample_disc(draw, 50, 8.0)
                  + _sample_disc(random.Random(77), 10, 6.0))
    for z, radius in inversions:
        borel_inversion(z, radius)
    for z in identities:
        F_eval(z, spec) + u_eval(z, spec)


class TestWidePass:
    #: the arc with the wide pass switched off: level 2 a pass of its own
    NARROW = dataclasses.replace(_ARC, wide=math.inf)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_results_keep_their_bits(self, tol):
        # at 16 directions around and past the wide radius, the five
        # |z| = 8 points and 40j: the stops, tested level by level on the
        # same values, give every field the narrow pass's bits
        spec = QuadratureSpec(tol)
        zs = (np.array([3.9, 4.0, 4.5, 6.0, 7.99])[:, None]
              * cis(math.tau * np.arange(16) / 16)).ravel()
        zs = zs.tolist() + [complex(z) for z in EIGHT] + [40j]
        assert _ARC.wide == 4.0 and min(map(abs, zs)) < 4.0
        levels = set()
        for z in zs:
            wide = _outcome(_ARC, z, spec)
            assert wide == _outcome(self.NARROW, z, spec), z
            if abs(z) >= _ARC.wide:
                levels.add(wide[1])
        assert {1, 2, 3} <= levels  # some stop before level 2, some after

    def test_joined_levels_match_single_level_passes(self):
        zs = [complex(z) for z in _batch_points(41)]
        with np.errstate(over="raise", invalid="raise"):
            joint = [_refinement_values(_SHARED_TAIL.at, _ARC, z, (0, 1, 2))
                     for z in zs]
            single = [[_refinement_values(
                _SHARED_TAIL.at, _ARC, z, (level,))[0] for level in (0, 1, 2)]
                for z in zs]
        assert (np.array(joint, dtype=complex).tobytes()
                == np.array(single, dtype=complex).tobytes())

    def test_wide_table_is_its_levels_end_to_end(self):
        # built from its own key, from cold, the wide pass's table holds the
        # bits of the (0, 1) and (2,) tables laid end to end: its stack, its
        # weights and its cuts
        _level_table.cache_clear()
        wide = _level_table(_SHARED_TAIL.at, _ARC, (0, 1, 2))
        parts = [_level_table(_SHARED_TAIL.at, _ARC, levels)
                 for levels in ((0, 1), (2,))]
        for k in (0, 1):
            joined = np.concatenate([part[k] for part in parts], axis=-1)
            assert wide[k].shape == joined.shape
            assert wide[k].tobytes() == joined.tobytes()
        assert wide[2] == ((slice(0, 128), 1.0), (slice(128, 384), 1.0),
                           (slice(384, 896), 1.0))

    def test_a_round_evicts_no_table(self):
        # a seeded contour_solve-like round (the five |z| = 8 identities,
        # 50 inversions at radius 3, 4 or 5 and 50 identities) and the 22
        # contour points of reproduce, from a cold cache: its 8 tables, the
        # wide pass's (0, 1, 2) among them, fit in the cache, so none is
        # evicted
        _level_table.cache_clear()
        _seeded_round()
        info = _level_table.cache_info()
        assert info.misses == info.currsize == 8 < _TABLE_SIZE


def _component(kind, n, rng):
    """n reals whose sums over the cuts of _cuts stress a rounding
    certificate.  Every kind but the first three is built on pairs x_i,
    x_{i+n/2} = -x_i, which cancel exactly in any level holding both: the
    whole array and every stride dividing n/2."""
    scale = 2.0 ** int(rng.integers(-700, 700))
    if kind == "normal":
        return rng.standard_normal(n) * scale
    if kind == "positive":  # one sign: the sums reach n times the largest
        return rng.uniform(0.5, 1.0, n) * scale
    if kind == "wide":  # exponents over 2^-60 .. 2^60 of the scale
        return rng.standard_normal(n) * scale * 2.0 ** rng.integers(-60, 60, n)
    if kind == "subnormal":  # pairs near the extraction's floor 2^-800
        scale = 2.0 ** int(rng.integers(-900, -700))
    half = rng.standard_normal(n // 2) * scale
    x = np.concatenate([half, -half])
    if kind == "cancel":  # noise 2^-20 to 2^-60 of the pairs: little survives
        x += rng.standard_normal(n) * scale * 2.0 ** -int(rng.integers(20, 60))
    elif kind == "tie":  # the pair at 0 leaves b + ulp(b) / 2, halfway
        b = (1.0 + int(rng.integers(0, 2**52)) * 2.0**-52) * scale
        x[0], x[n // 2] = b, math.ulp(b) / 2 * float(rng.choice((-1, 1)))
    elif kind == "subnormal":  # some pairs give way to subnormals
        tiny = rng.random(n) < 0.2
        x[tiny] = rng.integers(-2**20, 2**20, int(tiny.sum())) * 2.0**-1074
    elif kind == "zero":  # some pairs are signed zeros; the sum is 0
        zero = rng.random(n // 2) < 0.2
        x[:n // 2][zero] = x[n // 2:][zero] = -0.0
    return x


def _cuts(n, strided, rng):
    """A circle's nested levels (steps 4, 2, 1), or an open path's levels
    end to end, plus the whole array (cuts may overlap)."""
    if strided:
        return tuple((slice(None, None, step), float(step)) for step in (4, 2, 1))
    stops = sorted(set(rng.integers(1, n, int(rng.integers(0, 3))).tolist()))
    bounds = [0] + stops + [n]
    return (tuple((slice(a, b), 1.0) for a, b in zip(bounds, bounds[1:]))
            + ((slice(0, n), 1.0),))


def _bits(values):
    """A list of (value, mass) pairs as bytes: sign of zero included."""
    return np.array([(v.real, v.imag, m) for v, m in values]).tobytes()


def _fsum_values(terms, cuts):
    return [_value_and_mass(terms[index], scale) for index, scale in cuts]


class TestExtractedSums:
    KINDS = ("normal", "positive", "wide", "cancel", "tie", "subnormal",
             "zero")

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.sampled_from(KINDS),
           st.integers(512 // 8, 2048 // 8), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_fsum_bit_for_bit(self, re_kind, im_kind, eighths,
                                      strided, seed):
        # on 512 to 2048 terms, strided cuts or contiguous ones, every value
        # and mass has math.fsum's bits, the sign of a zero sum included
        rng = np.random.default_rng(seed)
        n = 8 * eighths
        terms = np.empty(n, complex)
        terms.real = _component(re_kind, n, rng)
        terms.imag = _component(im_kind, n, rng)
        cuts = _cuts(n, strided, rng)
        assert (_bits(_extracted_values(terms, cuts))
                == _bits(_fsum_values(terms, cuts)))

    @staticmethod
    def _tiers(monkeypatch, terms):
        """The certificate's verdicts on the whole array, (parts, certified)
        per component, after checking its bits against math.fsum's."""
        seen = []
        rounded = contours._rounded

        def spy(parts, bound):
            s = rounded(parts, bound)
            seen.append((len(parts), s is not None))
            return s

        monkeypatch.setattr(contours, "_rounded", spy)
        cuts = ((slice(None), 1.0),)
        assert (_bits(_extracted_values(terms, cuts))
                == _bits(_fsum_values(terms, cuts)))
        return seen

    @staticmethod
    def _pairs(n=512):
        half = np.random.default_rng(5).standard_normal(n // 2)
        terms = np.empty(n, complex)
        terms.real = np.concatenate([half, -half])
        terms.imag = np.random.default_rng(6).standard_normal(n)
        return terms

    def test_one_extraction(self, monkeypatch):
        terms = [1, 1j] @ np.random.default_rng(4).standard_normal((2, 512))
        assert self._tiers(monkeypatch, terms) == [(2, True), (2, True)]

    def test_two_extractions_under_cancellation(self, monkeypatch):
        # the pairs cancel and leave 11 * 2^-41, far below the first
        # extraction's margin of about 2^-75 against a half-ulp of 2^-92
        terms = self._pairs()
        terms.real[1], terms.real[257] = 3 * 2.0**-40, 5 * 2.0**-41
        assert self._tiers(monkeypatch, terms) == [
            (2, False), (3, True), (2, True)]

    @pytest.mark.parametrize("tail", [2.0**-53, 0.0],
                             ids=["halfway", "exact-zero"])
    def test_fsum_when_no_certificate_holds(self, monkeypatch, tail):
        # a sum halfway between two binary64 numbers, which no margin
        # settles, and an exact zero, whose sign is math.fsum's to give
        terms = self._pairs()
        b = (1.0 + 2.0**-52) if tail else 0.0
        terms.real[0], terms.real[256] = b, tail
        assert self._tiers(monkeypatch, terms) == [
            (2, False), (3, False), (2, True)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_margin_must_clear_the_midpoints(self, sign):
        # 1.5 + d rounds to 1.5 for |d| < 2^-53, the midpoint, on either
        # side; a sum within 2^-70 of one that reaches past it is refused
        d = sign * (2.0**-53 - 2.0**-80)
        assert contours._rounded((1.5, d), 0.0) == 1.5
        assert contours._rounded((1.5, d), 2.0**-70) is None
        assert contours._rounded((1.5, d / 2), 2.0**-70) == 1.5
        assert contours._rounded((1.5, -1.5), 2.0**-70) is None

    def test_smaller_passes_keep_fsum(self, monkeypatch):
        # circles' first pass (128 nodes), the segment's (48) and the arc's
        # (0, 1) pass (384) never reach the extraction; the arc's level 2
        # (512 nodes) does
        calls = []
        extracted = contours._extracted_values
        monkeypatch.setattr(contours, "_extracted_values",
                            lambda *a: calls.append(a[0].size) or extracted(*a))
        for seg in (_circle(4.0), _SEGMENT, _ARC):
            _refinement_values(_SHARED_TAIL.at, seg, 1.0 + 2.0j, (0, 1))
        assert calls == []
        _refinement_values(_SHARED_TAIL.at, _ARC, 1.0 + 2.0j, (2,))
        assert calls == [512]

    def test_contour_passes_match_fsum(self, monkeypatch):
        # 48 directions at |z| = 3.5, 4.5, ..., 11.5 on the arc's passes of
        # 512 nodes and more up to level 4, and on circles of radius 2.5 to
        # 8 at 512 and 1024 nodes, |z| half and all of each one's stated
        # domain: every value and mass is the all-fsum reference's
        around = cis(math.tau * np.arange(48) / 48)
        runs = [(_ARC, levels, (np.arange(3.5, 12.0)[:, None] * around))
                for levels in ((0, 1, 2), (2,), (3,), (4,))]
        runs += [(_circle(r), (level,), np.array([[top / 2], [top]]) * around)
                 for r, top in ((2.5, 12), (3, 10.5), (4, 6), (5, 5), (8, 2))
                 for level in (3, 4)]

        def run():
            with np.errstate(over="raise", invalid="raise"):
                return _bits([value for seg, levels, zs in runs
                              for z in zs.ravel().tolist()
                              for value in _refinement_values(
                                  _SHARED_TAIL.at, seg, z, levels)])

        extracted = run()
        monkeypatch.setattr(contours, "_EXACT_NODES", math.inf)
        assert run() == extracted


class TestBatch:
    @pytest.mark.parametrize("count", [1, 7, 41])
    @pytest.mark.parametrize("name", ["borel_inversion", "u_eval", "F_eval"])
    def test_matches_scalar_bitwise(self, name, count):
        fn = {"borel_inversion": borel_inversion, "u_eval": u_eval,
              "F_eval": F_eval}[name]
        spec = QuadratureSpec(target_rel_tol=1e-13)
        zs = _batch_points(count)
        batch = fn(zs, spec=spec)
        assert isinstance(batch, np.ndarray) and batch.dtype == complex
        scalar = [fn(z, spec=spec) for z in zs.tolist()]
        assert all(type(v) is complex for v in scalar)
        assert batch.tobytes() == np.array(scalar).tobytes()

    def test_mix_converges_at_different_levels(self):
        # the batch tests above mean something only if the members of a
        # batch leave it at different levels
        spec = QuadratureSpec(target_rel_tol=1e-13)
        for path in (_circle(4.0), _ARC):
            levels = {_integrate(_SHARED_TAIL.at, path, z, spec).refinements
                      for z in _batch_points(7).tolist()}
            assert len(levels) >= 2

    def test_empty_batch(self):
        assert u_eval(np.array([], dtype=complex)).shape == (0,)

    def test_overflow_stops_the_batch(self):
        # the message names the z that overflowed and the path
        with pytest.raises(FloatingPointError, match=(
                r"at z = \(200\+0j\) on _Path\(r_start=4\.0, r_end=4\.0, "
                r"angle_start=0\.0, angle_end=6\.283185307179586, first=4\): "
                "overflow encountered in exp")):
            borel_inversion(np.array([1.0, 200.0]))

    def test_non_convergence_stops_the_batch(self):
        # z after z, the first failing z stops the batch with its own values
        with pytest.raises(NonConvergenceError) as info:
            for z in (0.0, 1.0):
                _integrate(_sign_of_imag, _circle(4.0), z)
        err = info.value
        assert cmath.isfinite(err.value) and cmath.isfinite(err.previous)
        assert err.value != err.previous
        with pytest.raises(NonConvergenceError) as first:
            _integrate(_sign_of_imag, _circle(4.0), 0.0)
        assert (err.value, err.previous, err.error) == (
            first.value.value, first.value.previous, first.value.error)

    def test_first_failing_z_names_the_error(self):
        # both entries overflow; the error names the first in order
        with pytest.raises(FloatingPointError, match=r"at z = \(300\+0j\)"):
            borel_inversion(np.array([1.0, 300.0, 200.0]))

    def test_cap_applies_to_every_entry(self):
        with pytest.raises(CancellationCapError):
            F_eval(np.array([1.0, 50.0]))

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), math.inf,
                                   complex(0.0, -math.inf)],
                             ids=["nan", "inf", "-inf*j"])
    @pytest.mark.parametrize("fn", [borel_inversion, u_eval, F_eval],
                             ids=["borel_inversion", "u_eval", "F_eval"])
    def test_non_finite_z_refused_before_quadrature(self, fn, z, batched):
        # refused at once, not after ten levels or with a misleading error
        before = _level_table.cache_info().currsize
        with pytest.raises(ValueError, match="not finite"):
            fn(np.array([1.0, z]) if batched else z)
        assert _level_table.cache_info().currsize == before

    @pytest.mark.parametrize("fn", [borel_inversion, u_eval, F_eval],
                             ids=["borel_inversion", "u_eval", "F_eval"])
    def test_more_than_one_dimension_rejected(self, fn):
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            fn(np.array([[1, 2]]))


class TestLevelTable:
    @pytest.mark.parametrize("path", [
        _circle(3.5), _Path(4.0, 3.5, 0.0, 5.0, 8)], ids=["circle", "arc"])
    def test_g_runs_once_per_segment_and_levels(self, path):
        # each call builds its path anew: the table is keyed on the
        # segment's value, not on the object
        g_eval, sizes = _counting(_SHARED_TAIL.at)
        spec = QuadratureSpec(target_rel_tol=1e-13)
        deepest = 0
        for z in [0.5, 12j, -8.0, 0.5, 12j, 8.0]:
            fresh = dataclasses.replace(path)
            deepest = max(deepest, _integrate(g_eval, fresh, z, spec).refinements)
        # levels (0, 1) share a table, then one table per level up to
        # deepest, which reaches 512 nodes; a circle's level 0 is every
        # other node of its level 1
        per_level = path.first * _POINTS_PER_PANEL
        assert per_level << deepest >= 512
        joint = 2 if path.closed else 3
        assert sizes == [joint * per_level] + [
            per_level << level for level in range(2, deepest + 1)]

    def test_key_leaves_out_tolerance_but_not_the_rule(self):
        # the rule's nodes are fixed by the segment and the levels; the
        # tolerance only decides how many levels a z runs
        g_eval, sizes = _counting(_SHARED_TAIL.at)
        seg = _Path(4.0, 3.25, 0.0, 4.0, 8)
        levels = [_integrate(g_eval, seg, 8.0, QuadratureSpec(tol)).refinements
                  for tol in (1e-10, 1e-13)]
        assert levels == [1, 2]  # the tighter tolerance adds a level
        assert len(sizes) == 2
        _refinement_values(g_eval, seg, 1.0, (0,))
        _refinement_values(g_eval, _Path(4.0, 3.25, 0.0, 4.5, 8), 1.0, (0, 1))
        assert len(sizes) == 4

    @pytest.mark.parametrize("name, radius", [
        ("borel_inversion", 3.0), ("borel_inversion", 4.0),
        ("borel_inversion", 5.0), ("u_eval", None), ("F_eval", None),
    ])
    def test_cold_and_warm_tables_give_the_same_bits(self, name, radius):
        spec = QuadratureSpec(target_rel_tol=1e-13)
        fn = {"borel_inversion": functools.partial(borel_inversion,
                                                   radius=radius, spec=spec),
              "u_eval": functools.partial(u_eval, spec=spec),
              "F_eval": functools.partial(F_eval, spec=spec)}[name]
        zs = _batch_points(41)  # ends in the five |z| = 8 points
        runs = []
        for batched in (True, False):
            _level_table.cache_clear()
            for _ in ("cold", "warm"):
                runs.append(fn(zs) if batched
                            else np.array([fn(z) for z in zs.tolist()]))
        assert len({run.tobytes() for run in runs}) == 1

    @pytest.mark.parametrize("seg", [_circle(3.0), _ARC, _SEGMENT],
                             ids=["circle", "arc", "segment"])
    def test_arrays_are_read_only(self, seg):
        # the wide pass's table of an open path too
        for levels in [(0, 1)] + [(0, 1, 2)] * (not seg.closed):
            stack, weights, cuts = _level_table(_SHARED_TAIL.at, seg, levels)
            assert len(cuts) == len(levels) and all(
                type(scale) is float for _, scale in cuts)
            for array in (stack, stack[0], stack[1], weights):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    @pytest.mark.parametrize("seg", [_circle(3.0), _ARC, _SEGMENT],
                             ids=["circle", "arc", "segment"])
    def test_weights_integrate_constants_at_every_level(self, seg):
        # at z = 0 the weights alone sum: g = 1/s gives the residue 1 on a
        # circle, g = 1 gives (end - start) / (2 pi i) on an open path; a
        # circle's coarser levels read the finest one's weights, scaled
        if seg.closed:
            g_eval, want = _reciprocal, 1.0
        else:
            g_eval = _one
            want = (seg.at(1.0)[0] - seg.at(0.0)[0]) / (2j * math.pi)
        last = (_FINEST_PANELS // seg.first).bit_length() - 1
        for levels in [(0, 1)] + [(level,) for level in range(2, last + 1)]:
            for value, _ in _refinement_values(g_eval, seg, 0.0, levels):
                assert abs(value - want) <= 4e-15, levels


def _reciprocal(s):
    return 1.0 / s


def _one(s):
    return np.ones(s.shape)


def _exp_zs_of_rows_and_heads(z, rows, heads):
    """_exp_zs as it was over a table's separate rows and heads arrays,
    kept verbatim as the reference of the stacked kernel's bits."""
    zr, zi = z.real, z.imag
    zrh, zrl = _split(zr)
    zih, zil = _split(zi)
    a, ah, al = np.array((zr, zi, zrh, zih, zrl, zil)).reshape(3, 2, 1, 1)
    p = a * rows  # [[zr si, zr sr], [zi sr, -zi si]]
    # e = ((ah bh - p) + ah bl + al bh) + al bl with the tails bl of the
    # rows; in place, so that few (2, 2, n) arrays are alive at once
    e = ah * heads
    e -= p
    tails = rows - heads
    t = ah * tails
    e += t
    np.multiply(al, heads, out=t)
    e += t
    tails *= al
    e += tails
    del t, tails
    # y + ix = p[0] + p[1], and its exact tail by Knuth's branch-free
    # two-sum, whichever addend is larger, plus e[0] + e[1]
    yx = p[0] + p[1]
    bb = yx - p[0]
    p[0] -= yx - bb
    p[1] -= bb
    p[0] += p[1]
    e[0] += e[1]
    p[0] += e[0]
    ye, xe = p[0]
    mag = np.exp(yx[1]) * (1.0 + xe)
    c = np.cos(yx[0])
    sn = np.sin(yx[0])
    out = np.empty(c.shape, dtype=complex)
    out.real, out.imag = mag * (c - ye * sn), mag * (sn + ye * c)
    return out


def _kernel_points(rows):
    """z for a table with nodes s: 0 with every zero sign, both axes and
    the cardinal and diagonal angles at moduli 0.5, 4, 8 and 40, seeded
    points of |z| < 40, and, in each of those eight directions, z with
    max Re(zs) just below and just above log(DBL_MAX) = 709.78."""
    s = rows[0, 1] + 1j * rows[0, 0]
    units = [complex(1.0, 0.0), complex(-1.0, 0.0), complex(0.0, 1.0),
             complex(0.0, -1.0)] + [cmath.rect(1.0, math.pi * (2 * k + 1) / 4)
                                    for k in range(4)]
    zs = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    zs += [r * u for r in (0.5, 4.0, 8.0, 40.0) for u in units]
    rng = np.random.default_rng(35)
    zs += (40.0 * np.sqrt(rng.uniform(0.0, 1.0, 24))
           * np.exp(1j * rng.uniform(-math.pi, math.pi, 24))).tolist()
    for u in units:
        top = float(np.maximum.reduce((u * s).real))
        if top > 0.0:
            zs += [709.7 / top * u, 709.78 / top * u, 710.0 / top * u]
    return zs


def _kernel_outcome(kernel, z, *arrays):
    """The kernel's bits at z under _integrate's floating-point errors, or
    its error's type."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return kernel(z, *arrays).tobytes()
    except FloatingPointError as exc:
        return type(exc).__name__ + str(exc)


class TestExponent:
    def test_stacked_kernel_keeps_the_bits_of_rows_and_heads(
            self, monkeypatch):
        # every table of a seeded round from cold (the wide pass's among
        # them) and circles 2.5 and 8: one multiply over the stack
        # forms the same partial products, added in the same order
        tables = {}
        build = contours._level_table

        def recorded(*key):
            tables[key] = build(*key)
            return tables[key]

        monkeypatch.setattr(contours, "_level_table", recorded)
        _level_table.cache_clear()
        _seeded_round()
        for radius in (2.5, 8.0):
            for levels in ((0, 1), (2,)):
                recorded(_SHARED_TAIL.at, _circle(radius), levels)
        assert (_SHARED_TAIL.at, _ARC, (0, 1, 2)) in tables
        assert len(tables) == 12
        for stack, _, _ in tables.values():
            rows, heads = stack[0], stack[1]
            tails = rows - heads
            assert [part.tobytes() for part in stack[2:]] == [
                a.tobytes() for a in (tails, heads, tails)]
            outcomes = []
            for z in _kernel_points(rows):
                want = _kernel_outcome(_exp_zs_of_rows_and_heads, z, rows,
                                       heads)
                assert _kernel_outcome(_exp_zs, z, stack) == want, z
                outcomes.append(want)
            # the points past log(DBL_MAX) overflow, the others do not
            assert 0 < sum(isinstance(w, str) for w in outcomes) < 12

    @pytest.mark.parametrize("seg, moduli", [
        (_circle(4.0), (2.0, 8.0)), (_ARC, (2.0, 8.0, 20.0, 40.0)),
        (_SEGMENT, (2.0, 8.0, 20.0, 40.0)),
    ], ids=["circle", "arc", "segment"])
    def test_matches_mpmath(self, seg, moduli):
        # e^{zs} at every node of the (0, 1) table, against 30 digits: a
        # two-sum tail that assumed its first addend the larger left up to
        # 64 eps on the arc
        mpmath = pytest.importorskip("mpmath")
        stack = _level_table(_SHARED_TAIL.at, seg, (0, 1))[0]
        rows = stack[0]
        eps = math.ulp(1.0)
        worst = 0.0
        with mpmath.workdps(30):
            nodes = [mpmath.mpc(v) for v in
                     (rows[0, 1] + 1j * rows[0, 0]).tolist()]
            for r in moduli:
                for k in range(6):
                    z = r * cmath.exp(1j * (math.tau * k / 6 + 0.3))
                    got = _exp_zs(z, stack).tolist()
                    for s, value in zip(nodes, got):
                        want = mpmath.exp(mpmath.mpc(z) * s)
                        worst = max(worst, float(
                            abs(mpmath.mpc(value) - want) / abs(want)))
        assert worst <= 4.0 * eps, worst / eps


class TestGaussRule:
    def test_within_two_ulps_of_numpy(self):
        # bit for bit numpy 2.4.6's leggauss(16); other numpy builds may
        # differ from it in the last bits
        from numpy.polynomial.legendre import leggauss
        for ours, theirs in zip((_GAUSS_X, _GAUSS_W), leggauss(16)):
            assert ours.shape == (_POINTS_PER_PANEL,)
            assert np.all(np.abs(ours - theirs)
                          <= 2.0 * np.spacing(np.abs(theirs)))

    def test_integrates_monomials_exactly(self):
        # a few ulps in the weights, not in the sum, which fsum rounds once
        for k in range(2 * _POINTS_PER_PANEL):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum((_GAUSS_W * _GAUSS_X ** k).tolist())
                       - exact) <= 2e-15, k

    def test_arrays_are_read_only(self):
        for array in (_GAUSS_X, _GAUSS_W):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_default_rule_bytes_are_pinned(self):
        # sha256 of numpy 2.4.6's leggauss(16), the panel rule of every open
        # path, which the constant reproduces on every platform
        assert hashlib.sha256(_GAUSS_X.tobytes() + _GAUSS_W.tobytes()
                              ).hexdigest() == (
            "cfbec389e51be570a7c11d417e51ddf7452b650090e96ceae2c5a91a93020864")

    def test_named_integrals_import_no_numpy_submodule(self):
        # numpy imports numpy.polynomial lazily; a cold process must not
        # pay for it (a numpy that imports it eagerly passes too)
        code = (
            "import sys\n"
            "import expgrowth.cli\n"
            "from expgrowth.contours import borel_inversion, F_eval, u_eval\n"
            "before = set(sys.modules)\n"
            "z = 1.5 - 2.0j\n"
            "borel_inversion(z), F_eval(z), u_eval(z)\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.split('.')[0] == 'numpy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSplittingProfile:
    def test_tracks_product_away_from_zeros(self, ev):
        radii = np.array([5.0, 6.0, 10.0])
        prof = splitting_profile(ev, 0.0, radii)
        assert prof.function_id == "F"
        for r, v in zip(prof.radii, prof.values):
            f_v = ev.eval_log_f(r).log_mag / r
            assert v == pytest.approx(f_v, abs=1e-9)

