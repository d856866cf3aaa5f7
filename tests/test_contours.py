"""Tests for contour geometry, adaptive quadrature, and the three transforms."""
import dataclasses
import functools
import math

import numpy as np
import pytest

from expgrowth.borel import BorelEvaluator
from expgrowth.contours import (
    CancellationCapError,
    CirclePath,
    Contour,
    F_eval,
    IntegralResult,
    LineSegment,
    NonConvergenceError,
    QuadratureSpec,
    SpiralArc,
    _SHARED_TAIL,
    _integrate_batch,
    _level_table,
    _refinement_values,
    borel_inversion,
    closing_segment,
    integrate,
    spiral_arc,
    splitting_profile,
    u_decay_bound,
    u_eval,
)
from expgrowth.lattice import ZeroLattice
from expgrowth.product import ProductEvaluator

# magnitude of the bounded piece at the origin, frozen from a 50-digit
# quadrature of the transform over the axis segment
ABS_U_AT_0 = 0.04384139741316833


@pytest.fixture(scope="module")
def ev():
    return ProductEvaluator(ZeroLattice(k_max=14))


@pytest.fixture(scope="module")
def g():
    return BorelEvaluator()


class TestSegments:
    def test_arc_endpoints_exact(self):
        arc = spiral_arc()
        assert arc.point(0.0) == -4.0 + 0.0j
        assert arc.point(1.0) == -3.0 + 0.0j
        assert arc.point(0.5) == 3.5 + 0.0j  # halfway: angle 0, radius 3.5

    def test_segment_endpoints(self):
        seg = closing_segment()
        assert seg.point(0.0) == -3.0 + 0.0j
        assert seg.point(1.0) == -4.0 + 0.0j
        assert seg.dpoint(0.3) == -1.0 + 0.0j

    def test_circle_geometry(self):
        c = CirclePath(4.0)
        assert c.point(0.0) == 4.0 + 0.0j
        assert c.point(0.25) == pytest.approx(4.0j, abs=1e-15)
        assert c.modulus_range() == (4.0, 4.0)

    def test_paths_too_close_to_origin_rejected(self):
        with pytest.raises(ValueError):
            CirclePath(2.0)
        with pytest.raises(ValueError):
            SpiralArc(4.0, 2.0, -math.pi, math.pi)
        with pytest.raises(ValueError):
            LineSegment(-3.0 - 1.0j, 3.0 - 1.0j)  # passes at distance 1

    def test_degenerate(self):
        with pytest.raises(ValueError):
            LineSegment(-3.0 + 0.0j, -3.0 + 0.0j)

    def test_segment_modulus_range_interior_minimum(self):
        seg = LineSegment(-4.0 + 3.0j, 4.0 + 3.0j)
        lo, hi = seg.modulus_range()
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(5.0)


class TestContour:
    def test_loop_closes_and_winds_once(self):
        loop = Contour((spiral_arc(), closing_segment()))
        assert loop.winding_number() == 1
        assert len(loop.segments) == 2

    def test_seam_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Contour((spiral_arc(), LineSegment(-3.5 + 0.0j, -4.0 + 0.0j)))

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            Contour((SpiralArc(3.0, 4.0, math.pi, -math.pi),
                     LineSegment(-4.0 + 0.0j, -3.0 + 0.0j)), closed=True)

    def test_open_chain_allowed(self):
        c = Contour((spiral_arc(),), closed=False)
        assert c.winding_number() == 1


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_tol=1e-14)
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_tol=math.nan)
        with pytest.raises(ValueError):
            QuadratureSpec(initial_panels=0)
        with pytest.raises(ValueError):
            QuadratureSpec(cancellation_cap=0.0)


class TestResidues:
    def test_simple_pole(self):
        out = integrate(lambda s: 1.0 / s, CirclePath(4.0), 0.0)
        assert isinstance(out, IntegralResult)
        assert abs(out.value - 1.0) <= 1e-12

    def test_double_pole_picks_linear_term(self):
        out = integrate(lambda s: 1.0 / s**2, CirclePath(4.0), 3.0)
        assert abs(out.value - 3.0) <= 1e-9

    def test_entire_integrand_vanishes(self):
        out = integrate(lambda s: 1.0, CirclePath(4.0), 2.0)
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
        # past Re z = 4 both channel endpoints take the asymptotic route;
        # their log terms cancel log(4/3) exactly, so no roundoff of size
        # 1e-16 is left in u
        for x in (12.0, 16.0, 1000.0, 2048.0):
            assert abs(u_eval(x)) <= u_decay_bound(x)

    def test_positive_axis_oracle(self):
        # 40-digit mpmath quadrature of the series for g over [-4, -3]
        oracle = {10.0: -4.5563626942242023e-16j,
                  12.0: -9.4552749608754030e-19j,
                  16.0: -4.3825397880563907e-24j}
        for x, want in oracle.items():
            assert abs(u_eval(x) - want) <= 1e-11 * abs(want)

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
        with pytest.raises(CancellationCapError):
            F_eval(30.0, QuadratureSpec(cancellation_cap=20.0))

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


class TestClosedLoop:
    def test_matches_circle_inversion(self, g):
        loop = Contour((spiral_arc(), closing_segment()))
        for z in (0.0, 1.5 + 0.5j, -2.0 + 1.0j):
            via_loop = integrate(g.at, loop, z).value
            via_circle = borel_inversion(z)
            assert abs(via_loop - via_circle) <= 1e-8 * (1.0 + abs(via_circle))


class TestRefinement:
    def test_trapezoid_geometric_decay(self, g):
        circ = CirclePath(3.0)
        spec = QuadratureSpec(initial_panels=1, points_per_panel=8)

        def level(n):
            return _refinement_values(g.at, (circ,), [1.5], spec, (n,))[0][0][0]

        ref = level(6)
        errs = [abs(level(n) - ref) for n in range(4)]
        for a, b in zip(errs, errs[1:]):
            if b <= 1e-12:
                break  # roundoff floor reached
            assert b <= a / 4.0

    def test_non_convergence_carries_last_values(self):
        spec = QuadratureSpec(
            initial_panels=1,
            points_per_panel=4,
            max_refinements=1,
            target_rel_tol=1e-13,
        )
        with pytest.raises(NonConvergenceError) as info:
            integrate(lambda s: 1.0 / s, CirclePath(4.0), 30.0, spec)
        err = info.value
        assert err.value is not None and err.previous is not None
        assert err.value != err.previous
        assert math.isfinite(err.error)


#: the five |z| = 8 points; on the circle and the arc they converge one to
#: five levels later than the points of the unit disc
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
    @pytest.mark.parametrize("path", [
        CirclePath(3.0), spiral_arc(), closing_segment(),
        Contour((spiral_arc(), closing_segment())),
    ], ids=["circle", "arc", "segment", "loop"])
    def test_levels_0_and_1_match_single_level_passes(self, path, count):
        # levels 0 and 1 share one g pass on their joined nodes; each level
        # must keep the bits of its own pass
        segments = path.segments if isinstance(path, Contour) else (path,)
        zs = [complex(z) for z in _batch_points(count)]
        spec = QuadratureSpec()
        with np.errstate(over="raise", invalid="raise"):
            joint = _refinement_values(
                _SHARED_TAIL.at, segments, zs, spec, (0, 1))
            single = [_refinement_values(
                _SHARED_TAIL.at, segments, zs, spec, (level,))[0]
                for level in (0, 1)]
        assert len(joint) == 2 and len(joint[0]) == count
        assert (np.array(joint, dtype=complex).tobytes()
                == np.array(single, dtype=complex).tobytes())


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
        for path in (CirclePath(4.0), spiral_arc()):
            levels = {r.refinements for r in _integrate_batch(
                _SHARED_TAIL.at, path, _batch_points(7), spec)}
            assert len(levels) >= 2

    def test_integrate_is_a_batch_of_one(self, g):
        zs = [0.0, 1.5 + 0.5j, 8j]
        loop = Contour((spiral_arc(), closing_segment()))
        batch = _integrate_batch(g.at, loop, zs)
        for z, res in zip(zs, batch):
            assert integrate(g.at, loop, z) == res

    def test_empty_batch(self):
        assert u_eval(np.array([], dtype=complex)).shape == (0,)

    def test_overflow_stops_the_batch(self):
        with pytest.raises(FloatingPointError):
            borel_inversion(np.array([1.0, 200.0]))

    def test_non_convergence_stops_the_batch(self):
        spec = QuadratureSpec(initial_panels=1, points_per_panel=4,
                              max_refinements=1, target_rel_tol=1e-13)
        with pytest.raises(NonConvergenceError):
            _integrate_batch(lambda s: 1.0 / s, CirclePath(4.0),
                             [0.0, 30.0], spec)

    def test_cap_applies_to_every_entry(self):
        with pytest.raises(CancellationCapError):
            F_eval(np.array([1.0, 50.0]))

    @pytest.mark.parametrize("fn", [borel_inversion, u_eval, F_eval],
                             ids=["borel_inversion", "u_eval", "F_eval"])
    def test_more_than_one_dimension_rejected(self, fn):
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            fn(np.array([[1, 2]]))


def _counting(g_eval):
    """A pure g_eval that records the size of every node array it gets."""
    sizes = []

    def counted(s):
        sizes.append(s.size)
        return g_eval(s)

    return counted, sizes


class TestLevelTable:
    @pytest.mark.parametrize("path", [
        CirclePath(3.5), SpiralArc(4.0, 3.5, 0.0, 5.0)], ids=["circle", "arc"])
    def test_g_runs_once_per_segment_and_levels(self, path):
        # each call builds its path anew: the table is keyed on the
        # segment's value, not on the object
        g_eval, sizes = _counting(_SHARED_TAIL.at)
        spec = QuadratureSpec(target_rel_tol=1e-13)
        deepest = 0
        for z in [0.5, 12j, -8.0, 0.5, 12j, 8.0]:
            fresh = dataclasses.replace(path)
            deepest = max(deepest, integrate(g_eval, fresh, z, spec).refinements)
        assert deepest >= 2
        # levels (0, 1) share a table, then one table per level up to deepest
        per_level = spec.initial_panels * spec.points_per_panel
        assert sizes == [3 * per_level] + [per_level << level
                                           for level in range(2, deepest + 1)]

    def test_key_leaves_out_tolerance_but_not_the_rule(self):
        g_eval, sizes = _counting(_SHARED_TAIL.at)
        seg = SpiralArc(4.0, 3.25, 0.0, 4.0)
        for spec in (QuadratureSpec(), QuadratureSpec(target_rel_tol=1e-13),
                     QuadratureSpec(cancellation_cap=10.0)):
            _refinement_values(g_eval, (seg,), [1.0], spec, (0, 1))
        assert len(sizes) == 1
        _refinement_values(g_eval, (seg,), [1.0],
                           QuadratureSpec(points_per_panel=8), (0, 1))
        assert len(sizes) == 2

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

    @pytest.mark.parametrize("seg", [CirclePath(3.0), spiral_arc(),
                                     closing_segment()],
                             ids=["circle", "arc", "segment"])
    def test_arrays_are_read_only(self, seg):
        s, g, dpoint, cuts = _level_table(_SHARED_TAIL.at, seg, 16, 8, (0, 1))
        arrays = [s, g, dpoint] + [w for _, w in cuts
                                   if isinstance(w, np.ndarray)]
        assert len(arrays) == (3 if isinstance(seg, CirclePath) else 5)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestSplittingProfile:
    def test_tracks_product_away_from_zeros(self, ev):
        radii = np.array([5.0, 6.0, 10.0])
        prof = splitting_profile(ev, 0.0, radii)
        assert prof.function_id == "F"
        for r, v in zip(prof.radii, prof.values):
            f_v = ev.eval_log_f(r).log_mag / r
            assert v == pytest.approx(f_v, abs=1e-9)

