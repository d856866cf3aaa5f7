"""Command-line front end: tables, verdicts, figures, and the reproduction run.

Subcommands map one-to-one onto library operations.  `reproduce` runs the
table _CHECKS over one lattice: each check (lattice laws, product
cross-check, coefficients, circle inversion, splitting identity, decay
bound, growth verdicts, type estimate) writes its own artifacts and returns
its report rows, from which report.md, the stdout lines and the exit code
are built.  The inversion and identity checks are batches of the records
that `borel invert` and `contour identity` print, built by the same code.

Every output is deterministic: sampling uses random.Random with the fixed
seeds 101 (product cross-check), 55 (inversion) and 77 (identity), grids
are fixed by the configuration, and floats are printed with 17 significant
digits.  Exit codes: 0 ok, 1 usage error, 2 numeric failure, 3
verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .borel import BorelEvaluator, CoefficientStream, write_coeffs_csv
from .contours import (
    _INVERSION_RADII,
    CancellationCapError,
    F_eval,
    QuadratureSpec,
    borel_inversion,
    u_decay_bound,
    u_eval,
)
from .csvio import fmt, row_blocks, write_rows
from .diagnostics import (
    InsufficientSamplesError,
    classify,
    exp2_profile,
    sin2_profile,
    type_estimate,
    window_stats,
    write_verdict_json,
    write_windows_csv,
)
from .lattice import ZeroLattice, verify_counting_bounds, write_zeros_csv
from .lognum import exp
from .product import (
    _MAX_RADIUS,
    ProductEvaluator,
    dyadic_radii,
    write_profile_csv,
)
from . import svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class UsageError(ValueError):
    """Configuration or argument problem; reported with exit code 1."""


@dataclass
class RunConfig:
    """Run parameters; file values override defaults, flags override both."""

    k_max: int = 14
    theta: float = 0.0
    r_min: float = 256.0
    r_max: float = 16384.0
    samples_per_window: int = 256
    contour_radius: float = 4.0
    q: float = 0.1
    gap_tol: float = 0.02
    drift_tol: float = 0.02
    tol: float = 1e-10
    out_dir: str = "."
    emit_svg: bool = False
    format: str = "csv"


def parse_config_file(path) -> dict:
    """Flat key = value lines; # starts a comment, quotes are optional."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError("%s: not UTF-8 text (%s)" % (path, exc)) from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key = value" % (path, lineno))
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip().strip('"')
    return out


def _coerce(name: str, value, default):
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no"):
            return False
        raise UsageError("config key %s wants true/false, got %r" % (name, value))
    try:
        return type(default)(value)
    except ValueError:
        raise UsageError("config key %s wants %s, got %r"
                         % (name, type(default).__name__, value)) from None


def resolve_config(args) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        for key, value in file_values.items():
            if not hasattr(cfg, key):
                raise UsageError("unknown config key: %s" % key)
            setattr(cfg, key, _coerce(key, value, getattr(cfg, key)))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, _coerce(f.name, flag, getattr(cfg, f.name)))
    _validate(cfg)
    return cfg


#: largest --samples-per-window and --max-index: 2^16 samples in each of the
#: six default windows take about 2 s, m <= 2^16 about 0.6 s
_MAX_SAMPLES = _MAX_INDEX = 1 << 16

#: largest profile grid, windows times samples per window: 16 windows at
#: the largest --samples-per-window, any finite range at the default 256
_MAX_GRID = 1 << 20


def _validate(cfg: RunConfig) -> None:
    if cfg.k_max < 1:
        raise UsageError("k_max must be >= 1")
    if not 0.0 < cfg.q < 0.5:
        raise UsageError("q must lie in (0, 0.5)")
    # written so that a nan fails every check
    if not all(0.0 < t < math.inf
               for t in (cfg.gap_tol, cfg.drift_tol, cfg.tol)):
        raise UsageError("tolerances must be positive and finite")
    if not cfg.tol >= 1e-13:
        raise UsageError("tol below 1e-13 is not achievable in double precision")
    if not math.isfinite(cfg.theta):
        raise UsageError("theta must be finite")
    if not 0.0 < cfg.r_min < cfg.r_max < math.inf:
        raise UsageError("need 0 < r_min < r_max < inf")
    if not cfg.r_max < _MAX_RADIUS:
        raise UsageError("r_max must lie below 2^%d, where f's domain ends"
                         % math.log2(_MAX_RADIUS))
    n = cfg.samples_per_window
    if not 1 <= n <= _MAX_SAMPLES or n & (n - 1):
        raise UsageError("samples_per_window must be a power of two, at "
                         "most %d" % _MAX_SAMPLES)
    k_lo, k_hi = _grid_windows(cfg)
    if (k_hi - k_lo) * n > _MAX_GRID:
        raise UsageError("the profile grid would hold %d windows of %d "
                         "samples; the limit is %d samples in all"
                         % (k_hi - k_lo, n, _MAX_GRID))
    lo, hi = _INVERSION_RADII
    if not lo <= cfg.contour_radius <= hi:
        raise UsageError("contour_radius must lie in [%g, %g]" % (lo, hi))
    if cfg.format not in ("csv", "json"):
        raise UsageError("format must be csv or json")


def parse_complex(text: str) -> complex:
    """Accepts 1+2i, 1+2j, 3, -0.5i, inf and friends."""
    # only a final i (before a closing parenthesis) is the imaginary unit,
    # so "inf" stays infinity
    try:
        return complex(re.sub(r"i(?=\)?$)", "j", text.strip()))
    except ValueError:
        raise UsageError("cannot parse complex number: %r" % text) from None


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(cfg: RunConfig, header, rows) -> None:
    """One record per line on stdout, as CSV (with header) or JSON lines.

    JSON has no inf or nan, so non-finite floats are written as the strings
    fmt gives them in CSV.
    """
    if cfg.format == "json":
        for row in rows:
            print(json.dumps({
                key: fmt(v) if isinstance(v, float) and not math.isfinite(v)
                else v
                for key, v in zip(header, row)
            }))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(fmt(v) if isinstance(v, float) else str(v)
                           for v in row))


def _grid_windows(cfg: RunConfig):
    """The dyadic windows k_lo..k_hi - 1 of the grid over [r_min, r_max]."""
    k_lo = math.floor(math.log2(cfg.r_min))
    return k_lo, max(k_lo + 1, math.ceil(math.log2(cfg.r_max)))


def _profile_grid(cfg: RunConfig) -> np.ndarray:
    radii = dyadic_radii(*_grid_windows(cfg), cfg.samples_per_window)
    return radii[(radii >= cfg.r_min) & (radii <= cfg.r_max)]


def _write_counting(lattice: ZeroLattice, out: Path, emit_svg: bool):
    """counting.csv (and counting.svg) on 64 radii per dyadic window.

    Returns the rows (r, n(r), n(r)/r, upper-band flag).
    """
    radii = dyadic_radii(0, max(1, lattice.k_max), 64)
    rows = []
    for r in radii.tolist():
        n = lattice.counting(r)
        # the upper band [1.5*2^(k-1), 2^k) is exactly mantissa >= 0.75
        rows.append((r, n, n / r, math.frexp(r)[0] >= 0.75))
    columns = tuple(zip(*rows))
    with open(out / "counting.csv", "w", encoding="ascii") as f:
        f.write("r,n,n_over_r,upper_band\n")
        f.writelines(row_blocks("%.17g,%d,%.17g,%d\n", *columns))
    if emit_svg:
        radii, _, ratios, flags = columns
        svg.write_counting_svg(radii, ratios, flags, out / "counting.svg")
    return rows


#: largest k_max whose zeros lattice and reproduce write out (2^21 - 2 of
#: them); each further circle doubles the memory and the size of zeros.csv
_K_MAX_WRITTEN = 20


def _written_lattice(cfg: RunConfig) -> ZeroLattice:
    """The lattice for commands that materialize every zero, within the cap."""
    if cfg.k_max > _K_MAX_WRITTEN:
        raise UsageError("k_max = %d would write %d zeros; the limit is "
                         "k_max <= %d" % (cfg.k_max, (2 << cfg.k_max) - 2,
                                          _K_MAX_WRITTEN))
    return ZeroLattice(k_max=cfg.k_max)


def cmd_lattice(cfg: RunConfig, args) -> int:
    lattice = _written_lattice(cfg)
    out = _out_dir(cfg)
    write_zeros_csv(lattice, out / "zeros.csv")
    rows = _write_counting(lattice, out, cfg.emit_svg)
    print("wrote %s (%d zeros) and %s (%d radii)"
          % (out / "zeros.csv", lattice.counting(2.0 ** lattice.k_max),
             out / "counting.csv", len(rows)))
    return EXIT_OK


def _evaluator(cfg: RunConfig) -> ProductEvaluator:
    return ProductEvaluator(ZeroLattice(k_max=cfg.k_max))


def _log_f(ev: ProductEvaluator, zs) -> np.ndarray:
    """log f on zs; a z outside the product's domain is a usage error."""
    try:
        return ev.log_f(zs)
    except ValueError as exc:
        raise UsageError("z = %s: %s" % (", ".join(map(str, zs)), exc)) from None


def cmd_eval(cfg: RunConfig, args) -> int:
    z = parse_complex(args.z)
    lf = complex(_log_f(_evaluator(cfg), [z])[0])
    w = complex(exp(lf))
    _emit(cfg, ("z_re", "z_im", "f_re", "f_im", "log_abs_f", "arg_f"),
          ((z.real, z.imag, w.real, w.imag, lf.real, lf.imag),))
    return EXIT_OK


def cmd_profile(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    profile = _evaluator(cfg).profile_on(cfg.theta, _profile_grid(cfg))
    write_profile_csv([profile], out / "profile.csv")
    if cfg.emit_svg:
        try:
            stats = window_stats(profile, cfg.q)
        except InsufficientSamplesError:
            stats = ()
        svg.write_profile_svg(profile, stats, out / "profile.svg")
    print("wrote %s (%d samples, theta = %s)"
          % (out / "profile.csv", profile.radii.size, fmt(cfg.theta)))
    return EXIT_OK


_INVERSION_HEADER = ("z_re", "z_im", "direct_re", "direct_im", "contour_re",
                     "contour_im", "abs_err", "rel_err")


def _inversion_rows(cfg: RunConfig, ev: ProductEvaluator, zs) -> list:
    """`borel invert` records: f(z) from the product against the circle
    integral of g.  Where f(z) = 0, rel_err is inf, or nan if the integral
    is exactly 0 too."""
    directs = exp(_log_f(ev, zs)).tolist()
    contours = borel_inversion(np.array(zs, dtype=complex),
                               radius=cfg.contour_radius,
                               spec=QuadratureSpec(target_rel_tol=cfg.tol))
    rows = []
    for z, direct, contour in zip(zs, directs, contours.tolist()):
        abs_err = abs(direct - contour)
        if abs(direct) > 0.0:
            rel = abs_err / abs(direct)
        else:
            rel = math.inf if abs_err > 0.0 else math.nan
        rows.append((z.real, z.imag, direct.real, direct.imag, contour.real,
                     contour.imag, abs_err, rel))
    return rows


_IDENTITY_HEADER = ("z_re", "z_im", "f_re", "f_im", "u_re", "u_im", "F_re",
                    "F_im", "residual_abs")


def _identity_rows(ev: ProductEvaluator, zs) -> list:
    """`contour identity` records: f, u and F at each z, and |F + u - f|."""
    spec = QuadratureSpec(target_rel_tol=1e-13)
    fs = exp(_log_f(ev, zs)).tolist()
    us = u_eval(np.array(zs, dtype=complex), spec).tolist()
    Fs = F_eval(np.array(zs, dtype=complex), spec).tolist()
    return [(z.real, z.imag, fv.real, fv.imag, uv.real, uv.imag, Fv.real,
             Fv.imag, abs(Fv + uv - fv))
            for z, fv, uv, Fv in zip(zs, fs, us, Fs)]


def cmd_borel(cfg: RunConfig, args) -> int:
    if args.action == "coeffs":
        if not 0 <= args.max_index <= _MAX_INDEX:
            raise UsageError("max_index must lie in [0, %d]" % _MAX_INDEX)
        out = _out_dir(cfg)
        write_coeffs_csv(args.max_index, out / "coeffs.csv")
        print("wrote %s (m <= %d)" % (out / "coeffs.csv", args.max_index))
        return EXIT_OK
    if args.action == "eval":
        s = parse_complex(args.s)
        g = BorelEvaluator()(s)
        _emit(cfg, ("s_re", "s_im", "g_re", "g_im"),
              ((s.real, s.imag, g.real, g.imag),))
        return EXIT_OK
    _emit(cfg, _INVERSION_HEADER,
          _inversion_rows(cfg, _evaluator(cfg), [parse_complex(args.z)]))
    return EXIT_OK


def cmd_contour(cfg: RunConfig, args) -> int:
    _emit(cfg, _IDENTITY_HEADER,
          _identity_rows(_evaluator(cfg), [parse_complex(args.z)]))
    return EXIT_OK


def _diagnose_profile(cfg: RunConfig, function_id: str, theta: float):
    radii = _profile_grid(cfg)
    if function_id == "exp2z":
        return exp2_profile(theta, radii)
    if function_id == "sin2z":
        return sin2_profile(theta, radii)
    return _evaluator(cfg).profile_on(theta, radii)


def _write_verdicts(cfg: RunConfig, profiles, out: Path, emit_svg: bool):
    """classify each profile; writes windows.csv, one verdict_<id>.json per
    profile and, if emit_svg, profile.svg of the first.  Returns the
    verdicts."""
    stats = [window_stats(p, cfg.q) for p in profiles]
    verdicts = [classify(p, cfg.q, cfg.gap_tol, cfg.drift_tol)
                for p in profiles]
    write_windows_csv(list(zip(profiles, stats)), out / "windows.csv")
    for v in verdicts:
        write_verdict_json(v, out / ("verdict_%s.json" % v.function_id))
    if emit_svg:
        svg.write_profile_svg(profiles[0], stats[0], out / "profile.svg")
    return verdicts


def cmd_diagnose(cfg: RunConfig, args) -> int:
    profile = _diagnose_profile(cfg, args.function, cfg.theta)
    (verdict,) = _write_verdicts(cfg, [profile], _out_dir(cfg), cfg.emit_svg)
    detail = "" if verdict.limit_or_gap is None else " (%s)" % fmt(
        verdict.limit_or_gap)
    print("%s at theta = %s: %s%s"
          % (profile.function_id, fmt(cfg.theta), verdict.verdict, detail))
    return EXIT_OK


def _sample_disc(rng, count: int, r_max: float):
    zs = []
    for _ in range(count):
        r = rng.uniform(0.0, r_max)
        phi = rng.uniform(-math.pi, math.pi)
        zs.append(r * complex(math.cos(phi), math.sin(phi)))
    return zs


def _write_records(path: Path, header, rows) -> None:
    """The rows _emit prints, as a CSV artifact."""
    write_rows(path, header, [[fmt(v) for v in row] for row in rows])


@dataclass(frozen=True)
class _Run:
    """What the checks of one reproduce run share."""

    cfg: RunConfig
    ev: ProductEvaluator  # over the run's one lattice
    out: Path
    k_lo: int  # the verdict windows are k_lo..k_hi
    k_hi: int


def _check_lattice(run: _Run) -> list:
    """Counting laws on dyadic radii (exact) and cancelling reciprocal sums;
    writes zeros.csv, counting.csv and counting.svg."""
    lattice = run.ev.lattice
    report = verify_counting_bounds(lattice)
    ok_exact = all(
        lattice.counting(2.0 ** k) == 2 ** (k + 1) - 2
        for k in range(1, run.cfg.k_max + 1)
    )
    rows = _write_counting(lattice, run.out, emit_svg=True)
    band_worst = max((ratio for _, _, ratio, flag in rows if flag), default=0.0)
    write_zeros_csv(lattice, run.out / "zeros.csv")
    return [
        ("counting law n(2^k) = 2^(k+1) - 2",
         ok_exact and report.density_bounded_by_two,
         "sup n(2^k)/2^k = %s at k = %d"
         % (float(report.sup_normalized), report.sup_at_k)),
        ("upper-band density <= 4/3", band_worst <= 4.0 / 3.0,
         "worst flagged n(r)/r = %s" % fmt(band_worst)),
        ("reciprocal sums bounded", report.reciprocal_bounded,
         "max |sum 1/a| = %s at r = %s"
         % (fmt(report.max_reciprocal), fmt(report.max_reciprocal_at_r))),
    ]


def _check_product(run: _Run) -> list:
    """The closed form against direct factor products."""
    ev = run.ev
    zs = _sample_disc(random.Random(101), 20, 4.0)
    worst = 0.0
    for z, closed in zip(zs, exp(ev.log_f(zs)).tolist()):
        if closed == 0:
            continue  # an exact lattice zero
        direct = ev.eval_log_f_direct(z, min(run.cfg.k_max, ev.cutoff(z)))
        worst = max(worst, abs(closed - complex(exp(direct))) / abs(closed))
    return [("closed form matches per-zero product", worst <= 1e-10,
             "max rel diff = %s over 20 points" % fmt(worst))]


def _check_coefficients(run: _Run) -> list:
    """Low-order series data, exact; writes coeffs.csv."""
    stream = CoefficientStream()
    expected = {2: (-1, -2.0), 4: (-1, -8.0), 6: (1, -10.0)}
    expected.update({m: (0, -math.inf) for m in (1, 3, 5, 7)})
    write_coeffs_csv(256, run.out / "coeffs.csv")
    return [("series coefficients (binary support, exact dyadic sizes)",
             all(stream.taylor_coefficient(m) == sv
                 for m, sv in expected.items()),
             "a_2 = -1/4, a_4 = -1/256, a_6 = 1/1024, odd coefficients vanish")]


def _check_inversion(run: _Run) -> list:
    """`borel invert` at 12 points of |z| < 4; writes borel_check.csv."""
    zs = _sample_disc(random.Random(55), 12, 4.0)
    rows = _inversion_rows(run.cfg, run.ev, zs)
    _write_records(run.out / "borel_check.csv", _INVERSION_HEADER, rows)
    worst = max(rel for *_, rel in rows)
    return [("inversion from the transform side", worst <= 1e-7,
             "max rel err = %s over 12 points" % fmt(worst))]


def _check_identity(run: _Run) -> list:
    """`contour identity` at 10 points of |z| < 6; writes identity.csv."""
    zs = _sample_disc(random.Random(77), 10, 6.0)
    rows = _identity_rows(run.ev, zs)
    _write_records(run.out / "identity.csv", _IDENTITY_HEADER, rows)
    worst = max(resid / (1.0 + abs(complex(f_re, f_im)))
                for _, _, f_re, f_im, *_, resid in rows)
    return [("splitting identity F + u = f", worst <= 1e-7,
             "max residual / (1 + |f|) = %s over 10 points" % fmt(worst))]


def _check_decay(run: _Run) -> list:
    """The bounded piece u under its envelope on [0, 10]; writes decay.svg."""
    xs = [0.25 * i for i in range(41)]
    u_abs = [abs(u) for u in u_eval(np.array(xs, dtype=complex)).tolist()]
    bounds = [u_decay_bound(x) for x in xs]
    svg.write_decay_svg(xs, u_abs, bounds, run.out / "decay.svg")
    decay_ok = all(ua <= b * (1.0 + 1e-6) for ua, b in zip(u_abs, bounds))
    origin_ok = abs(u_abs[0] - 0.0438) <= 1e-3
    return [("bounded piece obeys its decay envelope", decay_ok and origin_ok,
             "|u(0)| = %s, bound ratio max = %s"
             % (fmt(u_abs[0]),
                fmt(max(ua / b for ua, b in zip(u_abs, bounds)))))]


def _check_growth(run: _Run) -> list:
    """Verdicts: f irregular, both controls regular with limit 2; writes
    profile.csv, windows.csv, the verdict files and profile.svg."""
    cfg = run.cfg
    radii = dyadic_radii(run.k_lo, run.k_hi + 1, cfg.samples_per_window)
    profiles = [run.ev.profile_on(cfg.theta, radii),
                exp2_profile(0.0, radii), sin2_profile(math.pi / 2.0, radii)]
    vf, vexp, vsin = _write_verdicts(cfg, profiles, run.out, emit_svg=True)
    write_profile_csv(profiles, run.out / "profile.csv")
    controls_ok = all(v.verdict == "regular"
                      and abs(v.limit_or_gap - 2.0) <= 0.01
                      for v in (vexp, vsin))
    detail = "verdict %s" % vf.verdict
    if vf.limit_or_gap is not None:
        detail += ", %s %s" % ("limit" if vf.verdict == "regular"
                               else "persistent quantile gap",
                               fmt(vf.limit_or_gap))
    return [
        ("f grows irregularly along theta = %s" % fmt(cfg.theta),
         vf.verdict == "irregular", detail),
        ("controls e^{2z} and sin(2z) grow regularly with limit 2",
         controls_ok,
         "limits %s and %s" % (fmt(vexp.limit_or_gap),
                               fmt(vsin.limit_or_gap))),
    ]


def _check_type(run: _Run) -> list:
    """The type estimate from ray suprema over 8 angles."""
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    ray_radii = dyadic_radii(max(1, run.k_hi - 3), run.k_hi + 1, 64)
    est = type_estimate([run.ev.profile_on(t, ray_radii) for t in angles])
    return [("type estimate stays below 2", est <= 2.0,
             "sup log|f|/r = %s over 8 rays, largest radius %s"
             % (fmt(est), fmt(float(ray_radii[-1]))))]


#: the checks of reproduce, in report order; each writes its own artifacts
#: and returns its report rows (name, ok, detail)
_CHECKS = (_check_lattice, _check_product, _check_coefficients,
           _check_inversion, _check_identity, _check_decay, _check_growth,
           _check_type)


def cmd_reproduce(cfg: RunConfig, args) -> int:
    """End-to-end construction with artifacts and a pass/fail report."""
    # profile windows end one short of k_max so the top window is complete
    k_hi = min(13, cfg.k_max - 1)
    k_lo = k_hi - 6
    if k_lo < 1:
        raise UsageError(
            "k_max = %d leaves too few dyadic windows for a verdict "
            "(need k_max >= 8)" % cfg.k_max
        )
    run = _Run(cfg, ProductEvaluator(_written_lattice(cfg)), _out_dir(cfg),
               k_lo, k_hi)
    checks = [row for check in _CHECKS for row in check(run)]
    all_ok = all(ok for _, ok, _ in checks)
    lines = [
        "# Reproduction report", "",
        "Configuration: k_max = %d, theta = %r, windows k = %d..%d, "
        "q = %r, gap_tol = %r, drift_tol = %r, contour radius = %r"
        % (cfg.k_max, cfg.theta, k_lo, k_hi, cfg.q,
           cfg.gap_tol, cfg.drift_tol, cfg.contour_radius),
        "", "| check | status | detail |", "|---|---|---|",
    ]
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        # a bare | would split the markdown cell
        lines.append("| %s | %s | %s |" % (name.replace("|", "\\|"), status,
                                           detail.replace("|", "\\|")))
        print("[%s] %s: %s" % (status, name, detail))
    lines += ["", "Overall: %s" % ("PASS" if all_ok else "FAIL"), ""]
    (run.out / "report.md").write_text("\n".join(lines), encoding="ascii")
    print("report: %s" % (run.out / "report.md"))
    return EXIT_OK if all_ok else EXIT_VERIFY


#: options whose value parse_complex reads, as in "--z -0.5i"
_COMPLEX_OPTIONS = ("--z", "--s")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 1 for that."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads "--z -3+2i" as two options; a complex value never
        # starts with "--", so join it to its option as "--z=-3+2i"
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 1, 0, -1):
            if (args[i - 1] in _COMPLEX_OPTIONS and args[i][:1] == "-"
                    and args[i][:2] != "--"):
                args[i - 1:i + 1] = ["%s=%s" % (args[i - 1], args[i])]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expgrowth",
        description="Dyadic zero lattices, canonical products, and "
                    "irregular-growth diagnostics.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value configuration file")
    parser.add_argument("--out-dir", dest="out_dir", metavar="PATH")
    parser.add_argument("--k-max", dest="k_max", type=int, metavar="N")
    parser.add_argument("--tol", type=float, metavar="X",
                        help="quadrature relative tolerance of borel invert "
                        "and the inversion check of reproduce; contour "
                        "identity and the identity check always use 1e-13")
    parser.add_argument("--svg", dest="emit_svg", action="store_true",
                        default=None, help="also write SVG figures")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="stdout record format")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("lattice", help="export zeros.csv and counting.csv")

    p = sub.add_parser("eval", help="evaluate the product at one point")
    p.add_argument("--z", required=True, help="complex point, e.g. 1+2i")

    p = sub.add_parser("profile", help="sample log|f|/r along a ray")
    p.add_argument("--theta", type=float)
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--samples-per-window", dest="samples_per_window", type=int)

    p = sub.add_parser("borel", help="series data and transform-side tools")
    bsub = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    b = bsub.add_parser("coeffs", help="export coeffs.csv")
    b.add_argument("--max-index", type=int, default=256)
    b = bsub.add_parser("eval", help="evaluate the transform at s")
    b.add_argument("--s", required=True)
    b = bsub.add_parser("invert", help="recover f(z) from the circle integral")
    b.add_argument("--z", required=True)
    b.add_argument("--radius", dest="contour_radius", type=float)

    p = sub.add_parser("contour", help="splitting identity")
    csub = p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    c = csub.add_parser("identity", help="check F(z) + u(z) = f(z)")
    c.add_argument("--z", required=True)

    p = sub.add_parser("diagnose", help="window statistics and verdict")
    p.add_argument("--function", choices=("f", "exp2z", "sin2z"), default="f")
    p.add_argument("--theta", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--gap-tol", dest="gap_tol", type=float)
    p.add_argument("--drift-tol", dest="drift_tol", type=float)

    sub.add_parser("reproduce", help="run every check and write the report")
    return parser


_COMMANDS = {
    "lattice": cmd_lattice,
    "eval": cmd_eval,
    "profile": cmd_profile,
    "borel": cmd_borel,
    "contour": cmd_contour,
    "diagnose": cmd_diagnose,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except (ArithmeticError, CancellationCapError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # UsageError and every refusal
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
