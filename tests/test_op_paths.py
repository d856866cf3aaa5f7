"""The per-operation paths call numpy's ufuncs and ndarray methods, not its
Python-level convenience functions, whose frames cost a fresh process more
than the arithmetic of a small call."""
import numpy as np

from expgrowth.contours import F_eval, _level_table, borel_inversion, u_eval
from expgrowth.diagnostics import classify, window_stats
from expgrowth.lattice import ZeroLattice
from expgrowth.product import ProductEvaluator, dyadic_radii

#: numpy functions implemented in Python (or behind a Python dispatcher)
#: that the paths below once called
WRAPPERS = ("linspace", "diff", "all", "any", "flatnonzero", "searchsorted",
            "partition", "ndim", "angle", "where", "copyto")

Z = 1.3 - 0.6j


def run_ops(ev):
    """A growth_scan ray op on two rays, max_modulus, the scalar product
    and its oracle, and the named integrals at a scalar z."""
    radii = dyadic_radii(8, 14, 256)
    for theta in (0.0, 0.7):
        profile = ev.profile_on(theta, radii)
        window_stats(profile, 0.1)
        classify(profile)
    ev.max_modulus(2.0**17, 64)
    ev.eval_log_f(Z)
    ev.eval_log_f_direct(Z, ev.cutoff(Z))
    F_eval(Z)
    u_eval(Z)
    borel_inversion(Z)


def refuse_wrappers(monkeypatch):
    def refuse(name):
        def raise_(*args, **kwargs):
            raise AssertionError("numpy.%s called on a per-operation path"
                                 % name)
        return raise_

    for name in WRAPPERS:
        monkeypatch.setattr(np, name, refuse(name))


def test_warm_paths_call_no_python_wrapper(monkeypatch):
    ev = ProductEvaluator(ZeroLattice(k_max=14))
    run_ops(ev)  # level tables and lattice circles warm
    refuse_wrappers(monkeypatch)
    run_ops(ev)


def test_cold_named_integrals_call_no_python_wrapper(monkeypatch):
    # a fresh process's first z builds its level tables: g on every node
    # of a batch runs inside the op too
    _level_table.cache_clear()
    refuse_wrappers(monkeypatch)
    F_eval(Z)
    u_eval(Z)
    borel_inversion(Z)
