"""Every module-level private name in the package is read somewhere in it,
every module-level import is read in its own module, and the public API is
the reviewed list below."""
import ast
from pathlib import Path

import expgrowth

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "expgrowth"


def _defined(tree: ast.Module):
    """Module-level names bound by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def _read(tree: ast.Module):
    """Names read: loaded names, attributes and names imported from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unread_private_module_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = {name for tree in trees.values() for name in _read(tree)}
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _defined(tree)
            if name.startswith("_") and not name.startswith("__")
            and name not in read]
    assert dead == []


def _imported(tree: ast.Module):
    """Names bound by the module's top-level imports, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0]
                        for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            yield from (alias.asname or alias.name for alias in node.names)


def _exported(tree: ast.Module):
    """The string entries of a module-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            yield from ast.literal_eval(node.value)


def test_no_unread_module_imports():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and not isinstance(node.ctx, ast.Store)}
        loaded.update(_exported(tree))
        unread += [f"{path.name}:{name}" for name in _imported(tree)
                   if name not in loaded]
    assert unread == []


def test_public_api():
    # a new export shows up here as a reviewed diff
    assert sorted(expgrowth.__all__) == [
        "BorelDomainError", "BorelEvaluator", "CancellationCapError",
        "CoefficientStream", "CountingReport", "F_eval", "GrowthProfile",
        "InsufficientSamplesError", "LatticeExhaustedError", "LogComplex",
        "NonConvergenceError", "ProductEvaluator", "QuadratureSpec",
        "RegularityVerdict", "WindowStats", "ZeroLattice", "__version__",
        "borel_inversion", "classify", "dyadic_radii", "exp2_profile",
        "sin2_profile", "splitting_profile", "term_envelope",
        "type_estimate", "u_decay_bound", "u_eval", "verify_counting_bounds",
        "window_stats", "write_coeffs_csv", "write_profile_csv",
        "write_verdict_json", "write_windows_csv", "write_zeros_csv",
    ]
