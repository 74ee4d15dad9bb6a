"""The package namespace: each module's ``__all__`` is what the package exports."""
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyadiclab

SRC = str(Path(dyadiclab.__file__).parent.parent)


def test_package_exports_each_modules_public_names():
    """Every name a library module declares public (its ``__all__``, or every
    public name where it has none, as a star import reads it) is the
    package's own object.  The CLI is a program, not a library module."""
    for info in pkgutil.iter_modules(dyadiclab.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"dyadiclab.{info.name}")
        public = getattr(module, "__all__",
                         [n for n in vars(module) if not n.startswith("_")])
        for attr in public:
            assert getattr(dyadiclab, attr, None) is getattr(module, attr), (info.name, attr)


# (module, name) of public names deleted because nothing outside their own
# tests read them
REMOVED = (("lattice", "verify_chain_separation"), ("lattice", "cube_to_json"),
           ("errors", "HypothesesNotMet"), ("grids", "greedy_grid"),
           ("coloring", "close_membership_probability"),
           ("goodness", "boundary_layer"), ("goodness", "BoundaryLayer"),
           ("mc", "trial_session"), ("metric", "doubling_estimate"),
           ("metric", "min_cover_doubling"))


def test_removed_names_are_gone():
    """Each removed name is absent from its module, from the module's
    ``__all__`` and from the package; so are ``FiniteMetricSpace.subspace``
    and the ``vertex`` parameter of ``tree_experiment``."""
    for module_name, attr in REMOVED:
        module = importlib.import_module(f"dyadiclab.{module_name}")
        assert not hasattr(module, attr), (module_name, attr)
        assert attr not in getattr(module, "__all__", ()), (module_name, attr)
        assert not hasattr(dyadiclab, attr), attr
    assert not hasattr(dyadiclab.FiniteMetricSpace, "subspace")
    assert list(inspect.signature(dyadiclab.tree_experiment).parameters) == [
        "branching", "height", "limit"]


def test_mc_exports_only_the_trial_streams_and_intervals():
    assert dyadiclab.mc.__all__ == ["wilson_interval", "trial_rng"]


def loads_numpy_random(code: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}; import sys; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.strip() == "True"


def test_importing_the_package_loads_no_numpy_random():
    """No module names ``np.random`` at import: ``trial_rng``, the probe
    of ``mc._words_match`` and the one-trial drivers call it when they run,
    so the package and its CLI load ``numpy.random`` no sooner than numpy
    does."""
    if loads_numpy_random("import numpy"):
        pytest.skip("import numpy loads numpy.random on its own (numpy 1.24)")
    assert not loads_numpy_random("import dyadiclab, dyadiclab.cli")


# names of NumPy's PCG64 stream and of the probe of mc's word math, mc's
# helpers that compute draws from words, and the trial chunk's draw memo
STREAM_NAMES = {"bit_generator", "_PROBE"}
STREAM_HELPERS = {"_lcg", "_pair", "_trial_states", "_Outputs", "_draw", "_Memo", "_Node",
                  "_walk"}


def test_only_mc_knows_the_pcg64_stream():
    """The draw memo is ``mc``'s: no other module names the generator's bit
    generator or the probe, or imports mc's stream helpers or its memo: a
    chunk makes its own memo."""
    for path in sorted(Path(dyadiclab.__file__).parent.glob("*.py")):
        if path.name == "mc.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            assert name not in STREAM_NAMES, (path.name, name)
            if isinstance(node, ast.ImportFrom) and node.module == "mc":
                imported = {alias.name for alias in node.names}
                assert not imported & STREAM_HELPERS, (path.name, imported)


def test_trial_builds_draw_only_through_integers():
    """A build draws only through its draw steps, each one ``integers`` call
    on the bounds the step states: ``grids`` and ``lattice``, which hold a
    trial's steps and their one-trial drivers, call no other method of a
    generator (no ``permutation``, ``shuffle``, ``choice`` or ``random``),
    whose draws the memo's walk could not make from the words."""
    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    called = set()
    for name in ("grids.py", "lattice.py"):
        tree = ast.parse((Path(dyadiclab.__file__).parent / name).read_text())
        called |= {node.func.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert called & methods == {"integers"}, called & methods
