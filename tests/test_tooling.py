"""Guards for what the benchmark harness in perfbench/ uses of the package.

perfbench/spans.py wraps module attributes by name for its traced run,
perfbench/run.py takes the coefficient as optimize(c)[0], and
perfbench/checks.py builds single codewords and sends them through
transmit.  A simplification that renames or reshapes any of these breaks
`perfbench/run.py --trace 1` without failing another test.  These tests
only read perfbench/.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fdstbc import constellations as cs
from fdstbc import optimizer as opt
from fdstbc.codes import DesignCoefficient

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_bindings_resolve_to_callables():
    bindings = load("spans")._bindings()
    assert bindings
    for module, attr, _, _ in bindings:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


@pytest.mark.parametrize("ident", ("qam4", "psk8"))
def test_optimize_returns_the_coefficient_first(ident):
    r = opt.optimize(cs.constellation_by_id(ident))[0]
    assert isinstance(r, DesignCoefficient)


def test_decoder_check_receptions():
    checks = load("checks")
    c = cs.constellation_by_id("psk8")
    r = opt.optimize(c)[0]
    recs = checks.random_receptions(c, r, np.random.default_rng(0), 4,
                                    [6.0])
    assert all(y.shape == h.shape == (2, 2) for y, h in recs)
    assert checks.check_decoders(c, r, recs) == []
