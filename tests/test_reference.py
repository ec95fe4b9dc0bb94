"""The reference oracles stay apart from the package's chain.

``relbargmann.reference`` holds the F5 double series and integral, Appell
F1 and the reduced m = 0 kernel, which verify checks the package against;
only ``verification`` (and the tests and demos) may import it.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import relbargmann
from relbargmann import bargmann, hypergeom, orthopoly
from relbargmann.coherent import normalization, transform_kernel_series_grid
from relbargmann.errors import DomainError
from relbargmann.oscillator import ModelParams, OscParams
from relbargmann.reference import m0_reduced_kernel

PACKAGE = Path(relbargmann.__file__).parent
ORACLE_READERS = {"verification.py", "reference.py"}

#: names that left the package's chain: moved to ``reference`` or the
#: tests, or deleted
GONE = ("F5Args", "kdf_f5", "kdf_f5_series", "kdf_f5_integral", "appell_f1",
        "hyp3f2_terminating_unit", "ln_gamma", "reciprocal_gamma", "cdhahn_s",
        "jacobi_connection")


def _imports_reference(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "relbargmann.reference"
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and module == "reference":
                return True
            if module == "relbargmann.reference":
                return True
            if ((node.level and not module) or module == "relbargmann") \
                    and any(alias.name == "reference" for alias in node.names):
                return True
    return False


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name not in ORACLE_READERS),
    ids=lambda p: p.name)
def test_chain_does_not_import_reference(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _imports_reference(tree)


def test_import_check_sees_every_form():
    for source in ("from .reference import F5Args",
                   "from . import reference",
                   "from relbargmann.reference import appell_f1",
                   "from relbargmann import reference",
                   "import relbargmann.reference"):
        assert _imports_reference(ast.parse(source)), source
    assert not _imports_reference(ast.parse("from .hypergeom import gauss_2f1"))


@pytest.mark.parametrize("name", GONE)
def test_name_left_the_chain(name):
    assert name not in relbargmann.__all__
    assert not hasattr(hypergeom, name)
    assert not hasattr(orthopoly, name)


def test_export_count():
    # the m = 0 grid alias left: the m = 0 grid is the grid call at m = 0
    assert len(relbargmann.__all__) == 48
    assert not hasattr(bargmann, "relativistic_transform_m0_grid")


class TestM0ReducedKernel:
    """The paper's m = 0 kernel, one 2F1, is the expansion kernel at m = 0
    on the window xi <= 15 where its direct series holds."""

    XI = np.linspace(0.25, 15.0, 60)
    POINTS = (0.3 + 0.3j, -0.3, 0.0, 0.2 - 0.1j)

    @pytest.mark.parametrize("c", [0.05, 0.3, 1.0, 3.0, 5.0, 8.0, 12.0, 20.0])
    def test_equals_the_expansion_kernel(self, c):
        osc = OscParams(c)
        params = ModelParams(osc, 0)
        expansion = transform_kernel_series_grid(params, self.POINTS, self.XI)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z, row in zip(self.POINTS, expansion):
                got = m0_reduced_kernel(osc, z, self.XI)
                assert np.isfinite(got).all()
                scale = math.sqrt(normalization(params.landau_index(), z))
                assert np.abs(got - row).max() / scale < 1e-10

    def test_one_gauss_call_on_the_module(self, monkeypatch):
        # looked up on hypergeom at call time, where the layer tracer of
        # bench/tracing.py replaces it
        calls = []
        original = hypergeom.gauss_2f1_vec

        def counted(*args):
            calls.append(np.size(args[0]))
            return original(*args)

        monkeypatch.setattr(hypergeom, "gauss_2f1_vec", counted)
        m0_reduced_kernel(OscParams(1.0), 0.2j, self.XI)
        assert calls == [len(self.XI)]
        # an array of z is one call too
        m0_reduced_kernel(OscParams(1.0), np.array(self.POINTS), self.XI)
        assert calls == [len(self.XI)] * 2

    def test_rows_have_the_one_element_bits(self):
        osc = OscParams(1.0)
        z = np.array(self.POINTS)
        got = m0_reduced_kernel(osc, z, self.XI)
        assert got.shape == (len(z), len(self.XI))
        for i in range(len(z)):
            alone = m0_reduced_kernel(osc, z[i:i + 1], self.XI)
            assert alone.shape == (1, len(self.XI))
            assert alone.tobytes() == got[i].tobytes()
            # a scalar z is the one-element array
            scalar = m0_reduced_kernel(osc, z[i], self.XI)
            assert scalar.shape == self.XI.shape
            assert scalar.tobytes() == got[i].tobytes()
        square = m0_reduced_kernel(osc, z.reshape(2, 2), self.XI)
        assert square.shape == (2, 2, len(self.XI))
        assert square.tobytes() == got.tobytes()
        assert m0_reduced_kernel(osc, np.zeros(0), self.XI).shape == (
            0, len(self.XI))

    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan),
                                   np.array([0.1, math.nan])])
    def test_nan_z_is_a_domain_error(self, z):
        # raised NonConvergenceError from the series at |w| = nan
        with pytest.raises(DomainError, match="not finite"):
            m0_reduced_kernel(OscParams(1.0), z, self.XI)
