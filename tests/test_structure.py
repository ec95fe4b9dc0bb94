"""Each evaluation policy has one owner module.

The evaluation cap (``KERNEL_RMAX``, ``KERNEL_MIN_DIST_ONE``) is checked in
``coherent`` alone, by ``coherent._check_cap``, and the blocking of the
state tables lives in the library, so the CLI names no block constant.  The
xi layout has one rule per panel, the Gauss-Kronrod pair, so the modules
that build and sum it name neither Gauss-Legendre rule of
``quadrature.integrate_halfline``.  The coherent-state overlap is one
real Jacobi recurrence, with no gamma ratio, and the disk basis runs the
same recurrence, ``orthopoly.jacobi_q``, with no monomial coefficients.
``bargmann`` has one transform route: the m = 0 reduction's 2F1 kernel
lives in ``reference``.  f reaches the xi quadrature through one walk,
``bargmann._walk_values``, the only code there that names the layout.
Every disk point of a transform or a kernel grid evaluates its basis once,
in the truncation rule ``coherent._basis_cut``, whose column
``coherent._kernel_coeffs`` scales: the grid routes take their
coefficients from it alone, and ``disk`` keeps no second, radial path.
The cut takes a whole grid, and ``overlap_series`` cuts its farther labels
there; the bilinear sums of ``verify`` are array calls, with no loop over
their terms, and so are its series and stencil checks, by their count of
library calls; the cut takes N(z) of a grid in one call.  An import kept
only for the layer tracer of bench/tracing.py names one of its sites.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import relbargmann
from relbargmann import coherent, hypergeom, verification
from relbargmann.disk import LandauIndex

PACKAGE = Path(relbargmann.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
CAP_NAMES = {"KERNEL_RMAX", "KERNEL_MIN_DIST_ONE"}
BLOCK_NAMES = {"LAYOUT_BLOCK_NODES"}
HALFLINE_RULE_NAMES = {"_COARSE_RULE", "_FINE_RULE"}
M0_ROUTE_NAMES = {"gauss_2f1_vec", "log_gamma_ratio", "_m0_exponent"}
COEFF_MATRIX_NAMES = {"_phi_coeff_rows", "_phi_coeff_matrix"}
LAYOUT_NAMES = {"xi_layout", "state_end", "XI_LENGTH"}
BASIS_NAMES = {"basis_phi_batch", "truncation_order", "_basis_cut"}


def _names(tree: ast.Module) -> set[str]:
    """Every name the module reads, binds, imports or takes as an
    attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
            if node.asname:
                names.add(node.asname)
    return names


def _parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "coherent.py"),
    ids=lambda p: p.name)
def test_cap_is_named_in_coherent_alone(path):
    assert not _names(_parse(path.name)) & CAP_NAMES


def test_coherent_owns_the_cap():
    assert CAP_NAMES <= _names(_parse("coherent.py"))


def test_cli_names_no_block_constant():
    assert not _names(_parse("cli.py")) & BLOCK_NAMES


@pytest.mark.parametrize("name", ["oscillator.py", "bargmann.py"])
def test_layout_has_one_rule(name):
    assert not _names(_parse(name)) & HALFLINE_RULE_NAMES


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return func


def _loops(node: ast.AST) -> list:
    return [sub for sub in ast.walk(node)
            if isinstance(sub, (ast.For, ast.While))]


def test_overlap_takes_no_gamma_ratio():
    func = _function(_parse("coherent.py"), "overlap")
    assert not _names(func) & {"lgamma", "factorial", "log_gamma_ratio"}


def test_one_jacobi_recurrence():
    # the disk basis and the overlap both run orthopoly.jacobi_q; neither
    # keeps a loop of its own, and the monomial coefficients are gone
    coherent, disk = _parse("coherent.py"), _parse("disk.py")
    assert not _loops(_function(coherent, "overlap"))
    assert not _loops(_function(disk, "_basis_rows"))
    assert not _names(disk) & COEFF_MATRIX_NAMES
    for tree in (coherent, disk):
        assert {"jacobi_q", "jacobi_q_steps"} <= _names(tree)


def test_bargmann_has_one_transform_route():
    # the one exception is the import of gauss_2f1_vec that the layer
    # tracer of bench/tracing.py looks up on bargmann
    path = PACKAGE / "bargmann.py"
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom)
               and _names(node) & M0_ROUTE_NAMES]
    assert [(node.module, [alias.name for alias in node.names])
            for node in imports] == [("hypergeom", ["gauss_2f1_vec"])]
    assert source.splitlines()[imports[0].lineno - 1].endswith(
        "# noqa: F401")
    for node in tree.body:
        if node not in imports:
            assert not _names(node) & M0_ROUTE_NAMES, ast.unparse(node)[:60]


def test_one_walk_of_f():
    # the oscillator import aside, only the walk names the layout, and the
    # transforms and the isometry check read f through it alone
    tree = _parse("bargmann.py")
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "oscillator":
            continue
        named = _names(node) & LAYOUT_NAMES
        if getattr(node, "name", None) == "_walk_values":
            assert named == LAYOUT_NAMES
        else:
            assert not named, ast.unparse(node)[:60]
    for name in ("relativistic_transform_grid", "isometry_check"):
        names = _names(_function(tree, name))
        assert "_walk_values" in names and "_values_on" not in names, name


def test_disk_has_one_basis_path():
    functions = [node.name for node in ast.walk(_parse("disk.py"))
                 if isinstance(node, ast.FunctionDef)]
    assert not [name for name in functions if "radial" in name]


def test_grid_routes_take_the_cut_column():
    # the cut evaluates the basis; _kernel_coeffs scales its column, and
    # the two grid routes read their coefficients from there alone
    coherent, bargmann = _parse("coherent.py"), _parse("bargmann.py")
    assert not _names(bargmann) & {"truncation_order", "basis_phi_batch"}
    assert "basis_phi_batch" in _names(_function(coherent, "_basis_cut"))
    assert _names(_function(coherent, "_kernel_coeffs")) & BASIS_NAMES == {
        "_basis_cut"}
    for tree, name in ((coherent, "transform_kernel_series_grid"),
                       (bargmann, "relativistic_transform_grid")):
        names = _names(_function(tree, name))
        assert "_kernel_coeffs" in names and not names & BASIS_NAMES, name


def test_name_check_sees_every_form():
    for source in ("from .coherent import KERNEL_RMAX",
                   "from .coherent import KERNEL_RMAX as cap",
                   "x = coherent.KERNEL_MIN_DIST_ONE",
                   "if abs(z) > KERNEL_RMAX: pass",
                   "import relbargmann.coherent.KERNEL_RMAX"):
        assert _names(ast.parse(source)) & CAP_NAMES, source
    assert not _names(ast.parse("from .coherent import _check_cap")) \
        & CAP_NAMES


def test_overlap_series_takes_the_grid_cut():
    names = _names(_function(_parse("coherent.py"), "overlap_series"))
    assert "_basis_cut" in names and "truncation_order" not in names


@pytest.mark.parametrize("name", ["_srivastava_rao_sides", "_saran_sides"])
def test_bilinear_sums_are_array_calls(name):
    # one jacobi_p call on the degrees, and the terminating 2F1 of Saran's
    # sum as one term table
    func = _function(_parse("verification.py"), name)
    assert not _loops(func)
    assert "_terminating_2f1" not in _names(func)


@pytest.mark.parametrize("suite, module, name, most", [
    ("f5-reductions", "hypergeom", "gauss_2f1_vec", 12),
    ("m0-reduction", "hypergeom", "gauss_2f1_vec", 5),
    ("eigen-equation", "verification", "basis_phi", 10)])
def test_series_and_stencil_checks_are_array_calls(monkeypatch, suite, module,
                                                    name, most):
    # one call for the m = 0 reductions, one for the F1 right-hand sides,
    # one kernel call for the grid and one per stencil point for the
    # holomorphy points, one per stencil point for the eigen-equation grid
    # (at most 72, 21 and 275 calls made one point at a time)
    target = {"hypergeom": hypergeom, "verification": verification}[module]
    original = getattr(target, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    assert verification.run_suite(suite)["pass"]
    assert 0 < len(calls) <= most


def test_cut_takes_one_normalization_per_grid(monkeypatch):
    # N(z) of the nine points of a grid is one array call, not nine
    calls = []
    original = coherent.normalization

    def counted(idx, z):
        calls.append(np.size(z))
        return original(idx, z)

    monkeypatch.setattr(coherent, "normalization", counted)
    axis = np.linspace(-0.3, 0.3, 3)
    columns = coherent._basis_cut(LandauIndex(7.5, 1),
                                  (axis[:, None] + 1j * axis).ravel())
    assert len(columns) == 9 and calls == [9]


def _tracer_sites() -> dict:
    """The ``SITES`` of bench/tracing.py, read without importing it: each
    site name with the modules it is looked up on."""
    (sites,) = [node.value for node in ast.parse(TRACING.read_text(
        encoding="utf-8")).body if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SITES"]]
    return {key.value: {m.value for m in value.elts[0].elts}
            for key, value in zip(sites.keys, sites.values)}


def _unused_imports():
    """``(module, imported module, names, comment)`` of every import in the
    package marked ``# noqa: F401``, with the comment line above it (or
    above the run of such imports it ends)."""
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if (isinstance(node, ast.ImportFrom)
                    and lines[node.end_lineno - 1].endswith("# noqa: F401")):
                above = node.lineno - 2
                while lines[above].endswith("# noqa: F401"):
                    above -= 1
                yield (path.stem, node.module,
                       [alias.name for alias in node.names], lines[above])


def test_tracer_imports_name_their_sites():
    # an import kept for the tracer alone must be one of its sites, on the
    # module that imports it; a moved or removed site fails here
    sites = _tracer_sites()
    found = list(_unused_imports())
    assert found
    for module, source, names, comment in found:
        assert "looked up here by the layer tracer" in comment, module
        for name in names:
            assert module in sites.get(f"{source}.{name}", ()), (module, name)
