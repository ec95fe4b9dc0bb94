"""Each evaluation policy has one owner module.

The evaluation cap (``KERNEL_RMAX``, ``KERNEL_MIN_DIST_ONE``) is checked in
``coherent`` alone, by ``coherent._check_cap``, and the blocking of the
state tables lives in the library, so the CLI names no routine that
builds a block of them.  The
half line has one panel rule, the Gauss-Kronrod pair: no module but the
oracles of ``reference`` names or builds a Gauss-Legendre panel rule, only
``quadrature`` combines its Kronrod and Gauss weights, and the xi layout
and ``quadrature.integrate_halfline`` share one routine of panel edges.
The coherent-state overlap is one
real Jacobi recurrence, with no gamma ratio, and the disk basis runs the
same recurrence, ``orthopoly.jacobi_q``, with no monomial coefficients.
``bargmann`` has one transform route: the m = 0 reduction's 2F1 kernel
lives in ``reference``.  f reaches the xi quadrature through one walk,
``bargmann._walk_values``, the only code there that names the layout, and
is projected on the states by one routine, ``oscillator._project``: the
transforms dot those projections with the basis and never sum the kernel.
Every disk point of a transform or a kernel grid evaluates its basis once,
in the truncation rule ``coherent._basis_cut``: the grid routes take their
columns from it alone, and ``disk`` keeps no second, radial path.
The cut takes a whole grid, and ``overlap_series`` cuts its farther labels
there; the bilinear sums of ``verify`` are array calls, with no loop over
their terms, and so are its series and stencil checks, by their count of
library calls; the cut takes N(z) of a grid in one call.  An import kept
only for the layer tracer of bench/tracing.py names one of its sites.  A
CSV table's float format is spelled in ``cli._conversions`` alone.  Every
function the package exports is called somewhere outside the tests.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import relbargmann
from relbargmann import coherent, hypergeom, verification
from relbargmann.disk import LandauIndex

PACKAGE = Path(relbargmann.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
CAP_NAMES = {"KERNEL_RMAX", "KERNEL_MIN_DIST_ONE"}
#: the routines that build a block of the state tables
BLOCK_NAMES = {"state_polynomials", "conj_state_prefactor",
               "eigenfunction_batch"}
LEGENDRE_RULE_NAMES = {"_COARSE_RULE", "_FINE_RULE"}
M0_ROUTE_NAMES = {"gauss_2f1_vec", "log_gamma_ratio", "_m0_exponent"}
COEFF_MATRIX_NAMES = {"_phi_coeff_rows", "_phi_coeff_matrix"}
LAYOUT_NAMES = {"xi_layout", "state_end", "XI_LENGTH"}
BASIS_NAMES = {"basis_phi_batch", "_basis_cut"}


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


@pytest.mark.parametrize("name", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "reference.py"))
def test_layout_has_one_rule(name):
    # the half line has one panel rule, the Gauss-Kronrod pair: no module
    # but the oracles of reference names or builds a Gauss-Legendre panel
    # rule, and quadrature calls leggauss in gauss_jacobi alone
    tree = _parse(name)
    assert not _names(tree) & LEGENDRE_RULE_NAMES
    inside = set()
    if name == "quadrature.py":
        inside = {id(node) for node in ast.walk(
            _function(tree, "gauss_jacobi"))}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "leggauss" in _names(node.func)]
    assert all(id(node) in inside for node in calls)


def test_one_panel_sum_and_one_edge_walk():
    quadrature, bargmann = _parse("quadrature.py"), _parse("bargmann.py")
    oscillator = _parse("oscillator.py")
    for tree, name, sums in (
            (quadrature, "_bisected_panels", "_kronrod_panels"),
            (bargmann, "relativistic_transform_grid", "_kronrod_gaps")):
        names = _names(_function(tree, name))
        assert sums in names and "hypot" not in names, name
    for tree, name in ((quadrature, "integrate_halfline"),
                       (oscillator, "xi_layout")):
        names = _names(_function(tree, name))
        assert "_panel_edges" in names and "cumsum" not in names, name


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
    # the cut evaluates the basis, and the two grid routes read their
    # columns from there alone
    coherent, bargmann = _parse("coherent.py"), _parse("bargmann.py")
    assert "basis_phi_batch" not in _names(bargmann)
    assert "basis_phi_batch" in _names(_function(coherent, "_basis_cut"))
    for tree, name in ((coherent, "transform_kernel_series_grid"),
                       (bargmann, "relativistic_transform_grid")):
        names = _names(_function(tree, name))
        assert names & BASIS_NAMES == {"_basis_cut"}, name


def test_transforms_dot_one_projection_of_f():
    # B[f](z) = sum_k c_k Phi_k(z): the transforms and the isometry check
    # take c_k = <f, phi_k> from oscillator._project alone, and bargmann
    # sums neither the kernel nor a panel of it
    bargmann = _parse("bargmann.py")
    assert not _names(bargmann) & {"_kernel_expansion", "_panel_sums",
                                   "_kernel_coeffs", "_kronrod_panels",
                                   "einsum"}
    for name in ("relativistic_transform_grid", "isometry_check"):
        assert "_project" in _names(_function(bargmann, name)), name
    assert [node.name for node in bargmann.body
            if isinstance(node, ast.FunctionDef)
            and "state_polynomials" in _names(node)] == [
        "relativistic_transform_grid", "isometry_check"]


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "quadrature.py"),
    ids=lambda p: p.name)
def test_kronrod_and_gauss_weights_meet_in_quadrature(path):
    # outside quadrature the panel rule is read for its nodes or its
    # Kronrod weights alone: ``_KRONROD_RULE[0]`` or ``[1]``, never the
    # Gauss weights or the whole tuple
    tree = _parse(path.name)
    reads = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             and isinstance(node.slice, ast.Constant)
             and node.slice.value in (0, 1)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_KRONROD_RULE":
            assert id(node) in reads, (path.name, node.lineno)


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
    assert "_basis_cut" in names


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


def _spellings(node: ast.AST, spec: str) -> list:
    """Every string constant under ``node`` that contains ``spec``, format
    specs of f-strings included."""
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Constant)
            and isinstance(sub.value, str) and spec in sub.value]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_float_format_is_spelled_in_one_routine(path):
    # cli._conversions alone converts a float for a CSV table, so the
    # blocks of a z x xi table cannot fork from the rows of another table
    tree = _parse(path.name)
    inside = []
    if path.name == "cli.py":
        inside = _spellings(_function(tree, "_conversions"), ".17g")
        assert inside
    assert _spellings(tree, ".17g") == inside


def _callers_of(name: str, home: str) -> list:
    """The files besides ``__init__`` that name ``name`` in code (a string
    does not count): every module of the package, its home module
    ``home`` without the definition of ``name``, and the scripts of bench/
    and demos/."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted(TRACING.parent.glob("*.py"))
    paths += sorted((TRACING.parents[1] / "demos").glob("*.py"))
    found = []
    for path in paths:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        if path.stem == home:
            body = [node for node in body
                    if getattr(node, "name", None) != name]
        if any(name in _names(node) for node in body):
            found.append(path.name)
    return found


@pytest.mark.parametrize("name", sorted(
    name for name in relbargmann.__all__
    if inspect.isfunction(getattr(relbargmann, name))))
def test_every_exported_function_is_called_outside_the_tests(name):
    # a function that only the tests call is deleted, or moved to the tests
    home = getattr(relbargmann, name).__module__.rpartition(".")[2]
    assert _callers_of(name, home), name
