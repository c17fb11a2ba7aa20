import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pdfluids

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pdfluids"}


def test_runtime_imports_are_numpy_and_stdlib_only():
    # the package declares numpy as its one runtime dependency
    src = Path(pdfluids.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 10
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in ALLOWED]
    assert not outside


def test_only_fields_touches_the_velocity_buffer():
    # the buffer layout is private to fields: every other module reads and
    # writes velocity through the field's views, `as_flat` and its operators
    src = Path(pdfluids.__file__).parent
    users = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "fields.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_buf"]
    assert not users


def _owners(tree, stem) -> dict:
    """The function of `tree` that each node lies in, by node id, as
    "module.function"; ast.walk goes outside in, so a nested function names
    its own nodes."""
    return {id(node): f"{stem}.{fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)}


def test_no_module_global_but_the_blur_kernel():
    # a cache lives on the object that owns it: a PoissonSystem on its
    # projector or a caller's SolverCarry, the particle stencils and the
    # extrapolation plan in their liquid frame.  blur._kernel_for keeps its
    # one kernel, as bench/test_bench.py pins the blur call a guided frame makes
    src = Path(pdfluids.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _owners(tree, path.stem)
        sites += [owner.get(id(node), path.stem) for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
    assert sites == ["blur._kernel_for"]


def _blas_call(node):
    """The BLAS or LAPACK call that `node` makes through numpy, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            return f"linalg.{node.attr}"
        if node.attr in ("dot", "vdot", "inner", "matmul", "tensordot", "einsum"):
            return node.attr
    return None


def test_blas_runs_only_where_it_runs_on_one_thread():
    # OpenBLAS rounds a call it splits over threads differently.  The only
    # calls of src/ are these, each sized so that it runs whole: _dot's
    # ddots of at most 8192 entries, _band_matmul's gemm panels (the dense
    # inverse's and the blur's), LAPACK on at most _LEAF rows, and the
    # coarsest grid's gemv, which splits by rows
    src = Path(pdfluids.__file__).parent
    sites = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _owners(tree, path.stem)
        sites |= {(owner.get(id(node), path.stem), call) for node in ast.walk(tree)
                  if (call := _blas_call(node)) is not None}
    assert sites == {("fields._dot", "vdot"), ("pressure._band_matmul", "matmul"),
                     ("pressure._spd_inverse", "linalg.inv"),
                     ("pressure._smw", "linalg.solve"), ("pressure._cycle", "@")}


def _identifiers(tree, strings=False) -> set:
    """Names and attributes used in `tree`; with `strings`, also imported
    names and the identifiers inside string constants (the tracer names its
    spans by string)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def _uncalled(private: bool, used=frozenset()) -> list:
    """The top-level functions and classes of src/, private or public, that
    no other top-level statement of src/ uses (the package export does not
    count) and that are not named in `used`."""
    src = Path(pdfluids.__file__).parent
    nodes = [node for p in sorted(src.glob("*.py")) if p.name != "__init__.py"
             for node in ast.parse(p.read_text(), str(p)).body]
    uses = [_identifiers(node) for node in nodes]
    return [node.name for i, node in enumerate(nodes)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and node.name not in used
            and not any(node.name in u for j, u in enumerate(uses) if j != i)]


def test_every_public_name_has_a_caller_outside_tests():
    # a public top-level function or class of src/ is used by another
    # top-level statement of src/, by bench/ or by the acceptance criteria;
    # test-only helpers live in tests/
    root = Path(pdfluids.__file__).parent.parent.parent
    outside = [*root.glob("bench/*.py"), root / "tests" / "test_acceptance.py"]
    used = set().union(*(_identifiers(ast.parse(p.read_text()), strings=True)
                         for p in outside))
    assert not _uncalled(private=False, used=used)


def test_every_private_name_has_a_caller_in_src():
    # a private top-level function or class of src/ is used by another
    # top-level statement of src/, so a helper left behind by a refactor fails
    assert not _uncalled(private=True)


def test_readme_library_table_names_live_code():
    # every backticked identifier in the README's row for `pdfluids.X`
    # occurs in src/pdfluids/X.py, so a name deleted from a module cannot
    # stay documented as part of it
    src = Path(pdfluids.__file__).parent
    readme = (src.parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `pdfluids\.(\w+)` \|(.*)\|$", readme, re.MULTILINE)
    assert len(rows) == len(list(src.glob("*.py"))) - 2   # not __init__, __main__
    stale = []
    for module, text in rows:
        code = (src / f"{module}.py").read_text()
        stale += [f"{module}: {name}" for name in re.findall(r"`([A-Za-z_]\w*)`", text)
                  if not re.search(rf"\b{name}\b", code)]
    assert not stale


WARNING_CASES = """
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdfluids.blur import blur_obstacle_aware
from pdfluids.fields import CellFlags, GridDims, ScalarField, VelocityField


def test_package_warning():
    # a zero tap times inf: numpy warns from inside pdfluids' blur
    d = GridDims(8, 8)
    vel = VelocityField.zeros(d)
    vel.u[4, 3, 0] = np.inf
    radius = ScalarField.full(d, 2.0)
    radius.values[:4] = 0.0
    blur_obstacle_aware(vel, radius, CellFlags.open_box(d))


def test_typeddict_warning():
    import warnings
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed",
                  DeprecationWarning)


def test_other_deprecation():
    import warnings
    warnings.warn("mypy_extensions.Arg is deprecated", DeprecationWarning)


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers(0, 10))
def test_failing_property(n):
    assert n < 0
"""


def test_warning_filters_fail_package_warnings_and_report_examples(tmp_path):
    # pytest under this repo's configuration: a warning raised inside
    # pdfluids still fails its test, the one ignored message passes, and a
    # failing hypothesis test prints its falsifying example instead of
    # ending in INTERNALERROR
    root = Path(pdfluids.__file__).parent.parent.parent
    (tmp_path / "test_cases.py").write_text(WARNING_CASES)
    env = dict(os.environ, PYTHONPATH=str(Path(pdfluids.__file__).parent.parent))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_cases.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1 and "INTERNALERROR" not in out, out
    assert "FAILED test_cases.py::test_package_warning - RuntimeWarning" in out
    assert "PASSED test_cases.py::test_typeddict_warning" in out
    assert "FAILED test_cases.py::test_other_deprecation - DeprecationWarning" in out
    assert "FAILED test_cases.py::test_failing_property" in out
    assert "Falsifying example: test_failing_property(" in out
