import ast
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
