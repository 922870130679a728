import ast
import sys
from pathlib import Path

import emis


def test_every_public_name_resolves():
    missing = [name for name in emis.__all__ if not hasattr(emis, name)]
    assert missing == []
    assert len(set(emis.__all__)) == len(emis.__all__)


def test_runtime_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "emis"}
    sources = sorted(Path(emis.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{source.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_row_norms_are_taken_only_in_numerics_row_norms():
    """One row-norm loop: ``linalg.norm`` appears only in ``numerics.row_norms``."""
    found = []
    for source in sorted(Path(emis.__file__).parent.glob("*.py")):
        for top in ast.parse(source.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Attribute) and node.attr == "norm":
                    names = [ast.unparse(node)]
                else:
                    continue
                found += [(source.name, getattr(top, "name", None), name)
                          for name in names if "linalg" in name.split(".")]
    assert found == [("numerics.py", "row_norms", "np.linalg.norm")]
