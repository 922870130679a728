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


# Public names that no module calls, each kept for a reader outside src.
UNCALLED_PUBLIC_NAMES = {
    "head_param_count": "c1's parameter accounting calls it",
    "read_epoch_logs": "it reads the epoch logs that `emis train --logs` writes",
}


def test_every_public_name_is_used_by_the_package_or_perfbench():
    """A name in ``__all__`` is read somewhere besides its definition and
    ``__init__.py``: in another part of ``src/emis``, or in perfbench."""
    package = Path(emis.__file__).parent
    perfbench = package.parents[1] / "perfbench"
    sources = [s for s in sorted(package.glob("*.py")) if s.name != "__init__.py"]
    sources += [s for s in sorted(perfbench.glob("*.py")) if not s.name.startswith("test_")]
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(emis.__all__) - used)
    assert unused == sorted(UNCALLED_PUBLIC_NAMES)
