"""Every ``repro`` module is reachable: imported by other code or run as ``-m``.

A module that nothing imports and nothing runs is dead weight that still
has to be read, kept green and reasoned about. This guard parses the
program's own trees (``src/``, ``benchmarks/``, ``examples/``,
``hostbench/``) with :mod:`ast`, never importing them and skipping every
``tests`` directory, so a module kept alive only by its own tests is
reported. A module counts as reached when another file imports it, or one
of its submodules, or names it in a dotted ``"repro.…"`` string literal
(``hostbench/layers.py`` imports its layers by name). A module with a
``if __name__ == "__main__":`` guard is an entry point and needs no
importer.
"""

import ast
import re
from pathlib import Path
from typing import Iterator, List, Set

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "hostbench")
_DOTTED = re.compile(r"repro(\.[A-Za-z_]\w*)+")


def _python_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        if "tests" not in path.relative_to(root).parts:
            yield path


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _repro_modules(src: Path) -> Set[str]:
    return {_module_name(path, src) for path in _python_files(src / "repro")}


def _with_parents(name: str) -> Set[str]:
    parts = name.split(".")
    return {".".join(parts[:end]) for end in range(1, len(parts) + 1)}


def _is_main_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    test = node.test
    return (
        isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def _references(tree: ast.Module, package: str) -> Set[str]:
    """Dotted names a file imports or spells out, with all their parents."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            if base:
                names |= _with_parents(base)
                names |= {f"{base}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names |= _with_parents(node.value)
    return names


def find_orphans(repo: Path, scanned=SCANNED) -> List[str]:
    """``repro`` modules no other scanned file reaches and nobody runs."""
    src = repo / "src"
    reached: Set[str] = set()
    entry_points: Set[str] = set()
    for top in scanned:
        for path in _python_files(repo / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            own = _module_name(path, src) if top == "src" else None
            if own is None:
                package = ""
            elif path.name == "__init__.py":
                package = own
            else:
                package = own.rpartition(".")[0]
            reached |= _references(tree, package) - {own}
            if own is not None and any(_is_main_guard(n) for n in tree.body):
                entry_points.add(own)
    return sorted(_repro_modules(src) - reached - entry_points)


def test_every_repro_module_is_reachable():
    orphans = find_orphans(REPO)
    assert orphans == [], (
        f"modules nothing imports or runs (delete them, or import them "
        f"from the code that needs them): {orphans}"
    )


def test_scan_sees_the_package():
    modules = _repro_modules(REPO / "src")
    assert {"repro", "repro.cereal", "repro.cereal.su"} <= modules
    assert len(modules) > 50


def _write(root: Path, relative: str, text: str = "") -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


class TestFindOrphans:
    """The scan on small synthetic trees, so the guard cannot pass vacuously."""

    def _tree(self, tmp_path, files):
        _write(tmp_path, "src/repro/__init__.py", "from repro import core\n")
        _write(tmp_path, "src/repro/core.py")
        _write(tmp_path, "hostbench/run.py", "import repro\n")
        for relative, text in files.items():
            _write(tmp_path, relative, text)
        return find_orphans(tmp_path, scanned=("src", "hostbench"))

    def test_unimported_module_is_flagged(self, tmp_path):
        assert self._tree(tmp_path, {"src/repro/dead.py": ""}) == ["repro.dead"]

    def test_package_imported_only_by_itself_and_tests_is_flagged(self, tmp_path):
        orphans = self._tree(tmp_path, {
            "src/repro/dead/__init__.py": "from repro.dead.inner import x\n",
            "src/repro/dead/inner.py": "x = 1\n",
            "src/repro/tests/test_dead.py": "import repro.dead\n",
            "hostbench/tests/test_dead.py": "import repro.dead\n",
        })
        assert orphans == ["repro.dead"]

    def test_self_reference_does_not_count(self, tmp_path):
        orphans = self._tree(tmp_path, {
            "src/repro/dead.py": "NAME = 'repro.dead'\nimport repro.dead\n",
        })
        assert orphans == ["repro.dead"]

    def test_relative_import_reaches(self, tmp_path):
        orphans = self._tree(tmp_path, {
            "src/repro/pkg/__init__.py": "from .leaf import x\n",
            "src/repro/pkg/leaf.py": "from . import sibling\nfrom .. import use\nx = 1\n",
            "src/repro/pkg/sibling.py": "",
            "src/repro/use.py": "from . import pkg\n",
        })
        assert orphans == []

    def test_dotted_string_reaches(self, tmp_path):
        orphans = self._tree(tmp_path, {
            "src/repro/layer.py": "",
            "hostbench/layers.py": "LAYERS = [('x', 'repro.layer')]\n",
        })
        assert orphans == []

    def test_main_guard_is_an_entry_point(self, tmp_path):
        orphans = self._tree(tmp_path, {
            "src/repro/tool.py": "if __name__ == '__main__':\n    pass\n",
        })
        assert orphans == []
