"""Every public ``repro`` name has a caller that is not a test.

A public function, method or class that only tests reach is code the
system does not run: it still has to be read, kept green and reasoned
about, and its tests measure nothing the product does. This guard parses
the trees that run the system (``src/``, ``benchmarks/``, ``examples/``,
``hostbench/``) with :mod:`ast`, never importing them and skipping every
``tests`` directory, the same roots as ``test_module_reachability.py``.
It collects every name a file uses: bare names, attribute names, and the
parts of each string literal that spells a dotted or bare identifier
(``hostbench/layers.py`` wraps classes it names in strings). A public
top-level function or class under ``src/repro``, or a public method of
such a class, whose name no scanned file uses is reported: delete it, or
move it beside the test that needs it. An import alone is not a use, and
neither is a name an ``__all__`` list spells: re-exporting a name does
not run it.

Matching is by bare name, so a method counts as reached when any scanned
file uses an attribute of that name. The guard errs towards passing.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from tests.test_module_reachability import REPO, SCANNED, _python_files

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

#: Public names that stay although only tests reach them, each with why.
ALLOWLIST: Dict[str, str] = {
    "HeapObject.referenced_objects": (
        "the plain child gather the graph-walk oracles in tests compare "
        "traverse_slot_runs and ObjectGraph against"
    ),
    "JavaReflection.get_field": (
        "hostbench/layers.py wraps the reflection shims by class name, so "
        "they stay whole; the Java oracle in tests/oracles.py reads fields "
        "through them"
    ),
    "JavaReflection.set_field": "as JavaReflection.get_field",
    "ReflectAsmAccess.get_field_by_index": (
        "as JavaReflection.get_field; the Kryo oracle encoder reads fields "
        "through it"
    ),
    "set_registry": "test isolation: a test swaps in its own metrics registry",
    "secure_deserialize_chunks": (
        "safety code: the hardened decode front end for untrusted chunked streams"
    ),
}


def _uses(tree: ast.Module) -> Set[str]:
    """Every name ``tree`` uses; import statements and ``__all__`` lists
    name nothing."""
    names: Set[str] = set()
    exported = {id(each) for node in tree.body if isinstance(node, ast.Assign)
                and "__all__" in [getattr(t, "id", None) for t in node.targets]
                for each in ast.walk(node.value)}
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of each public top-level function
    and class, and of each public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def find_test_only(repo: Path, scanned=SCANNED, allowlist=ALLOWLIST) -> List[str]:
    """Public ``repro`` definitions no scanned file uses, minus ``allowlist``."""
    used: Set[str] = set()
    definitions: List[Tuple[str, str]] = []
    for top in scanned:
        for path in _python_files(repo / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _uses(tree)
            if top == "src" and "repro" in path.relative_to(repo / top).parts[:1]:
                definitions.extend(_public_definitions(tree))
    return sorted(
        qualified
        for qualified, name in definitions
        if name not in used and qualified not in allowlist
    )


def test_every_public_name_has_a_program_caller():
    unreached = find_test_only(REPO)
    assert unreached == [], (
        f"public names only tests reach (delete them, or move them beside "
        f"the tests that need them): {unreached}"
    )


def test_every_allowlist_entry_is_needed():
    unreached = find_test_only(REPO, allowlist={})
    stale = [name for name in ALLOWLIST if name not in unreached]
    assert stale == [], f"allowlisted names a program file now reaches: {stale}"


def test_scan_sees_the_package():
    definitions = set()
    for path in _python_files(REPO / "src" / "repro"):
        definitions |= {q for q, _ in _public_definitions(ast.parse(path.read_text()))}
    assert {"JavaSerializer", "JavaSerializer.serialize", "CerealAccelerator"} <= definitions
    assert len(definitions) > 500


def _write(root: Path, relative: str, text: str = "") -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


class TestFindTestOnly:
    """The scan on small synthetic trees, so the guard cannot pass vacuously."""

    TOY = (
        "def helper():\n    return 1\n"
        "def _private():\n    return 2\n"
        "class Shim:\n"
        "    def read(self):\n        return 3\n"
        "    def _slot(self):\n        return 4\n"
    )

    def _scan(self, tmp_path, files, allowlist=None):
        _write(tmp_path, "src/repro/__init__.py")
        _write(tmp_path, "src/repro/toy.py", self.TOY)
        for relative, text in files.items():
            _write(tmp_path, relative, text)
        return find_test_only(
            tmp_path, scanned=("src", "hostbench"), allowlist=allowlist or {}
        )

    def test_unused_names_are_flagged(self, tmp_path):
        assert self._scan(tmp_path, {}) == ["Shim", "Shim.read", "helper"]

    def test_names_only_tests_use_are_flagged(self, tmp_path):
        test = "from repro.toy import Shim, helper\nhelper()\nShim().read()\n"
        assert self._scan(tmp_path, {
            "tests/test_toy.py": test,
            "src/repro/tests/test_toy.py": test,
            "hostbench/tests/test_toy.py": test,
        }) == ["Shim", "Shim.read", "helper"]

    def test_imports_are_not_uses(self, tmp_path):
        assert self._scan(tmp_path, {
            "src/repro/__init__.py": "from repro.toy import Shim, helper\n"
                                     "__all__ = ['Shim', 'helper', 'read']\n",
            "hostbench/run.py": "import repro.toy.helper\n"
                                "from repro.toy import Shim as read\n",
        }) == ["Shim", "Shim.read", "helper"]

    def test_calls_and_attributes_reach(self, tmp_path):
        assert self._scan(tmp_path, {
            "hostbench/run.py": "from repro import toy\n"
                                "toy.helper()\nobj = toy.Shim()\nobj.read()\n",
        }) == []

    def test_bare_and_dotted_strings_reach(self, tmp_path):
        assert self._scan(tmp_path, {
            "hostbench/layers.py": "LAYERS = [('toy', 'repro.toy', ('Shim',))]\n"
                                   "NAMES = ['helper', 'x.read']\n",
        }) == []

    def test_use_inside_src_reaches(self, tmp_path):
        assert self._scan(tmp_path, {
            "src/repro/other.py": "from repro.toy import Shim, helper\n"
                                  "def run():\n    return helper() + Shim().read()\n",
        }) == ["run"]

    def test_allowlist_suppresses(self, tmp_path):
        assert self._scan(
            tmp_path, {}, allowlist={"Shim.read": "why", "helper": "why"}
        ) == ["Shim"]
