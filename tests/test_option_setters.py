"""Every option has a setter: each defaulted config field is passed somewhere.

A config field that no file ever sets is a constant that pretends to be a
knob: every reader has to treat it as live, and no experiment moves it.
This guard parses the four trees that run the system (``src/``,
``benchmarks/``, ``examples/``, ``hostbench/``) with :mod:`ast`, never
importing them, and collects every keyword passed to a ``*Config`` or
``*Policy`` class by name, to ``cls(...)`` inside that class, or to
``replace(...)`` (``dataclasses.replace``; its target type is not known
statically, so its keywords count for every class). A defaulted field of
such a class under ``src/repro`` that none of those calls names is
reported: make it a constant in the code that reads it, or delete it.

``tests/`` is not scanned: a test is not a caller, so a field that only a
test sets is still a constant.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "hostbench")
_OPTION_CLASS = re.compile(r"\w*(Config|Policy)")

# Files whose defaulted fields are documentation, not knobs.
ALLOWLIST = {
    # Table I, printed by bench_table01_config.
    "repro/common/config.py",
}


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


def _defaulted_fields(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(class, field)`` for each defaulted field of an option class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not _OPTION_CLASS.fullmatch(node.name):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.value is not None
                and not _is_classvar(item.annotation)
            ):
                yield node.name, item.target.id


def _callee(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _setters(tree: ast.Module) -> Dict[str, Set[str]]:
    """Keywords passed per callee; ``cls(...)`` resolves to its class and
    ``replace(...)`` is kept under ``"replace"``."""
    found: Dict[str, Set[str]] = {}

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            name = _callee(node.func)
            if name == "cls":
                name = owner
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if name and keywords:
                found.setdefault(name, set()).update(keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return found


def find_unset_options(repo: Path, scanned=SCANNED) -> List[str]:
    """``Class.field`` for each defaulted option field no scanned file sets."""
    src = repo / "src"
    fields: List[Tuple[str, str]] = []
    setters: Dict[str, Set[str]] = {}
    for top in scanned:
        for path in sorted((repo / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, keywords in _setters(tree).items():
                setters.setdefault(name, set()).update(keywords)
            relative = path.relative_to(src).as_posix() if top == "src" else ""
            if relative.startswith("repro/") and relative not in ALLOWLIST:
                fields.extend(_defaulted_fields(tree))
    replaced = setters.get("replace", set())
    return sorted(
        f"{cls}.{field}"
        for cls, field in fields
        if field not in setters.get(cls, set()) | replaced
    )


def test_every_option_field_has_a_setter():
    unset = find_unset_options(REPO)
    assert unset == [], (
        f"config fields no file sets (make each a constant in the code "
        f"that reads it, or delete it): {unset}"
    )


def test_scan_sees_the_option_classes():
    fields = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        fields |= set(_defaulted_fields(ast.parse(path.read_text())))
    classes = {cls for cls, _ in fields}
    assert {"ServiceConfig", "ClusterConfig", "FaultPolicy", "AutoscalerConfig"} <= classes
    assert len(fields) > 20


def _write(root: Path, relative: str, text: str = "") -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


class TestFindUnsetOptions:
    """The scan on small synthetic trees, so the guard cannot pass vacuously."""

    CONFIG = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class ToyConfig:\n"
        "    required: int\n"
        "    width: int = 4\n"
        "    depth: int = field(default=2)\n"
        "    LIMIT: ClassVar[int] = 9\n"
        "    @classmethod\n"
        "    def deep(cls):\n"
        "        return cls(required=1, depth=8)\n"
    )

    def _scan(self, tmp_path, files):
        _write(tmp_path, "src/repro/toy.py", self.CONFIG)
        for relative, text in files.items():
            _write(tmp_path, relative, text)
        return find_unset_options(tmp_path)

    def test_unset_field_is_flagged(self, tmp_path):
        assert self._scan(tmp_path, {}) == ["ToyConfig.width"]

    def test_keyword_only_in_a_test_is_flagged(self, tmp_path):
        unset = self._scan(tmp_path, {
            "tests/test_toy.py": "from repro.toy import ToyConfig\n"
                                 "ToyConfig(required=1, width=3)\n",
        })
        assert unset == ["ToyConfig.width"]

    @pytest.mark.parametrize("top", ["benchmarks", "examples", "hostbench"])
    def test_keyword_in_a_runner_counts(self, tmp_path, top):
        unset = self._scan(tmp_path, {
            f"{top}/toy.py": "from repro.toy import ToyConfig\n"
                             "ToyConfig(required=1, width=3)\n",
        })
        assert unset == []

    def test_attribute_call_and_replace_count(self, tmp_path):
        assert self._scan(tmp_path, {
            "examples/toy.py": "import repro.toy as t\nt.ToyConfig(width=3)\n",
        }) == []
        assert self._scan(tmp_path, {
            "examples/toy.py": "import dataclasses\n"
                               "dataclasses.replace(c, width=3)\n",
        }) == []

    def test_keyword_to_another_class_does_not_count(self, tmp_path):
        unset = self._scan(tmp_path, {
            "examples/toy.py": "OtherConfig(width=3)\nToyConfig(3)\n",
        })
        assert unset == ["ToyConfig.width"]

    def test_cls_outside_the_class_does_not_count(self, tmp_path):
        unset = self._scan(tmp_path, {
            "src/repro/other.py": "class Other:\n"
                                  "    @classmethod\n"
                                  "    def make(cls):\n"
                                  "        return cls(width=3)\n",
        })
        assert unset == ["ToyConfig.width"]

    def test_allowlisted_file_is_skipped(self, tmp_path):
        unset = self._scan(tmp_path, {
            "src/repro/common/config.py": self.CONFIG.replace("Toy", "Table"),
        })
        assert unset == ["ToyConfig.width"]

    def test_non_option_class_is_ignored(self, tmp_path):
        unset = self._scan(tmp_path, {
            "src/repro/plain.py": "class Plain:\n    width: int = 4\n",
        })
        assert unset == ["ToyConfig.width"]
