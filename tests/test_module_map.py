"""DESIGN.md §5's module map lists exactly the modules ``src/repro/``
holds.

The map is a fenced block of rows: a package row starts (two spaces
in) with ``name/`` and lists the package's ``*.py`` files and
subpackages (``name/``), continuing on deeper-indented lines; a
top-level module row starts with ``name.py`` and the rest of it is a
description.  Package ``__init__.py`` files are never listed, and a
listed subpackage's own modules are not enumerated.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def map_block() -> list[str]:
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("## 5. Module map", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines[0] == "src/repro/", lines[0]
    return lines[1:]


def mapped() -> dict[str, set[str]]:
    """``{package path relative to src/repro ('' for the root): names}``."""
    listed: dict[str, set[str]] = {"": set()}
    current = None
    for line in map_block():
        tokens = line.split()
        if not tokens:
            continue
        if not line.startswith("   "):  # a row: two spaces in
            head, rest = tokens[0], tokens[1:]
            listed[""].add(head)
            current = head.rstrip("/") if head.endswith("/") else None
            if current is None:
                continue  # a module row: the rest describes it
            listed[current] = set()
        elif current is None:
            continue
        else:
            rest = tokens
        listed[current].update(token for token in rest
                               if token.endswith((".py", "/")))
    return listed


def on_disk(package: Path) -> set[str]:
    names = {path.name for path in package.glob("*.py")}
    names.discard("__init__.py")
    names.update(f"{path.parent.name}/"
                 for path in package.glob("*/__init__.py"))
    return names


def test_map_lists_every_module_of_every_package():
    listed = mapped()
    packages = {"": PACKAGE}
    packages.update((path.parent.name, path.parent)
                    for path in PACKAGE.glob("*/__init__.py"))
    assert set(listed) == set(packages)
    for name, path in packages.items():
        assert listed[name] == on_disk(path), name or "src/repro/"

