#!/usr/bin/env python
"""Docs lint: the documentation must keep up with the package layout.

Fails CI when:

* a package under ``src/repro/`` has no anchor section in DESIGN.md
  (every subsystem gets a design chapter before it ships);
* DESIGN.md §3's module map leaves out a module under ``src/repro/``
  or names one that does not exist;
* a public class re-exported in ``repro.__all__`` is missing a
  docstring (the README points users at ``help(repro.X)``);
* README.md's architecture map forgets a package;
* OPERATIONS.md's module coverage forgets a package (the operator guide
  must tell an operator where every subsystem's knobs live).

Run as ``PYTHONPATH=src python scripts/docs_lint.py`` from the repo root.
"""

from __future__ import annotations

import inspect
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def repro_packages() -> list:
    return sorted(p.name for p in SRC.iterdir()
                  if p.is_dir() and (p / "__init__.py").exists())


def check_design_anchors(errors: list) -> None:
    design = (REPO / "DESIGN.md").read_text()
    for package in repro_packages():
        needle = f"repro.{package}"
        if needle not in design:
            errors.append(
                f"DESIGN.md has no section mentioning `{needle}` — every "
                f"src/repro/* package needs a design anchor")


def repro_modules() -> set:
    """Every module under ``src/repro/`` as a path relative to it
    (``core/auq.py``); package ``__init__.py`` files are not listed."""
    return {str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
            if p.name != "__init__.py"}


def design_map_modules(design: str) -> set:
    """The modules DESIGN.md §3's map names: the first fenced block after
    the §3 heading, where a two-space-indented ``name/`` line opens a
    package and the ``file.py`` lines under it belong to it."""
    section = design.split("## 3.", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    listed, package = set(), ""
    for line in block.splitlines():
        match = re.match(r"^( *)(\S+)", line)
        if match is None:
            continue
        indent, name = len(match.group(1)), match.group(2)
        if indent == 2 and name.endswith("/"):
            package = name
        elif name.endswith(".py"):
            listed.add(name if indent == 2 else package + name)
    return listed


def check_design_module_map(errors: list) -> None:
    listed = design_map_modules((REPO / "DESIGN.md").read_text())
    actual = repro_modules()
    for module in sorted(actual - listed):
        errors.append(f"DESIGN.md §3's module map leaves out "
                      f"src/repro/{module}")
    for module in sorted(listed - actual):
        errors.append(f"DESIGN.md §3's module map names "
                      f"src/repro/{module}, which does not exist")


def check_readme_module_map(errors: list) -> None:
    readme = (REPO / "README.md").read_text()
    for package in repro_packages():
        needle = f"repro/{package}"
        if needle not in readme and f"repro.{package}" not in readme:
            errors.append(
                f"README.md's module map does not mention `{needle}`")


def check_operations_coverage(errors: list) -> None:
    operations = REPO / "OPERATIONS.md"
    if not operations.exists():
        errors.append("OPERATIONS.md is missing — the operator guide "
                      "ships with the repo")
        return
    text = operations.read_text()
    for package in repro_packages():
        if f"repro.{package}" not in text \
                and f"repro/{package}" not in text:
            errors.append(
                f"OPERATIONS.md does not mention `repro.{package}` — the "
                f"operator guide's module coverage must name every "
                f"src/repro/* package")


def check_public_docstrings(errors: list) -> None:
    import repro
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
            errors.append(
                f"repro.{name} is public (in repro.__all__) but the class "
                f"has no docstring")


def main() -> int:
    errors: list = []
    check_design_anchors(errors)
    check_design_module_map(errors)
    check_readme_module_map(errors)
    check_operations_coverage(errors)
    check_public_docstrings(errors)
    if errors:
        for error in errors:
            print(f"docs-lint: {error}", file=sys.stderr)
        return 1
    packages = ", ".join(repro_packages())
    print(f"docs-lint ok ({packages})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
