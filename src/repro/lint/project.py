"""Whole-program loader: every module of the tree, parsed once.

The per-file rules of :mod:`repro.lint.rules` see one
:class:`~repro.lint.rules.ModuleContext` at a time; the *semantic*
rules (CACHE001, TAG002, DET006) need to see across files — which
experiment entry point eventually calls ``os.environ.get``, whether a
wall-clock value returned by a helper three modules away reaches
``call_at``. This module provides the shared substrate those rules
analyze:

:func:`iter_python_files`
    The one file walk: files and directories expanded into a sorted,
    deduplicated ``.py`` list.

:class:`ModuleInfo`
    One parsed file: dotted module name, AST, source, parsed
    suppression directives, and the import table mapping local aliases
    to fully-qualified names.

:class:`Project`
    The module graph. Lazily builds (and memoizes) the call graph
    (:mod:`repro.lint.callgraph`) and the interprocedural taint
    summaries (:mod:`repro.lint.dataflow`) so that rules needing
    neither pay for neither.

Module names are derived from file paths relative to the scan roots,
with a leading ``src/`` component dropped — ``src/repro/core/pifo.py``
becomes ``repro.core.pifo`` whether the tree is scanned as ``src`` or
from inside it, and fixture projects in temporary directories resolve
the same way (``<tmp>/proj/experiments/__init__.py`` scanned at
``<tmp>`` is ``proj.experiments``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.lint.findings import Finding, is_suppressed, parse_suppressions
from repro.lint.rules import ModuleContext, dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.callgraph import CallGraph
    from repro.lint.dataflow import SummaryTable

__all__ = ["ModuleInfo", "Project", "iter_python_files", "load_project"]


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: List[Path] = []
    seen_set: Set[str] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            key = str(candidate)
            if "egg-info" in key:
                continue
            if key not in seen_set:
                seen_set.add(key)
                seen.append(candidate)
    return seen


class ModuleInfo:
    """One parsed module of the project."""

    __slots__ = (
        "name",
        "path",
        "norm_path",
        "source",
        "tree",
        "suppressions",
        "imports",
        "context",
        "syntax_error",
    )

    def __init__(
        self,
        name: str,
        path: str,
        source: str,
        tree: Optional[ast.Module],
        syntax_error: Optional[SyntaxError] = None,
    ) -> None:
        self.name = name
        self.path = path
        self.norm_path = path.replace("\\", "/")
        self.source = source
        self.tree = tree
        self.syntax_error = syntax_error
        self.suppressions: Mapping[int, FrozenSet[str]] = parse_suppressions(source)
        self.imports: Dict[str, str] = {}
        self.context: Optional[ModuleContext] = None
        if tree is not None:
            self.context = ModuleContext(path=path, source=source, tree=tree)
            self._collect_imports(tree)

    def _collect_imports(self, tree: ast.Module) -> None:
        """Map local aliases to fully-qualified dotted names.

        ``import a.b`` binds ``a`` to module ``a`` (attribute access
        walks the rest); ``import a.b as c`` binds ``c`` to ``a.b``;
        ``from a.b import c as d`` binds ``d`` to ``a.b.c``. Relative
        imports are resolved against this module's own package.
        """
        package_parts = self.name.split(".")[:-1]
        if self.name.endswith("__init__") or self.norm_path.endswith("__init__.py"):
            package_parts = self.name.split(".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        self.imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base: Optional[str]
                if node.level:
                    up = node.level - 1
                    anchor = package_parts[: len(package_parts) - up] if up else package_parts
                    base = ".".join(anchor + ([node.module] if node.module else []))
                else:
                    base = node.module
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = f"{base}.{alias.name}"

    def canonical_name(self, node: ast.expr) -> Optional[str]:
        """Dotted name of ``node`` with this module's import table applied.

        ``clock()`` after ``from time import perf_counter as clock`` is
        ``time.perf_counter``; an unimported head stays as written.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.imports.get(head)
        if canonical is None:
            return dotted
        return f"{canonical}.{rest}" if rest else canonical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleInfo({self.name!r}, path={self.path!r})"


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name for ``path`` relative to scan root ``root``."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


class Project:
    """The module graph plus lazily-built whole-program analyses."""

    __slots__ = ("modules", "by_path", "_callgraph", "_summaries")

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        for info in modules:
            # A package's __init__ and a like-named sibling cannot
            # collide in a real tree; last one wins deterministically.
            self.modules[info.name] = info
            self.by_path[info.norm_path] = info
        self._callgraph: Optional["CallGraph"] = None
        self._summaries: Optional["SummaryTable"] = None

    def __len__(self) -> int:
        return len(self.modules)

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        """Look up a module by (normalized) display path."""
        return self.by_path.get(path.replace("\\", "/"))

    def callgraph(self) -> "CallGraph":
        """The project call graph (built once, memoized)."""
        if self._callgraph is None:
            from repro.lint.callgraph import build_callgraph

            self._callgraph = build_callgraph(self)
        return self._callgraph

    def summaries(self) -> "SummaryTable":
        """Interprocedural taint summaries (built once, memoized)."""
        if self._summaries is None:
            from repro.lint.dataflow import build_summaries

            self._summaries = build_summaries(self)
        return self._summaries

    def suppressed(self, finding: Finding) -> bool:
        """True when an inline directive on the finding's line covers it."""
        info = self.module_for_path(finding.path)
        return info is not None and is_suppressed(finding, info.suppressions)


def load_project(
    paths: Iterable[str],
    files: Optional[Iterable[Tuple[str, str]]] = None,
) -> Project:
    """Parse a whole tree (or in-memory fixtures) into a :class:`Project`.

    ``paths`` are files or directories, expanded by
    :func:`iter_python_files`. ``files`` bypasses the filesystem
    entirely with ``(path, source)`` pairs — the fixture tests build
    multi-module projects this way.

    Files that fail to parse still join the project (so SYNTAX findings
    can be reported); they simply have no AST and take no part in graph
    building.
    """
    infos: List[ModuleInfo] = []
    if files is not None:
        roots = [Path(".")]
        for path, source in files:
            infos.append(_parse_one(Path(path), Path("."), source))
    else:
        roots = [Path(p) if Path(p).is_dir() else Path(p).parent for p in paths]
        for file_path in iter_python_files(paths):
            root = _root_for(file_path, roots)
            source = file_path.read_text(encoding="utf-8")
            infos.append(_parse_one(file_path, root, source))
    return Project(infos)


def _root_for(path: Path, roots: List[Path]) -> Path:
    resolved = path.resolve()
    for root in roots:
        try:
            resolved.relative_to(root.resolve())
            return root
        except ValueError:
            continue
    return path.parent


def _parse_one(path: Path, root: Path, source: str) -> ModuleInfo:
    name = _module_name(path, root)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ModuleInfo(name, str(path), source, None, syntax_error=exc)
    return ModuleInfo(name, str(path), source, tree)
