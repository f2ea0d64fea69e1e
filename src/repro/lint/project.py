"""Whole-program loader: every module of the tree, parsed once.

The per-file rules of :mod:`repro.lint.rules` see one
:class:`~repro.lint.rules.ModuleContext` at a time; the *semantic*
rules (CACHE001, TAG002, DET006) need to see across files — which
experiment entry point eventually calls ``os.environ.get``, whether a
wall-clock value returned by a helper three modules away reaches
``call_at``. This module provides the shared substrate those rules
analyze:

:class:`ModuleInfo`
    One parsed file: dotted module name, AST, source, a content digest
    (the analysis-cache key), parsed suppression directives, and the
    import table mapping local aliases to fully-qualified names.

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
import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.lint.findings import parse_suppressions
from repro.lint.rules import ModuleContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.callgraph import CallGraph
    from repro.lint.dataflow import SummaryTable

__all__ = ["ModuleInfo", "Project", "load_project", "source_digest"]


def source_digest(source: str) -> str:
    """Content digest used as the per-file analysis-cache key."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class ModuleInfo:
    """One parsed module of the project."""

    __slots__ = (
        "name",
        "path",
        "norm_path",
        "source",
        "digest",
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
        self.digest = source_digest(source)
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

    def suppressed(self, path: str, line: int, rule: str) -> bool:
        """True when an inline directive covers (path, line, rule)."""
        info = self.module_for_path(path)
        if info is None:
            return False
        codes = info.suppressions.get(line)
        if not codes:
            return False
        return "ALL" in codes or rule.upper() in codes


def load_project(
    paths: Iterable[str],
    files: Optional[Iterable[Tuple[str, str]]] = None,
) -> Project:
    """Parse a whole tree (or in-memory fixtures) into a :class:`Project`.

    ``paths`` are files or directories, expanded exactly like
    :func:`repro.lint.analyzer.iter_python_files`. ``files`` bypasses
    the filesystem entirely with ``(path, source)`` pairs — the fixture
    tests build multi-module projects this way.

    Files that fail to parse still join the project (so their digest
    participates in the cache key and SYNTAX findings can be reported);
    they simply have no AST and take no part in graph building.
    """
    from repro.lint.analyzer import iter_python_files

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
