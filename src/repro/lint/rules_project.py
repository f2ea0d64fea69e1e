"""Project rule API: whole-program rules over the loaded :class:`Project`.

A :class:`ProjectRule` sees the entire module graph instead of one file
at a time, in two phases:

``collect(module)``
    Called once per module (sorted by path) before any analysis — the
    place to harvest per-module facts cheaply (experiment registry
    entries, module-level mutable globals) without forcing the call
    graph to exist.

``analyze(project)``
    Called once with the full project; may pull the memoized call graph
    (``project.callgraph()``) and taint summaries
    (``project.summaries()``). Yields findings.

Project rules are registered as *classes* (they carry collect-phase
state, so the engine instantiates a fresh rule per run) but share the
per-instance ``--select`` / ``--ignore`` / ``# lint: disable=`` plumbing
with the per-file rules — a directive on the reported line silences a
project finding exactly like a module finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.callgraph import MODULE_BODY, CallGraph, FunctionInfo, _own_nodes
from repro.lint.dataflow import (
    LABEL_ID,
    LABEL_UNORDERED,
    LABEL_WALLCLOCK,
    build_cfg,
    reaching_definitions,
)
from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, Project
from repro.lint.rules import _TAG_WORDS, WALL_CLOCK_CALLS, in_benchmark_path

__all__ = [
    "PROJECT_RULES",
    "ProjectRule",
    "register_project",
    "all_project_rule_codes",
]


class ProjectRule:
    """Base class for whole-program rules (collect + analyze phases)."""

    code: str = ""
    summary: str = ""

    def collect(self, module: ModuleInfo) -> None:
        """Per-module fact harvesting; called before :meth:`analyze`."""

    def analyze(self, project: Project) -> Iterator[Finding]:
        """Yield findings over the whole project."""
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` inside ``module``."""
        return Finding(
            rule=self.code,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


#: Registry of code -> rule class (instantiated fresh per engine run).
PROJECT_RULES: Dict[str, Type[ProjectRule]] = {}


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the registry."""
    if not cls.code:
        raise ValueError(f"project rule {cls.__name__} has no code")
    if cls.code in PROJECT_RULES:
        raise ValueError(f"duplicate project rule code {cls.code}")
    PROJECT_RULES[cls.code] = cls
    return cls


def all_project_rule_codes() -> Tuple[str, ...]:
    """Every registered project rule code, in registration order."""
    return tuple(PROJECT_RULES)


# ---------------------------------------------------------------------------
# CACHE001 — campaign cache purity
# ---------------------------------------------------------------------------


_FS_READ_METHODS = frozenset({"read_text", "read_bytes"})
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
    }
)
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


@register_project
class CachePurityRule(ProjectRule):
    """Experiment entry points must be pure functions of (name, params, seed).

    The campaign layer caches results content-addressed by experiment
    name + source digest + params + seed. Anything an entry point reads
    that is *not* in that key — ``os.environ``, files, the wall clock,
    module-level mutable state — silently poisons the cache: two runs
    with the same key may produce different payloads. This rule walks
    the call graph from every registry entry point and flags such reads
    (and mutations of module-level mutable globals) anywhere in the
    transitive callee set.
    """

    code = "CACHE001"
    summary = "experiment entry transitively reads env/fs/clock/mutable globals"

    def __init__(self) -> None:
        #: (target module, function, registry package, label) rows;
        #: resolved against the loaded project in :meth:`analyze`.
        self.raw_entries: List[Tuple[str, str, str, str]] = []
        #: entry qname -> "module:function" registry label
        self.entries: Dict[str, str] = {}
        #: module-level mutable global -> defining module name
        self.mutable_globals: Dict[str, str] = {}

    # -- collect ------------------------------------------------------
    def collect(self, module: ModuleInfo) -> None:
        if module.tree is None:
            return
        self._collect_mutable_globals(module)
        if not module.norm_path.endswith("experiments/__init__.py"):
            return
        for stmt in module.tree.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and target.id == "REGISTRY":
                    value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id == "REGISTRY":
                    value = stmt.value
            if not isinstance(value, ast.Dict):
                continue
            for val in value.values:
                if not (
                    isinstance(val, ast.Constant) and isinstance(val.value, str)
                ):
                    continue
                mod_part, _, fn_part = val.value.partition(":")
                if not fn_part:
                    continue
                self.raw_entries.append(
                    (mod_part, fn_part, module.name, val.value)
                )

    def _collect_mutable_globals(self, module: ModuleInfo) -> None:
        assert module.tree is not None
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None:
                continue
            mutable = isinstance(value, (ast.List, ast.Dict, ast.Set))
            if isinstance(value, ast.Call):
                callee = value.func
                callee_name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else None
                )
                mutable = callee_name in _MUTABLE_FACTORIES
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.mutable_globals[f"{module.name}.{target.id}"] = module.name

    # -- analyze ------------------------------------------------------
    def analyze(self, project: Project) -> Iterator[Finding]:
        # Registry targets may be absolute ("repro.experiments.figure1:
        # run_figure1") or package-relative ("figure1:run_figure1").
        for mod_part, fn_part, package, label in self.raw_entries:
            if mod_part in project.modules:
                self.entries[f"{mod_part}.{fn_part}"] = label
            else:
                self.entries[f"{package}.{mod_part}.{fn_part}"] = label
        if not self.entries:
            return
        graph = project.callgraph()
        # BFS with parent pointers for "how did we get here" reporting.
        origin: Dict[str, str] = {}
        queue: List[str] = []
        for qname in sorted(self.entries):
            if qname in graph.functions and qname not in origin:
                origin[qname] = qname
                queue.append(qname)
        while queue:
            current = queue.pop(0)
            for callee in graph.edges.get(current, ()):
                if callee not in origin and callee in graph.functions:
                    origin[callee] = origin[current]
                    queue.append(callee)
        reported: Set[Tuple[str, int, str]] = set()
        for qname in sorted(origin):
            fn = graph.functions[qname]
            if fn.node is None or qname.endswith(f".{MODULE_BODY}"):
                continue
            entry = self.entries[origin[qname]]
            for node, what in self._impure_sites(graph, fn):
                key = (fn.module.norm_path, getattr(node, "lineno", 1), what)
                if key in reported:
                    continue
                reported.add(key)
                where = (
                    "" if origin[qname] == qname else f" (reached via {qname})"
                )
                yield self.finding(
                    fn.module,
                    node,
                    f"experiment entry '{entry}' transitively reads {what}"
                    f"{where}; cached results are keyed only on "
                    "(name, source digest, params, seed) — thread the value "
                    "through params instead",
                )

    def _impure_sites(
        self, graph: CallGraph, fn: FunctionInfo
    ) -> Iterator[Tuple[ast.AST, str]]:
        module = fn.module
        for node in _own_nodes(fn):
            if isinstance(node, ast.Call):
                name = module.canonical_name(node.func)
                if name in WALL_CLOCK_CALLS:
                    yield node, f"the wall clock ({name}())"
                elif name == "os.getenv" or (
                    name is not None and name.startswith("os.environ.")
                ):
                    yield node, "os.environ"
                elif isinstance(node.func, ast.Name) and node.func.id == "open":
                    if id(node) not in graph.call_targets:
                        yield node, "the filesystem (open())"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FS_READ_METHODS
                ):
                    yield node, f"the filesystem (.{node.func.attr}())"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                ):
                    target = self._global_target(module, node.func.value)
                    if target is not None:
                        yield node, (
                            f"module-level mutable state ('{target}' "
                            f"mutated via .{node.func.attr}())"
                        )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                name = module.canonical_name(node)
                if name == "os.environ":
                    yield node, "os.environ"
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                target = self._global_target(module, node.value)
                if target is not None:
                    yield node, (
                        f"module-level mutable state ('{target}' written "
                        "by subscript)"
                    )

    def _global_target(
        self, module: ModuleInfo, node: ast.expr
    ) -> Optional[str]:
        """Fully-qualified mutable-global name, if ``node`` names one."""
        if isinstance(node, ast.Name):
            local = f"{module.name}.{node.id}"
            if local in self.mutable_globals:
                return local
            imported = module.imports.get(node.id)
            if imported is not None and imported in self.mutable_globals:
                return imported
        elif isinstance(node, ast.Attribute):
            dotted = module.canonical_name(node)
            if dotted is not None and dotted in self.mutable_globals:
                return dotted
        return None


# ---------------------------------------------------------------------------
# TAG002 — tag-math parity (no re-derivation of eq. 4 / eq. 37)
# ---------------------------------------------------------------------------


_EQ37_WORDS = _TAG_WORDS + ("eat", "arrival", "service", "expected")


def _mentions_any(node: ast.AST, words: Tuple[str, ...]) -> bool:
    for sub in ast.walk(node):
        name: Optional[str] = None
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Name):
            name = sub.id
        if name is None:
            continue
        lowered = name.lower()
        if lowered.endswith("_tag"):
            return True
        for word in words:
            if word in lowered:
                return True
    return False


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions of one statement, not descending into nested bodies.

    CFG nodes for compound statements (``if``/``while``/``for``) hold
    the whole statement including its body, but the body statements are
    their own CFG nodes — walking the full subtree would report each
    nested expression once per enclosing level.
    """
    roots: List[ast.expr]
    if isinstance(stmt, (ast.If, ast.While)):
        roots = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        roots = []  # nested defs are their own call-graph entries
    else:
        roots = [stmt]  # type: ignore[list-item]
    for root in roots:
        for sub in ast.walk(root):
            if isinstance(sub, ast.expr):
                yield sub


def _is_max2(node: ast.expr) -> bool:
    """A two-argument ``max(a, b)``, or the same choice written as a
    conditional expression, ``b if b > a else a``, the way
    ``repro.core.tagmath`` spells it (lint rule PERF005)."""
    if isinstance(node, ast.IfExp):
        test = node.test
        return (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Gt, ast.GtE, ast.Lt, ast.LtE))
            and {ast.dump(test.left), ast.dump(test.comparators[0])}
            == {ast.dump(node.body), ast.dump(node.orelse)}
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and len(node.args) == 2
        and not node.keywords
    )


def _contains_div(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
        for sub in ast.walk(node)
    )


@register_project
class TagMathParityRule(ProjectRule):
    """Eq. 4 / eq. 37 must be computed by ``repro.core.tagmath`` only.

    Tags are exact-float state: ``S = max(v, F_prev); F = S + l/r``
    (eq. 4) and ``EAT = max(A, EAT_prev + P_prev)`` (eq. 37) re-derived
    inline anywhere else will eventually drift by an ulp from the shared
    kernel (that is exactly how the PR 7 regression happened), breaking
    byte-identical trace equivalence with the frozen seed cores. Every
    discipline must call ``tagmath.start_finish`` /
    ``tagmath.eat_step``; this rule uses reaching definitions to connect
    a ``max(...)`` assignment with the ``start + l/r`` expression that
    completes the re-derivation even when they are statements apart.
    """

    code = "TAG002"
    summary = "inline re-derivation of eq. 4 / eq. 37 outside repro.core.tagmath"

    def analyze(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph()
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if fn.node is None:
                continue
            if fn.module.name.endswith("tagmath"):
                continue
            yield from self._check_function(fn)

    def _check_function(self, fn: FunctionInfo) -> Iterator[Finding]:
        body = self._body(fn)
        if not body:
            return
        cfg = build_cfg(body)
        reaching = reaching_definitions(cfg)
        # max2 assignments by (name, def line).
        max_defs: Dict[Tuple[str, str], ast.stmt] = {}
        for node in cfg.nodes:
            stmt = node.stmt
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and _is_max2(stmt.value):
                    max_defs[(target.id, str(stmt.lineno))] = stmt
        for node, env in zip(cfg.nodes, reaching):
            yield from self._check_stmt(fn, node.stmt, env, max_defs)

    def _check_stmt(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        env: Dict[str, "frozenset[str]"],
        max_defs: Dict[Tuple[str, str], ast.stmt],
    ) -> Iterator[Finding]:
        for expr in _stmt_exprs(stmt):
            if not isinstance(expr, ast.BinOp) or not isinstance(expr.op, ast.Add):
                continue
            for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
                # Inline: max(a, b) + <... l/r ...>   (eq. 4 in one expr)
                if _is_max2(side) and _contains_div(other):
                    yield self.finding(
                        fn.module,
                        expr,
                        "inline eq. 4 (`max(...) + length/rate`) re-derives "
                        "the start/finish tags; call "
                        "repro.core.tagmath.start_finish instead",
                    )
                    break
                # Split: start = max(a, b) ... start + l/r  (reaching def)
                if isinstance(side, ast.Name) and _contains_div(other):
                    lines = env.get(side.id, frozenset())
                    if any(
                        (side.id, line) in max_defs for line in lines
                    ):
                        yield self.finding(
                            fn.module,
                            expr,
                            f"`{side.id}` is max(...) two-arg (eq. 4 start "
                            "tag) and this adds a length/rate term — the "
                            "finish-tag re-derivation belongs to "
                            "repro.core.tagmath.start_finish",
                        )
                        break
            else:
                continue
            return  # one finding per statement is enough
        # eq. 37: max(arrival-ish, prev + service-ish) on tag vocabulary.
        for expr in _stmt_exprs(stmt):
            if (
                _is_max2(expr)
                and isinstance(expr, ast.Call)
                and isinstance(expr.args[1], ast.BinOp)
                and isinstance(expr.args[1].op, ast.Add)
                and _mentions_any(expr, _EQ37_WORDS)
            ):
                yield self.finding(
                    fn.module,
                    expr,
                    "inline eq. 37 (`max(arrival, prev_eat + prev_service)`) "
                    "re-derives the expected-arrival recurrence; call "
                    "repro.core.tagmath.eat_step instead",
                )
                return

    def _body(self, fn: FunctionInfo) -> List[ast.stmt]:
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return list(node.body)
        if isinstance(node, ast.Module):
            return [
                stmt
                for stmt in node.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
        return []


# ---------------------------------------------------------------------------
# DET006 — interprocedural determinism taint
# ---------------------------------------------------------------------------


#: Fix suggested for each taint label in a DET006 message.
_ADVICE = {
    LABEL_ID: "key on an explicit counter (e.g. Packet.uid)",
    LABEL_UNORDERED: "iterate sorted(...) instead",
    LABEL_WALLCLOCK: "derive event times/tags from simulation state",
}


@register_project
class InterproceduralTaintRule(ProjectRule):
    """Nondeterministic values reaching the schedule, within or across calls.

    The schedule must be a function of rank order alone, so this is the
    one ordering rule. Three labels — ``wallclock`` (a
    :data:`~repro.lint.rules.WALL_CLOCK_CALLS` read), ``id`` (``id()``)
    and ``unordered-iteration`` (iterating a set or dict view) — are
    tracked to the sinks of :mod:`repro.lint.dataflow`: the
    ``EVENT_SINKS`` set (heap operations, event scheduling, packet
    hand-off, flow registration), the tag-math helpers, tag attribute
    stores, and the result of a comparator, sort-key function or
    ``key=`` lambda. A ``time.time()`` returned by a helper three calls
    away and passed into ``sim.call_at`` is caught like a local one:
    taint summaries (which labels a function returns, which parameters
    reach a sink inside it) are computed to fixpoint over the call
    graph. ``sorted()`` launders iteration-order taint.
    """

    code = "DET006"
    summary = "time()/id()/unordered-iteration value reaches the schedule"

    def analyze(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph()
        table = project.summaries()
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if fn.node is None or qname.endswith(f".{MODULE_BODY}"):
                continue
            hits = table.sink_hits(
                fn, wallclock_ok=in_benchmark_path(fn.module.norm_path)
            )
            seen: Set[Tuple[int, int, str]] = set()
            for hit in hits:
                labels = "+".join(sorted(hit.labels))
                via = f" inside {hit.via}" if hit.via else ""
                key = (
                    getattr(hit.node, "lineno", 1),
                    getattr(hit.node, "col_offset", 0),
                    f"{labels}|{hit.sink}|{hit.via or ''}",
                )
                if key in seen:
                    continue
                seen.add(key)
                advice = "; ".join(_ADVICE[label] for label in sorted(hit.labels))
                yield self.finding(
                    fn.module,
                    hit.node,
                    f"{labels}-tainted value reaches scheduling sink "
                    f"`{hit.sink}`{via}; {advice}",
                )
