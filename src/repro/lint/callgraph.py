"""Call-graph construction over the resolved module graph.

Builds, for a loaded :class:`~repro.lint.project.Project`:

* a **symbol table** — every function, class, and method in the
  project under its fully-qualified name (``repro.core.pifo.PifoScheduler
  .enqueue``), plus per-class attribute types recovered from
  ``__init__`` assignments of annotated parameters and from annotated
  class/instance attributes (the ``__slots__``-and-annotations
  discipline the tree already follows is what makes this tractable);
* **call edges** — caller qname → callee qnames, resolving direct
  calls, imported names (following re-export chains through package
  ``__init__`` modules), ``self.method()`` through the in-project MRO,
  and method calls on variables whose class is known from a parameter
  annotation, an ``AnnAssign``, or a visible constructor call;
* **reference edges** — passing a function object (``sim.at(0.0,
  inject)``) counts as an edge to ``inject``: anything the event loop
  may invoke on the caller's behalf is reachable from the caller,
  which is exactly the semantics the purity rule (CACHE001) needs;
* a **per-call-node resolution map** so the dataflow engine
  (:mod:`repro.lint.dataflow`) can ask "which summaries apply to this
  ``ast.Call``" without re-resolving.

Resolution is deliberately *static and partial*: a call that cannot be
resolved contributes no edge. Virtual dispatch is approximated — a
method resolved to an abstract/``NotImplementedError`` body fans out to
every in-project override — which keeps edges tight on concrete code
while still seeing through the ``Scheduler``/``CapacityProcess``
template-method seams.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.project import ModuleInfo, Project

__all__ = ["CallGraph", "FunctionInfo", "ClassInfo", "build_callgraph"]

#: Module-body pseudo-function suffix.
MODULE_BODY = "<module>"


class FunctionInfo:
    """One function or method in the project."""

    __slots__ = ("qname", "module", "node", "class_qname", "param_names")

    def __init__(
        self,
        qname: str,
        module: ModuleInfo,
        node: Optional[ast.AST],
        class_qname: Optional[str] = None,
    ) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.class_qname = class_qname
        self.param_names: Tuple[str, ...] = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
            self.param_names = tuple(names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qname!r})"


class ClassInfo:
    """One class: methods, base names, and recovered attribute types."""

    __slots__ = ("qname", "module", "node", "base_qnames", "methods", "attr_types")

    def __init__(self, qname: str, module: ModuleInfo, node: ast.ClassDef) -> None:
        self.qname = qname
        self.module = module
        self.node = node
        self.base_qnames: Tuple[str, ...] = ()
        self.methods: Dict[str, str] = {}  #: method name -> function qname
        self.attr_types: Dict[str, str] = {}  #: attr name -> class qname

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.qname!r})"


class CallGraph:
    """Resolved symbols, call/reference edges, and reachability."""

    __slots__ = (
        "project",
        "functions",
        "classes",
        "edges",
        "callers",
        "call_targets",
        "_subclasses",
    )

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, Tuple[str, ...]] = {}
        self.callers: Dict[str, Tuple[str, ...]] = {}
        #: id(ast.Call) -> resolved callee qnames for that call site.
        self.call_targets: Dict[int, Tuple[str, ...]] = {}
        self._subclasses: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, roots: Iterable[str]) -> FrozenSet[str]:
        """Transitive closure of call+reference edges from ``roots``."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            for callee in self.edges.get(qname, ()):
                if callee not in seen:
                    stack.append(callee)
        return frozenset(seen)

    def resolve_method(self, class_qname: str, method: str) -> Optional[str]:
        """Find ``method`` in the MRO of ``class_qname`` (project only)."""
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            cq = stack.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.base_qnames)
        return None

    def subclasses(self, class_qname: str) -> Tuple[str, ...]:
        """Direct + transitive in-project subclasses of a class."""
        cached = self._subclasses.get(class_qname)
        if cached is not None:
            return cached
        out: List[str] = []
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            current = stack.pop()
            for cq, cls in self.classes.items():
                if current in cls.base_qnames and cq not in seen:
                    seen.add(cq)
                    out.append(cq)
                    stack.append(cq)
        result = tuple(sorted(out))
        self._subclasses[class_qname] = result
        return result


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_callgraph(project: Project) -> CallGraph:
    """Build the full call graph for a loaded project."""
    graph = CallGraph(project)
    for info in project.modules.values():
        if info.tree is not None:
            _index_module(graph, info)
    for info in project.modules.values():
        if info.tree is not None:
            _resolve_bases_and_attrs(graph, info)
    for info in project.modules.values():
        if info.tree is not None:
            _build_edges(graph, info)
    graph.callers = _invert(graph.edges)
    return graph


def _index_module(graph: CallGraph, info: ModuleInfo) -> None:
    """First pass: register every function, class, and method."""
    assert info.tree is not None
    module_fn = FunctionInfo(f"{info.name}.{MODULE_BODY}", info, info.tree)
    graph.functions[module_fn.qname] = module_fn
    for stmt in info.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _index_function(graph, info, stmt, prefix=info.name, class_qname=None)
        elif isinstance(stmt, ast.ClassDef):
            cq = f"{info.name}.{stmt.name}"
            cls = ClassInfo(cq, info, stmt)
            graph.classes[cq] = cls
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = _index_function(
                        graph, info, sub, prefix=cq, class_qname=cq
                    )
                    cls.methods[sub.name] = fn.qname


def _index_function(
    graph: CallGraph,
    info: ModuleInfo,
    node: ast.AST,
    prefix: str,
    class_qname: Optional[str],
) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    qname = f"{prefix}.{node.name}"
    fn = FunctionInfo(qname, info, node, class_qname=class_qname)
    graph.functions[qname] = fn
    # Nested defs become their own nodes, qualified by the parent.
    for stmt in ast.walk(node):
        if stmt is node:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_q = f"{qname}.{stmt.name}"
            if nested_q not in graph.functions:
                graph.functions[nested_q] = FunctionInfo(
                    nested_q, info, stmt, class_qname=class_qname
                )
    return fn


def _resolve_bases_and_attrs(graph: CallGraph, info: ModuleInfo) -> None:
    """Second pass: base-class qnames and per-class attribute types."""
    for cq, cls in graph.classes.items():
        if cls.module is not info:
            continue
        bases: List[str] = []
        for base in cls.node.bases:
            resolved = _resolve_symbol_expr(graph, info, base)
            if resolved is not None and resolved in graph.classes:
                bases.append(resolved)
        cls.base_qnames = tuple(bases)
        _collect_attr_types(graph, info, cls)


def _collect_attr_types(graph: CallGraph, info: ModuleInfo, cls: ClassInfo) -> None:
    """Recover ``self.attr`` class types from annotations/constructors."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            resolved = _resolve_annotation(graph, info, stmt.annotation)
            if resolved is not None:
                cls.attr_types[stmt.target.id] = resolved
    for stmt in cls.node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _param_types(graph, info, stmt)
        for node in ast.walk(stmt):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                ann = _resolve_annotation(graph, info, node.annotation)
                if (
                    ann is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.attr_types.setdefault(target.attr, ann)
                continue
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
                or value is None
            ):
                continue
            inferred = _infer_expr_type(graph, info, value, params)
            if inferred is not None:
                cls.attr_types.setdefault(target.attr, inferred)


# ---------------------------------------------------------------------------
# Name/annotation resolution helpers
# ---------------------------------------------------------------------------


def _resolve_qname(graph: CallGraph, qname: str, _depth: int = 0) -> Optional[str]:
    """Canonicalize a dotted name, following re-export chains.

    ``repro.simulation.Simulator`` (bound by the package ``__init__``
    via ``from repro.simulation.engine import Simulator``) resolves to
    ``repro.simulation.engine.Simulator``. Returns a qname that names a
    known function/class/module, or None.
    """
    if _depth > 16:  # re-export cycle guard
        return None
    if qname in graph.functions or qname in graph.classes:
        return qname
    project = graph.project
    if qname in project.modules:
        return qname
    head, _, tail = qname.rpartition(".")
    if not head:
        return None
    head_resolved = _resolve_qname(graph, head, _depth + 1)
    if head_resolved is None:
        return None
    candidate = f"{head_resolved}.{tail}"
    if candidate in graph.functions or candidate in graph.classes:
        return candidate
    if candidate in project.modules:
        return candidate
    module = project.modules.get(head_resolved)
    if module is not None and tail in module.imports:
        return _resolve_qname(graph, module.imports[tail], _depth + 1)
    return None


def _resolve_symbol_expr(
    graph: CallGraph, info: ModuleInfo, node: ast.expr
) -> Optional[str]:
    """Resolve a Name/Attribute expression to a project qname."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = current.id
    parts.reverse()
    # Local binding first, then imports, then "name in this module".
    local = f"{info.name}.{root}"
    if local in graph.classes or local in graph.functions:
        base: Optional[str] = local
    elif root in info.imports:
        base = _resolve_qname(graph, info.imports[root], 1)
    elif root in graph.project.modules:
        base = root
    else:
        return None
    if base is None:
        return None
    for part in parts:
        nxt = _resolve_qname(graph, f"{base}.{part}", 1)
        if nxt is None:
            return None
        base = nxt
    return base


def _resolve_annotation(
    graph: CallGraph, info: ModuleInfo, annotation: Optional[ast.expr]
) -> Optional[str]:
    """Class qname named by an annotation, unwrapping Optional/quotes."""
    if annotation is None:
        return None
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if base_name == "Optional":
            inner = node.slice
            return _resolve_annotation(graph, info, inner)
        return None
    resolved = _resolve_symbol_expr(graph, info, node)
    if resolved is not None and resolved in graph.classes:
        return resolved
    return None


def _param_types(
    graph: CallGraph, info: ModuleInfo, node: ast.AST
) -> Dict[str, str]:
    """Parameter name -> class qname, from annotations."""
    out: Dict[str, str] = {}
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for arg in list(node.args.posonlyargs) + list(node.args.args) + list(
        node.args.kwonlyargs
    ):
        resolved = _resolve_annotation(graph, info, arg.annotation)
        if resolved is not None:
            out[arg.arg] = resolved
    return out


def _infer_expr_type(
    graph: CallGraph,
    info: ModuleInfo,
    value: ast.expr,
    env: Dict[str, str],
) -> Optional[str]:
    """Static type of an expression, where visible.

    Covers: constructor calls (``Link(...)`` / ``servers.Link(...)``),
    names with a known type in ``env``, and ``self``-attribute reads
    with a recorded attribute type (resolved by the caller's env entry
    for ``self``).
    """
    if isinstance(value, ast.Call):
        resolved = _resolve_symbol_expr(graph, info, value.func)
        if resolved is not None and resolved in graph.classes:
            return resolved
        return None
    if isinstance(value, ast.Name):
        return env.get(value.id)
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        owner = env.get(value.value.id)
        if owner is not None:
            cls = graph.classes.get(owner)
            if cls is not None:
                return _attr_type_in_mro(graph, owner, value.attr)
    return None


def _attr_type_in_mro(graph: CallGraph, class_qname: str, attr: str) -> Optional[str]:
    seen: Set[str] = set()
    stack = [class_qname]
    while stack:
        cq = stack.pop(0)
        if cq in seen:
            continue
        seen.add(cq)
        cls = graph.classes.get(cq)
        if cls is None:
            continue
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        stack.extend(cls.base_qnames)
    return None


# ---------------------------------------------------------------------------
# Edge building
# ---------------------------------------------------------------------------


def _is_abstract(graph: CallGraph, qname: str) -> bool:
    """True for methods whose body is just ``raise``/``...``/docstring."""
    fn = graph.functions.get(qname)
    if fn is None or not isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    body = [
        stmt
        for stmt in fn.node.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
    ]
    if not body:
        return True
    return all(isinstance(stmt, (ast.Raise, ast.Pass)) for stmt in body)


def _build_edges(graph: CallGraph, info: ModuleInfo) -> None:
    """Third pass: resolve every call/reference in every function."""
    assert info.tree is not None
    for qname, fn in list(graph.functions.items()):
        if fn.module is not info or fn.node is None:
            continue
        env = _function_env(graph, info, fn)
        callees: List[str] = []
        for node in _own_nodes(fn):
            if isinstance(node, ast.Call):
                targets = _resolve_call(graph, info, fn, node, env)
                if targets:
                    self_recursive = tuple(t for t in targets)
                    graph.call_targets[id(node)] = self_recursive
                    callees.extend(targets)
                # Function references passed as arguments (callbacks).
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    ref = _resolve_function_ref(graph, info, fn, arg, env)
                    if ref is not None:
                        callees.append(ref)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Defining a nested function makes it reachable.
                nested_q = f"{qname}.{node.name}"
                if nested_q in graph.functions:
                    callees.append(nested_q)
        deduped = tuple(sorted(set(callees)))
        if deduped:
            graph.edges[qname] = deduped


def _own_nodes(fn: FunctionInfo) -> Iterable[ast.AST]:
    """Walk a function's AST excluding nested def/class subtrees.

    For the module pseudo-function, excludes all top-level defs (they
    are their own nodes) but keeps module-level expressions.
    """
    node = fn.node
    assert node is not None
    if isinstance(node, ast.Module):
        roots: List[ast.AST] = [
            stmt
            for stmt in node.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    else:
        roots = list(getattr(node, "body", []))
    stack = list(roots)
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)


def _function_env(
    graph: CallGraph, info: ModuleInfo, fn: FunctionInfo
) -> Dict[str, str]:
    """Local variable name -> class qname for one function."""
    env: Dict[str, str] = {}
    node = fn.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        env.update(_param_types(graph, info, node))
        if fn.class_qname is not None and fn.param_names:
            env.setdefault(fn.param_names[0], fn.class_qname)
    # Constructor/annotation assignments, in source order (two passes so
    # a name assigned after first use still resolves).
    for _ in range(2):
        for sub in _own_nodes(fn):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name):
                    inferred = _infer_expr_type(graph, info, sub.value, env)
                    if inferred is not None:
                        env.setdefault(target.id, inferred)
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                ann = _resolve_annotation(graph, info, sub.annotation)
                if ann is not None:
                    env.setdefault(sub.target.id, ann)
    return env


def _resolve_call(
    graph: CallGraph,
    info: ModuleInfo,
    fn: FunctionInfo,
    call: ast.Call,
    env: Dict[str, str],
) -> List[str]:
    """Resolved callee qnames for one call expression."""
    func = call.func
    targets: List[str] = []
    if isinstance(func, ast.Name):
        targets.extend(_resolve_name_call(graph, info, fn, func.id))
    elif isinstance(func, ast.Attribute):
        targets.extend(_resolve_attr_call(graph, info, fn, func, env))
    out: List[str] = []
    for target in targets:
        out.append(target)
        if _is_abstract(graph, target):
            # Template-method seam: fan out to in-project overrides.
            owner = graph.functions[target].class_qname
            method = target.rsplit(".", 1)[1]
            if owner is not None:
                for sub in graph.subclasses(owner):
                    override = graph.classes[sub].methods.get(method)
                    if override is not None:
                        out.append(override)
    return out


def _resolve_name_call(
    graph: CallGraph, info: ModuleInfo, fn: FunctionInfo, name: str
) -> List[str]:
    # Nested function in the current function?
    nested = f"{fn.qname}.{name}"
    if nested in graph.functions:
        return [nested]
    local_fn = f"{info.name}.{name}"
    if local_fn in graph.functions:
        return [local_fn]
    if local_fn in graph.classes:
        init = graph.resolve_method(local_fn, "__init__")
        return [init] if init is not None else []
    if name in info.imports:
        resolved = _resolve_qname(graph, info.imports[name], 1)
        if resolved is None:
            return []
        if resolved in graph.functions:
            return [resolved]
        if resolved in graph.classes:
            init = graph.resolve_method(resolved, "__init__")
            return [init] if init is not None else []
    return []


def _resolve_attr_call(
    graph: CallGraph,
    info: ModuleInfo,
    fn: FunctionInfo,
    func: ast.Attribute,
    env: Dict[str, str],
) -> List[str]:
    # Fully-static chain (module.func, module.Class, Class.method)?
    resolved = _resolve_symbol_expr(graph, info, func)
    if resolved is not None:
        if resolved in graph.functions:
            return [resolved]
        if resolved in graph.classes:
            init = graph.resolve_method(resolved, "__init__")
            return [init] if init is not None else []
    # Instance call: walk the attribute chain from a typed root.
    chain: List[str] = []
    current: ast.expr = func
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    chain.reverse()
    owner: Optional[str] = None
    if isinstance(current, ast.Name):
        owner = env.get(current.id)
    elif isinstance(current, ast.Call):
        owner = _infer_expr_type(graph, info, current, env)
    if owner is None:
        return []
    # All chain elements but the last are attribute hops; the last is
    # the method name.
    for attr in chain[:-1]:
        owner = _attr_type_in_mro(graph, owner, attr)
        if owner is None:
            return []
    method = graph.resolve_method(owner, chain[-1])
    return [method] if method is not None else []


def _resolve_function_ref(
    graph: CallGraph,
    info: ModuleInfo,
    fn: FunctionInfo,
    node: ast.expr,
    env: Dict[str, str],
) -> Optional[str]:
    """A bare function reference (callback argument), if resolvable."""
    if isinstance(node, ast.Name):
        nested = f"{fn.qname}.{node.id}"
        if nested in graph.functions:
            return nested
        local_fn = f"{info.name}.{node.id}"
        if local_fn in graph.functions:
            return local_fn
        if node.id in info.imports:
            resolved = _resolve_qname(graph, info.imports[node.id], 1)
            if resolved is not None and resolved in graph.functions:
                return resolved
        return None
    if isinstance(node, ast.Attribute):
        resolved = _resolve_symbol_expr(graph, info, node)
        if resolved is not None and resolved in graph.functions:
            return resolved
        # Bound-method reference: self._complete, link.send, ...
        if isinstance(node.value, ast.Name):
            owner = env.get(node.value.id)
            if owner is not None:
                return graph.resolve_method(owner, node.attr)
    return None


def _invert(edges: Dict[str, Tuple[str, ...]]) -> Dict[str, Tuple[str, ...]]:
    acc: Dict[str, List[str]] = {}
    for caller, callees in edges.items():
        for callee in callees:
            acc.setdefault(callee, []).append(caller)
    return {k: tuple(sorted(v)) for k, v in acc.items()}
