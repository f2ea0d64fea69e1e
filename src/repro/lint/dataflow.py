"""Intra-procedural CFG + dataflow, and interprocedural taint summaries.

Three layers, each usable on its own:

**CFG** — :func:`build_cfg` turns a function body into a statement-level
control-flow graph: one node per simple statement, edges following
``if``/``while``/``for``/``try``/``break``/``continue``/``return``.
Loops get back edges; ``try`` bodies edge into their handlers from
every statement (a coarse but sound over-approximation).

**Forward may-analyses** — :func:`fixpoint` runs any monotone transfer
function over the CFG with pointwise set-union joins until stable.
:func:`reaching_definitions` (name → set of def line numbers) is the
classic instance and the one the TAG002 rule uses to connect
``start = max(v, last_finish)`` with the ``start + l/r`` expression
that re-derives a finish tag two lines later.

**Taint** — :class:`_TaintAnalysis` tracks a small label set through
one function (``wallclock`` from a :data:`~repro.lint.rules.WALL_CLOCK_CALLS`
read resolved through the module's imports, ``id`` from ``id()``,
``unordered`` from set/dict-view iteration — ``sorted(...)`` strips
it), and :func:`build_summaries` lifts that to the whole program over
the call graph: each function gets a summary (labels it returns, which
parameters flow to its return, which parameters reach a determinism
sink inside it), computed to fixpoint with a worklist seeded in
deterministic order. The DET006 rule then reads sink hits straight
from a final reporting pass.

Determinism sinks are the one set :data:`EVENT_SINKS` (heap
operations, event scheduling, packet hand-off and flow registration),
the shared tag helpers (:func:`repro.core.tagmath.start_finish` /
``eat_step``), and stores to tag attributes (``start_tag``,
``finish_tag``, ``virtual_time``, ``eligible_at``, ``deadline``).
``heapify`` over an unordered container counts as unordered
iteration. Ordering functions are sinks too: an ``id()`` value
returned from a comparator or sort-key function (by name, see
:func:`_is_tiebreak_name`) or from a ``key=`` lambda is reported.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import MODULE_BODY, CallGraph, FunctionInfo
from repro.lint.project import Project
from repro.lint.rules import WALL_CLOCK_CALLS, dotted_name, in_benchmark_path

__all__ = [
    "CFG",
    "CFGNode",
    "FunctionSummary",
    "SinkHit",
    "SummaryTable",
    "build_cfg",
    "build_summaries",
    "fixpoint",
    "reaching_definitions",
    "LABEL_WALLCLOCK",
    "LABEL_ID",
    "LABEL_UNORDERED",
]

LABEL_WALLCLOCK = "wallclock"
LABEL_ID = "id"
LABEL_UNORDERED = "unordered-iteration"

#: Latent label on unordered *containers*; becomes LABEL_UNORDERED only
#: when the container is iterated (a set is fine to hold, membership
#: tests are fine — only iteration order is nondeterministic).
LABEL_CONTAINER = "container:unordered"

#: Real taint labels (parameter pseudo-labels are ``param:<i>``).
_REAL_LABELS = frozenset({LABEL_WALLCLOCK, LABEL_ID, LABEL_UNORDERED})

#: Labels that survive into interprocedural summaries.
_SUMMARY_LABELS = _REAL_LABELS | {LABEL_CONTAINER}

#: Callee names whose arguments become part of the schedule: heap
#: operations, event scheduling, packet hand-off, flow registration.
EVENT_SINKS = frozenset(
    {
        "heappush",
        "heappop",
        "heapify",
        "heappushpop",
        "heapreplace",
        "push",
        "call_at",
        "call_after",
        "at",
        "after",
        "schedule",
        "enqueue",
        "dequeue",
        "send",
        "add_flow",
        "attach_flow",
        "assign_flow",
        "add_flow_with_deadline",
        "set_weight",
        "remove_flow",
    }
)

#: Attribute stores that define a scheduling tag.
TAG_ATTR_SINKS = frozenset(
    {"start_tag", "finish_tag", "virtual_time", "eligible_at", "deadline"}
)

#: Fully-qualified tag-computation helpers (tag math kernel).
TAG_HELPER_SUFFIXES = (".tagmath.start_finish", ".tagmath.eat_step")

#: Calls that impose an order and therefore strip ``unordered`` taint.
_ORDER_RESTORING = frozenset({"sorted", "min", "max", "sum", "len", "frozenset"})

#: Calls that produce hash-ordered iterables.
_UNORDERED_FACTORIES = frozenset({"set", "frozenset"})
_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})

_COMPARATOR_METHODS = frozenset(
    {"__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"}
)


def _is_unordered_iterable(node: ast.AST) -> bool:
    """Syntactic evidence that iterating ``node`` is hash/insertion-order.

    Detected: set displays and comprehensions, ``set()``/``frozenset()``
    calls, dict view calls (``.keys()``/``.values()``/``.items()``), set
    algebra on any of those, and ``list()``/``tuple()`` wrappers around
    them (wrapping does not impose an order — only ``sorted`` does).
    """
    if isinstance(node, (ast.Set, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_unordered_iterable(node.left) or _is_unordered_iterable(
            node.right
        )
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _UNORDERED_FACTORIES:
                return True
            if func.id in ("list", "tuple", "iter", "reversed") and node.args:
                return _is_unordered_iterable(node.args[0])
            return False
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEW_METHODS
            and not node.args
        ):
            return True
    return False


def _is_tiebreak_name(name: str) -> bool:
    """True for comparator dunders and sort-key/tie-break function names."""
    lowered = name.lower()
    return (
        name in _COMPARATOR_METHODS
        or "tie" in lowered
        or lowered == "key"
        or lowered.endswith("_key")
        or lowered.endswith("key_fn")
    )


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


class CFGNode:
    """One simple statement in the control-flow graph."""

    __slots__ = ("index", "stmt", "succs")

    def __init__(self, index: int, stmt: ast.stmt) -> None:
        self.index = index
        self.stmt = stmt
        self.succs: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CFGNode({self.index}, {type(self.stmt).__name__}, ->{self.succs})"


class CFG:
    """Statement-level CFG for one function body."""

    __slots__ = ("nodes", "entry_indices")

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry_indices: List[int] = []

    def add(self, stmt: ast.stmt) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt)
        self.nodes.append(node)
        return node

    def __len__(self) -> int:
        return len(self.nodes)


class _CFGBuilder:
    """Recursive-descent CFG construction with break/continue stacks."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self._break_targets: List[List[int]] = []
        self._continue_targets: List[List[int]] = []

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        first, exits = self._stmts(body)
        self.cfg.entry_indices = first
        return self.cfg

    # `_stmts` returns (entry node indices, dangling exit indices). An
    # edge from a dangling exit leads to whatever follows the sequence.
    def _stmts(self, body: Sequence[ast.stmt]) -> Tuple[List[int], List[int]]:
        entries: List[int] = []
        pending: List[int] = []
        started = False
        for stmt in body:
            s_entries, s_exits = self._stmt(stmt)
            if not s_entries:
                continue
            if not started:
                entries = s_entries
                started = True
            else:
                for exit_idx in pending:
                    self.cfg.nodes[exit_idx].succs.extend(s_entries)
            pending = s_exits
        return entries, pending

    def _stmt(self, stmt: ast.stmt) -> Tuple[List[int], List[int]]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            node = cfg.add(stmt)
            then_e, then_x = self._stmts(stmt.body)
            else_e, else_x = self._stmts(stmt.orelse)
            node.succs.extend(then_e if then_e else [])
            exits = list(then_x)
            if stmt.orelse:
                node.succs.extend(else_e)
                exits.extend(else_x)
            else:
                exits.append(node.index)
            if not then_e:
                exits.append(node.index)
            return [node.index], exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            node = cfg.add(stmt)
            self._break_targets.append([])
            self._continue_targets.append([])
            body_e, body_x = self._stmts(stmt.body)
            breaks = self._break_targets.pop()
            continues = self._continue_targets.pop()
            if body_e:
                node.succs.extend(body_e)
            for exit_idx in body_x + continues:
                cfg.nodes[exit_idx].succs.append(node.index)  # back edge
            else_e, else_x = self._stmts(stmt.orelse)
            exits = list(breaks)
            if stmt.orelse and else_e:
                node.succs.extend(else_e)
                exits.extend(else_x)
            else:
                exits.append(node.index)
            return [node.index], exits
        if isinstance(stmt, ast.Try):
            body_e, body_x = self._stmts(stmt.body)
            body_indices = self._collect_range(stmt.body)
            exits = list(body_x)
            entries = body_e
            for handler in stmt.handlers:
                h_e, h_x = self._stmts(handler.body)
                if h_e:
                    # Any body statement may raise into the handler.
                    for idx in body_indices:
                        cfg.nodes[idx].succs.extend(h_e)
                    if not entries:
                        entries = h_e
                    exits.extend(h_x)
            if stmt.orelse:
                o_e, o_x = self._stmts(stmt.orelse)
                if o_e:
                    for idx in body_x:
                        cfg.nodes[idx].succs.extend(o_e)
                    exits = [x for x in exits if x not in body_x] + o_x
            if stmt.finalbody:
                f_e, f_x = self._stmts(stmt.finalbody)
                if f_e:
                    for idx in exits:
                        cfg.nodes[idx].succs.extend(f_e)
                    exits = f_x
                    if not entries:
                        entries = f_e
            return entries, exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = cfg.add(stmt)
            body_e, body_x = self._stmts(stmt.body)
            if body_e:
                node.succs.extend(body_e)
                return [node.index], body_x
            return [node.index], [node.index]
        if isinstance(stmt, ast.Break):
            node = cfg.add(stmt)
            if self._break_targets:
                self._break_targets[-1].append(node.index)
            return [node.index], []
        if isinstance(stmt, ast.Continue):
            node = cfg.add(stmt)
            if self._continue_targets:
                self._continue_targets[-1].append(node.index)
            return [node.index], []
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = cfg.add(stmt)
            return [node.index], []  # no fallthrough
        # Simple statement (incl. nested def/class headers, which the
        # caller has already carved out of the analysis).
        node = cfg.add(stmt)
        return [node.index], [node.index]

    def _collect_range(self, body: Sequence[ast.stmt]) -> List[int]:
        """Indices of CFG nodes created for ``body`` (incl. nested)."""
        stmts = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.stmt):
                    stmts.add(id(sub))
        return [n.index for n in self.cfg.nodes if id(n.stmt) in stmts]


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Build a statement-level CFG for a function body."""
    return _CFGBuilder().build(body)


# ---------------------------------------------------------------------------
# Generic forward may-analysis
# ---------------------------------------------------------------------------

Env = Dict[str, FrozenSet[str]]


def _join(into: Env, other: Env) -> bool:
    """Pointwise union join; returns True when ``into`` changed."""
    changed = False
    for key, values in other.items():
        have = into.get(key)
        if have is None:
            into[key] = values
            changed = True
        elif not values <= have:
            into[key] = have | values
            changed = True
    return changed


def fixpoint(
    cfg: CFG,
    transfer: "TransferFn",
    entry_env: Optional[Env] = None,
) -> List[Env]:
    """Run a forward may-analysis to fixpoint; returns IN-env per node.

    ``transfer(node, env)`` must return the OUT environment for a node
    given its IN environment (and must not mutate its input).
    """
    n = len(cfg.nodes)
    in_envs: List[Env] = [{} for _ in range(n)]
    for idx in cfg.entry_indices:
        in_envs[idx] = dict(entry_env or {})
    worklist = list(cfg.entry_indices)
    iterations = 0
    limit = max(64, 16 * n * (n + 1))
    while worklist and iterations < limit:
        iterations += 1
        idx = worklist.pop(0)
        out = transfer(cfg.nodes[idx], dict(in_envs[idx]))
        for succ in cfg.nodes[idx].succs:
            if _join(in_envs[succ], out):
                if succ not in worklist:
                    worklist.append(succ)
    return in_envs


class TransferFn:
    """Protocol stand-in: any ``(CFGNode, Env) -> Env`` callable."""

    def __call__(self, node: CFGNode, env: Env) -> Env:  # pragma: no cover
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


def _assigned_names(stmt: ast.stmt) -> List[str]:
    """Names (re)bound by a statement, dotted for attribute stores."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars for item in stmt.items if item.optional_vars
        ]
    out: List[str] = []
    stack = list(targets)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif isinstance(target, ast.Name):
            out.append(target.id)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                out.append(dotted)
    return out


def reaching_definitions(cfg: CFG) -> List[Env]:
    """Name -> set of definition line numbers reaching each node."""

    def transfer(node: CFGNode, env: Env) -> Env:
        for name in _assigned_names(node.stmt):
            env[name] = frozenset({str(node.stmt.lineno)})
        return env

    return fixpoint(cfg, transfer)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Taint
# ---------------------------------------------------------------------------


class SinkHit:
    """One tainted value reaching a determinism sink."""

    __slots__ = ("labels", "sink", "node", "via")

    def __init__(
        self,
        labels: FrozenSet[str],
        sink: str,
        node: ast.AST,
        via: Optional[str] = None,
    ) -> None:
        self.labels = labels
        self.sink = sink
        self.node = node
        self.via = via  #: callee qname when the sink is inside a callee

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SinkHit({sorted(self.labels)}, {self.sink!r}, via={self.via!r})"


class FunctionSummary:
    """Interprocedural taint summary of one function."""

    __slots__ = ("qname", "returns", "param_to_return", "param_sinks")

    def __init__(self, qname: str) -> None:
        self.qname = qname
        self.returns: FrozenSet[str] = frozenset()
        self.param_to_return: FrozenSet[int] = frozenset()
        #: param index -> human-readable sink description inside.
        self.param_sinks: Dict[int, str] = {}

    def same_as(self, other: "FunctionSummary") -> bool:
        return (
            self.returns == other.returns
            and self.param_to_return == other.param_to_return
            and self.param_sinks == other.param_sinks
        )


class SummaryTable:
    """All function summaries plus per-function sink hits."""

    __slots__ = ("summaries", "graph")

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, FunctionSummary] = {}

    def get(self, qname: str) -> FunctionSummary:
        summary = self.summaries.get(qname)
        if summary is None:
            summary = FunctionSummary(qname)
            self.summaries[qname] = summary
        return summary

    def sink_hits(self, fn: FunctionInfo, *, wallclock_ok: bool = False) -> List[SinkHit]:
        """Reporting pass: tainted-value sink hits inside ``fn``."""
        analysis = _TaintAnalysis(self.graph, self, fn, wallclock_ok=wallclock_ok)
        analysis.run()
        return analysis.hits


def _param_label(index: int) -> str:
    return f"param:{index}"


def _is_param_label(label: str) -> bool:
    return label.startswith("param:")


class _TaintAnalysis:
    """One function's taint pass (used for summaries and reporting)."""

    def __init__(
        self,
        graph: CallGraph,
        table: SummaryTable,
        fn: FunctionInfo,
        wallclock_ok: bool = False,
    ) -> None:
        self.graph = graph
        self.table = table
        self.fn = fn
        self.wallclock_ok = wallclock_ok
        self.hits: List[SinkHit] = []
        self.return_taint: Set[str] = set()
        self.param_sinks: Dict[int, str] = {}
        self._param_index = {
            name: i for i, name in enumerate(fn.param_names)
        }
        #: Name of a comparator / sort-key function, whose result orders.
        self._ordering_name: Optional[str] = None
        if isinstance(
            fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and _is_tiebreak_name(fn.node.name):
            self._ordering_name = fn.node.name

    # -- body extraction (own statements only; nested defs excluded) --
    def _body(self) -> Sequence[ast.stmt]:
        node = self.fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.body
        if isinstance(node, ast.Module):
            return [
                stmt
                for stmt in node.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
        return []

    def run(self) -> None:
        body = self._body()
        if not body:
            return
        cfg = build_cfg(body)
        entry: Env = {
            name: frozenset({_param_label(i)})
            for name, i in self._param_index.items()
        }
        in_envs = fixpoint(cfg, self._transfer, entry)  # type: ignore[arg-type]
        # Final reporting pass with converged IN-envs.
        self.hits = []
        self.return_taint = set()
        self.param_sinks = {}
        for node, env in zip(cfg.nodes, in_envs):
            self._apply(node.stmt, dict(env), report=True)

    def _transfer(self, node: CFGNode, env: Env) -> Env:
        return self._apply(node.stmt, env, report=False)

    # -- statement transfer ------------------------------------------
    def _apply(self, stmt: ast.stmt, env: Env, report: bool) -> Env:
        if isinstance(stmt, ast.Assign):
            taint = self._expr(stmt.value, env, report)
            for name in _assigned_names(stmt):
                env[name] = taint
            self._check_attr_sinks(stmt.targets, taint, stmt, report)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            taint = self._expr(stmt.value, env, report)
            for name in _assigned_names(stmt):
                env[name] = taint
            self._check_attr_sinks([stmt.target], taint, stmt, report)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._expr(stmt.value, env, report)
            for name in _assigned_names(stmt):
                env[name] = env.get(name, frozenset()) | taint
            self._check_attr_sinks([stmt.target], taint, stmt, report)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._expr(stmt.iter, env, report)
            if _is_unordered_iterable(stmt.iter) or LABEL_CONTAINER in taint:
                taint = taint | {LABEL_UNORDERED}
            taint = taint - {LABEL_CONTAINER}
            for name in _assigned_names(stmt):
                env[name] = taint
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._expr(item.context_expr, env, report)
                if item.optional_vars is not None:
                    for name in _assigned_names(stmt):
                        env[name] = taint
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._expr(stmt.value, env, report)
                self.return_taint |= taint
                if report and self._ordering_name and LABEL_ID in taint:
                    self._record_sink(
                        frozenset({LABEL_ID}),
                        f"return of {self._ordering_name}",
                        stmt,
                    )
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, env, report)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test, env, report)
        elif isinstance(stmt, (ast.Assert, ast.Delete, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, env, report)
        return env

    def _check_attr_sinks(
        self,
        targets: Iterable[ast.expr],
        taint: FrozenSet[str],
        stmt: ast.stmt,
        report: bool,
    ) -> None:
        if not taint:
            return
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in TAG_ATTR_SINKS:
                sink = f"{target.attr} ="
                real = taint & _REAL_LABELS
                if report and real:
                    self._record_sink(real, sink, stmt)
                for label in taint:
                    if _is_param_label(label):
                        index = int(label.split(":", 1)[1])
                        self.param_sinks.setdefault(index, sink)

    # -- expression taint --------------------------------------------
    def _expr(self, node: ast.expr, env: Env, report: bool) -> FrozenSet[str]:
        taint = self._expr_inner(node, env, report)
        if _is_unordered_iterable(node):
            taint = taint | {LABEL_CONTAINER}
        return taint

    def _expr_inner(self, node: ast.expr, env: Env, report: bool) -> FrozenSet[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            acc: FrozenSet[str] = frozenset()
            if dotted is not None and dotted in env:
                acc = env[dotted]
            return acc | self._expr(node.value, env, report)
        if isinstance(node, ast.Call):
            return self._call(node, env, report)
        if isinstance(node, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            acc = frozenset()
            for gen in node.generators:
                iter_taint = self._expr(gen.iter, env, report)
                if _is_unordered_iterable(gen.iter) or LABEL_CONTAINER in iter_taint:
                    iter_taint = iter_taint | {LABEL_UNORDERED}
                acc |= iter_taint - {LABEL_CONTAINER}
            return acc
        acc = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                acc |= self._expr(child, env, report)
        return acc

    def _call(self, node: ast.Call, env: Env, report: bool) -> FrozenSet[str]:
        func = node.func
        func_name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        arg_taints = [self._expr(arg, env, report) for arg in node.args]
        if func_name == "heapify" and arg_taints and LABEL_CONTAINER in arg_taints[0]:
            # heapify iterates its argument to lay out the heap.
            arg_taints[0] = arg_taints[0] | {LABEL_UNORDERED}
        kw_taints = [self._expr(kw.value, env, report) for kw in node.keywords]
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Lambda):
                self._key_lambda(kw.value, env, report)
        all_args: FrozenSet[str] = frozenset()
        for taint in arg_taints + kw_taints:
            all_args |= taint
        targets = self.graph.call_targets.get(id(node), ())

        # Sources -----------------------------------------------------
        if isinstance(func, ast.Name) and func.id == "id" and not targets:
            return frozenset({LABEL_ID})
        if not self.wallclock_ok and self._is_wallclock(func):
            return frozenset({LABEL_WALLCLOCK})

        # Sinks -------------------------------------------------------
        is_tag_helper = any(
            t.endswith(TAG_HELPER_SUFFIXES) for t in targets
        )
        if report and all_args & _REAL_LABELS:
            if func_name in EVENT_SINKS:
                self._record_sink(all_args & _REAL_LABELS, f"{func_name}(...)", node)
            elif is_tag_helper:
                self._record_sink(
                    all_args & _REAL_LABELS, f"{func_name}(...) [tag math]", node
                )
        # Param pseudo-labels reaching a local sink become summary rows.
        if func_name in EVENT_SINKS or is_tag_helper:
            for label in all_args:
                if _is_param_label(label):
                    index = int(label.split(":", 1)[1])
                    self.param_sinks.setdefault(index, f"{func_name}(...)")

        # Callee summaries -------------------------------------------
        result: FrozenSet[str] = frozenset()
        for target in targets:
            summary = self.table.summaries.get(target)
            if summary is None:
                continue
            result |= summary.returns
            # Align call-site arguments with the callee's parameter
            # indices: bound method / constructor calls implicitly pass
            # the receiver (or fresh object) as param 0.
            callee = self.graph.functions.get(target)
            eff_args = arg_taints
            if (
                callee is not None
                and callee.class_qname is not None
                and callee.param_names[:1] in (("self",), ("cls",))
            ):
                receiver_taint: FrozenSet[str] = frozenset()
                if isinstance(func, ast.Attribute):
                    receiver_taint = self._expr(func.value, env, report)
                eff_args = [receiver_taint] + arg_taints
            for index in summary.param_to_return:
                if index < len(eff_args):
                    result |= eff_args[index]
            for index, sink_desc in sorted(summary.param_sinks.items()):
                if index >= len(eff_args):
                    continue
                taint = eff_args[index]
                real = taint & _REAL_LABELS
                if report and real:
                    self._record_sink(
                        real,
                        sink_desc,
                        node,
                        via=target,
                    )
                for label in taint:
                    if _is_param_label(label):
                        own = int(label.split(":", 1)[1])
                        self.param_sinks.setdefault(
                            own, f"{sink_desc} [via {_short(target)}]"
                        )
        if targets:
            # Resolved calls: only summary-declared flows propagate,
            # plus args feeding through unknown positions is dropped —
            # the callee was analyzed, so trust its summary.
            return result
        # Unresolved call: conservatively pass argument taint through,
        # except order-restoring builtins which launder `unordered`.
        if func_name in _ORDER_RESTORING:
            all_args = all_args - {LABEL_UNORDERED, LABEL_CONTAINER}
        receiver: FrozenSet[str] = frozenset()
        if isinstance(func, ast.Attribute):
            receiver = self._expr(func.value, env, report)
        return all_args | receiver

    def _key_lambda(self, lam: ast.Lambda, env: Env, report: bool) -> None:
        """Report an ``id()`` value returned from a ``key=`` lambda."""
        params = {arg.arg for arg in lam.args.args}
        inner = {name: taint for name, taint in env.items() if name not in params}
        taint = self._expr(lam.body, inner, report)
        if report and LABEL_ID in taint:
            self._record_sink(frozenset({LABEL_ID}), "key= lambda", lam)

    def _record_sink(
        self,
        labels: FrozenSet[str],
        sink: str,
        node: ast.AST,
        via: Optional[str] = None,
    ) -> None:
        self.hits.append(SinkHit(frozenset(labels), sink, node, via=via))

    def _is_wallclock(self, func: ast.expr) -> bool:
        return self.fn.module.canonical_name(func) in WALL_CLOCK_CALLS


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname


# ---------------------------------------------------------------------------
# Whole-program summary fixpoint
# ---------------------------------------------------------------------------


def build_summaries(project: Project) -> SummaryTable:
    """Compute every function's taint summary to fixpoint.

    Deterministic: functions are processed in sorted-qname order, and
    the worklist re-queues callers of any function whose summary
    changed. Monotone summaries over finite label sets guarantee
    termination.
    """
    graph = project.callgraph()
    table = SummaryTable(graph)
    order = sorted(
        q for q in graph.functions if not q.endswith(f".{MODULE_BODY}")
    )
    worklist: List[str] = list(order)
    enqueued: Set[str] = set(worklist)
    passes = 0
    budget = 16 * max(1, len(order))
    while worklist and passes < budget:
        passes += 1
        qname = worklist.pop(0)
        enqueued.discard(qname)
        fn = graph.functions[qname]
        analysis = _TaintAnalysis(
            graph, table, fn, wallclock_ok=in_benchmark_path(fn.module.norm_path)
        )
        analysis.run()
        fresh = FunctionSummary(qname)
        fresh.returns = frozenset(analysis.return_taint & _SUMMARY_LABELS)
        fresh.param_to_return = frozenset(
            int(label.split(":", 1)[1])
            for label in analysis.return_taint
            if _is_param_label(label)
        )
        fresh.param_sinks = dict(analysis.param_sinks)
        have = table.summaries.get(qname)
        if have is None or not have.same_as(fresh):
            table.summaries[qname] = fresh
            for caller in graph.callers.get(qname, ()):
                if caller not in enqueued and not caller.endswith(
                    f".{MODULE_BODY}"
                ):
                    worklist.append(caller)
                    enqueued.add(caller)
    return table
