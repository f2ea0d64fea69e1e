"""Rule registry and the built-in determinism/invariant checkers.

Every rule targets a failure mode that has actually bitten (or would
silently bite) this codebase's headline guarantees — bit-identical
campaign shards, byte-identical trace equivalence, and the exact
virtual-time tag arithmetic behind the paper's Theorem 1:

=========  ==============================================================
DET001     module-level / unseeded ``random`` or ``numpy.random`` use
           outside :mod:`repro.simulation.random`
DET002     wall-clock reads (:data:`WALL_CLOCK_CALLS`) outside
           ``benchmarks/`` / ``bench.py``
DET005     RNG seeds in ``repro.chaos``/``repro.faults`` not rooted in
           ``derive_seed`` (raw ``Random(...)``, literal stream seeds)
TAG001     float ``==``/``!=`` on virtual-time/tag expressions
PERF001    hot-path classes under ``repro.core``/``repro.simulation``
           without ``__slots__``
PERF002    direct ``heapq`` operations on the simulator event queue
           outside :mod:`repro.simulation.eventq` (the queue's home)
PERF003    per-call/per-iteration allocation and repeated attribute
           chains inside functions marked ``# lint: hot``
=========  ==============================================================

The whole-program rules (CACHE001, TAG002, DET006) live in
:mod:`repro.lint.rules_project`; they need the module graph, the call
graph, and the dataflow engine rather than a single file's AST.
DET006 owns every ordering hazard: unordered iteration or ``id()``
reaching a heap push, an event, a flow registration, a comparator's
result or a sort key. The wall-clock list and the benchmark exemption
defined here are shared by DET002, CACHE001 and DET006.

Adding a rule: subclass :class:`Rule`, set ``code``/``summary``, implement
``check``, and decorate with :func:`register` (see HACKING.md, "Static
analysis"). Rules receive a parsed :class:`ModuleContext` and yield
:class:`~repro.lint.findings.Finding` objects; suppression handling and
ordering are the engine's job, not the rule's.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.findings import Finding

__all__ = [
    "ModuleContext",
    "Rule",
    "RULES",
    "WALL_CLOCK_CALLS",
    "all_rule_codes",
    "in_benchmark_path",
    "register",
]


@dataclass
class ModuleContext:
    """One parsed module as seen by every rule."""

    path: str  #: display path (as given by the caller)
    source: str
    tree: ast.Module
    #: normalized forward-slash path used for path-scoped exemptions
    norm_path: str = field(init=False)

    def __post_init__(self) -> None:
        self.norm_path = self.path.replace("\\", "/")

    def is_seeded_rng_module(self) -> bool:
        """True for the one module allowed to touch ``random`` freely."""
        return self.norm_path.endswith("repro/simulation/random.py")

    def in_hot_path_package(self) -> bool:
        """True for modules under ``repro/core`` or ``repro/simulation``."""
        return (
            "repro/core/" in self.norm_path
            or "repro/simulation/" in self.norm_path
        )


class Rule:
    """Base class for lint rules."""

    code: str = ""
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module. Implemented by subclasses."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.code,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


#: Registry of rule code -> rule instance, in registration order.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (by its ``code``) to the registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def all_rule_codes() -> Tuple[str, ...]:
    """Every registered rule code, in registration order."""
    return tuple(RULES)


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


# ---------------------------------------------------------------------------
# DET001 — unseeded / module-level random
# ---------------------------------------------------------------------------


#: random.* attributes that are fine: seeded-generator construction.
_SEEDED_RNG_FACTORIES = {"Random", "SystemRandom"}


@register
class UnseededRandomRule(Rule):
    """Module-level ``random.*`` and any ``numpy.random`` use.

    Module-level ``random`` functions draw from the interpreter-global
    generator, whose state depends on import order and every other draw
    in the process — exactly what made ``--jobs N`` campaign shards
    diverge before :func:`repro.simulation.random.derive_seed`. Only
    explicit ``random.Random(seed)`` construction (ideally via
    :class:`repro.simulation.random.RandomStreams`) is allowed.
    """

    code = "DET001"
    summary = "unseeded/module-level RNG use outside repro.simulation.random"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_seeded_rng_module():
            return
        random_aliases: Set[str] = set()
        numpy_aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name in ("numpy", "numpy.random"):
                        numpy_aliases.add(
                            (alias.asname or alias.name).split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_RNG_FACTORIES:
                            yield self.finding(
                                ctx,
                                node,
                                f"`from random import {alias.name}` binds the "
                                "process-global generator; construct a seeded "
                                "random.Random (see repro.simulation.random)",
                            )
                elif node.module and node.module.split(".")[0] == "numpy":
                    if node.module.startswith("numpy.random") or any(
                        alias.name == "random" for alias in node.names
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "numpy.random has process-global state; draw from "
                            "a seeded stream (repro.simulation.random) instead",
                        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                root, _, rest = dotted.partition(".")
                if root in numpy_aliases and rest == "random":
                    yield self.finding(
                        ctx,
                        node,
                        f"`{dotted}` has process-global state; draw from a "
                        "seeded stream (repro.simulation.random) instead",
                    )
                elif (
                    root in random_aliases
                    and "." not in rest
                    and rest not in _SEEDED_RNG_FACTORIES
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"`{dotted}` uses the process-global generator; draw "
                        "from a seeded random.Random "
                        "(see repro.simulation.random)",
                    )


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads
# ---------------------------------------------------------------------------


#: Canonical dotted names of wall-clock reads (DET002, CACHE001, DET006).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def in_benchmark_path(norm_path: str) -> bool:
    """True for timing-harness files, exempt from wall-clock checks."""
    parts = norm_path.split("/")
    return "benchmarks" in parts or parts[-1] == "bench.py"


@register
class WallClockRule(Rule):
    """Wall-clock reads outside the benchmark harness.

    Simulation logic must depend only on virtual time (``sim.now``) and
    the experiment seed; a wall-clock read anywhere on a simulation path
    makes results machine- and load-dependent. Timing *harness* code
    (``benchmarks/``, ``bench.py``) is exempt by path; legitimate
    elapsed-time bookkeeping elsewhere (e.g. the campaign runner's shard
    timings) must carry an inline ``# lint: disable=DET002`` with a
    justification.
    """

    code = "DET002"
    summary = "wall-clock call outside benchmarks/ or bench.py"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if in_benchmark_path(ctx.norm_path):
            return
        # Local alias -> canonical dotted prefix.
        aliases: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime"):
                        aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = f"time.{alias.name}"
                elif node.module == "datetime":
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = (
                            f"datetime.{alias.name}"
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            root, _, rest = dotted.partition(".")
            canonical = aliases.get(root, root) + ("." + rest if rest else "")
            if canonical in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call `{dotted}` — simulation code must "
                    "depend only on sim.now and the seed (benchmarks/ and "
                    "bench.py are exempt)",
                )


# ---------------------------------------------------------------------------
# TAG001 — float equality on virtual-time/tag expressions
# ---------------------------------------------------------------------------


_TAG_WORDS = (
    "start_tag",
    "finish_tag",
    "last_finish",
    "virtual_time",
    "vtime",
    "v_time",
    "timestamp",
    "deadline",
    "eligible_at",
)


def _mentions_tag(node: ast.AST) -> Optional[str]:
    """The first tag-vocabulary identifier mentioned under ``node``."""
    for sub in ast.walk(node):
        name: Optional[str] = None
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Name):
            name = sub.id
        if name is None:
            continue
        lowered = name.lower()
        if lowered.endswith("_tag") or lowered in _TAG_WORDS:
            return name
    return None


@register
class TagFloatEqualityRule(Rule):
    """``==`` / ``!=`` between float tag expressions.

    Virtual-time tags are chained sums of ``l/r`` terms; two chains that
    are *mathematically* equal can differ in the last ulp, so ``==`` on
    tags silently becomes "computed by the identical expression", which
    breaks the moment anyone refactors the arithmetic. Compare exact
    copies only (and say so in a disable directive), or use an explicit
    epsilon/ordering check.
    """

    code = "TAG001"
    summary = "float ==/!= on a virtual-time/tag expression"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            sides = [node.left, *node.comparators]
            if any(_is_none(side) for side in sides):
                continue  # None sentinels are identity checks, not math
            for side in sides:
                mentioned = _mentions_tag(side)
                if mentioned is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"exact float equality on tag expression "
                        f"`{mentioned}`; tags are chained l/r sums — use an "
                        "ordering/epsilon check, or document why the values "
                        "are exact copies",
                    )
                    break


# ---------------------------------------------------------------------------
# PERF001 — hot-path classes without __slots__
# ---------------------------------------------------------------------------


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _dataclass_with_slots(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call):
            name = dotted_name(decorator.func)
            if name and name.split(".")[-1] == "dataclass":
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
    return False


def _is_exempt_base(base: ast.expr) -> bool:
    name = dotted_name(base)
    if name is None:
        return False
    leaf = name.split(".")[-1]
    return (
        leaf.endswith("Error")
        or leaf.endswith("Exception")
        or leaf in ("BaseException", "Enum", "IntEnum", "Protocol", "TypedDict", "NamedTuple")
    )


def _assigns_instance_attrs(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not stmt.args.args:
            continue
        self_name = stmt.args.args[0].arg
        for node in ast.walk(stmt):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    return True
    return False


@register
class HotPathSlotsRule(Rule):
    """Hot-path classes should declare ``__slots__``.

    Everything under ``repro.core`` and ``repro.simulation`` is
    instantiated or touched per packet/per event; ``__slots__`` removes
    the per-instance ``__dict__`` (smaller, faster attribute access) and
    turns attribute-name typos into hard errors instead of silent new
    state. Exception types, slotted dataclasses and attribute-less
    classes are exempt.
    """

    code = "PERF001"
    summary = "hot-path class without __slots__ (repro.core / repro.simulation)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_hot_path_package():
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _has_slots(node) or _dataclass_with_slots(node):
                continue
            if any(_is_exempt_base(base) for base in node.bases):
                continue
            if not _assigns_instance_attrs(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"class `{node.name}` lives on the per-packet hot path but "
                "has no __slots__; declare them (or justify the instance "
                "dict with a disable directive)",
            )


# ---------------------------------------------------------------------------
# DET005 — fault/chaos seed provenance
# ---------------------------------------------------------------------------


@register
class ChaosSeedProvenanceRule(Rule):
    """RNG seeds in fault-injection and chaos code must be *derived*.

    The chaos subsystem's whole contract is that a failing run is a pure
    function of one root seed: every stream a schedule, injector, or
    campaign shard draws from must be reachable from that root through
    :func:`repro.simulation.random.derive_seed` /
    :class:`~repro.simulation.random.RandomStreams`. A raw
    ``random.Random(...)`` (ad-hoc generator, untracked seed) or a
    ``RandomStreams(<literal>)`` (hard-coded root that silently decouples
    the component from the campaign's seed grid) breaks replay and
    shrinking in ways no test notices until an artifact fails to
    reproduce.
    """

    code = "DET005"
    summary = "fault/chaos RNG seed not rooted in derive_seed()"

    _SCOPES = ("repro/chaos/", "repro/faults/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not any(scope in ctx.norm_path for scope in self._SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "Random":
                yield self.finding(
                    ctx,
                    node,
                    f"raw `{name}(...)` in fault/chaos code; draw from "
                    "RandomStreams(derive_seed(...)).stream(name) so the "
                    "generator is reachable from the campaign's root seed",
                )
            elif leaf == "RandomStreams" and node.args:
                seed = node.args[0]
                if isinstance(seed, ast.Constant):
                    yield self.finding(
                        ctx,
                        node,
                        "RandomStreams() seeded with a literal; root the "
                        "seed in derive_seed(...) so replay and shrinking "
                        "can re-derive it",
                    )


# ---------------------------------------------------------------------------
# PERF002 — direct heapq surgery on the simulator event queue
# ---------------------------------------------------------------------------

#: heapq calls that mutate a heap in place (reads like ``nsmallest``
#: don't bypass the queue).
_HEAPQ_MUTATORS = frozenset(
    {"heappush", "heappop", "heapify", "heapreplace", "heappushpop"}
)


@register
class EventQueueSeamRule(Rule):
    """No direct ``heapq`` operations on the simulator event queue.

    The event queue lives in one module (:mod:`repro.simulation.eventq`),
    which also holds the inlined drain loop; that module is what the
    optional compiled build replaces. Code that reaches around the
    queue's ``push``/``pop``/``peek_live``/``drain`` and ``heappush``\\ es
    onto a simulator's storage directly couples itself to the queue's
    entry layout and bypasses the one place it is defined. Inside
    ``repro/simulation/`` every heap *is* (part of) the event queue, so
    any heapq mutation outside ``eventq.py`` is flagged; elsewhere only
    receivers that name the simulator or its event queue are flagged —
    schedulers' own internal heaps (flow-head heaps, GPS trackers,
    regulators) are fine.
    """

    code = "PERF002"
    summary = "direct heapq operation on the simulator event queue"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.norm_path.endswith("repro/simulation/eventq.py"):
            return  # the queue itself: the one home of the inlined heap ops
        module_aliases: Set[str] = set()
        func_aliases: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq":
                        module_aliases.add(alias.asname or "heapq")
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                for alias in node.names:
                    if alias.name in _HEAPQ_MUTATORS:
                        func_aliases[alias.asname or alias.name] = alias.name
        if not module_aliases and not func_aliases:
            return
        in_simulation = "repro/simulation/" in ctx.norm_path
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            op = self._heapq_mutator(node.func, module_aliases, func_aliases)
            if op is None:
                continue
            if in_simulation:
                yield self.finding(
                    ctx,
                    node,
                    f"`{op}` on the event queue outside repro.simulation."
                    "eventq; go through the queue's push/pop/peek_live/"
                    "drain so its entry layout stays in one module",
                )
            elif node.args and self._names_event_queue(node.args[0]):
                yield self.finding(
                    ctx,
                    node,
                    f"`{op}` reaches into a simulator's event queue from "
                    "outside repro.simulation.eventq; use the Simulator "
                    "scheduling API instead",
                )

    @staticmethod
    def _heapq_mutator(
        func: ast.expr,
        module_aliases: Set[str],
        func_aliases: Dict[str, str],
    ) -> Optional[str]:
        """The heapq mutator name a call invokes, if any."""
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
                and func.attr in _HEAPQ_MUTATORS
            ):
                return func.attr
        elif isinstance(func, ast.Name) and func.id in func_aliases:
            return func_aliases[func.id]
        return None

    @staticmethod
    def _names_event_queue(receiver: ast.expr) -> bool:
        """True when the heap receiver names a simulator's event queue.

        Heuristic on the dotted receiver path (``sim._heap``,
        ``self.sim._queue._heap``, ``event_heap``): any component that
        is ``sim``/``simulator`` or contains ``event``. Scheduler-
        internal heaps (``self._head_heap``, ``self._gsq_heap``, local
        ``heap`` variables) never match.
        """
        name = dotted_name(receiver)
        if name is None:
            return False
        for part in name.lower().split("."):
            bare = part.strip("_")
            if bare in ("sim", "simulator") or "event" in bare:
                return True
        return False


# ---------------------------------------------------------------------------
# PERF003 — allocations / uncached attribute chains in `# lint: hot` functions
# ---------------------------------------------------------------------------


_HOT_RE = re.compile(r"#\s*lint:\s*hot\b")

#: Builtin constructors that allocate a fresh container per call.
_ALLOCATING_BUILTINS = frozenset({"list", "dict", "set", "tuple"})


def hot_function_lines(source: str) -> FrozenSet[int]:
    """1-based line numbers carrying a ``# lint: hot`` marker."""
    return frozenset(
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if "lint:" in text and _HOT_RE.search(text)
    )


@register
class HotFunctionAllocationRule(Rule):
    """Per-iteration allocation in functions marked ``# lint: hot``.

    The drain loops (`eventq`), the ``Link`` busy-period completion
    chain, and the PIFO engine's enqueue/dequeue are the measured inner
    loops of every benchmark: a list comprehension or a ``{...}``
    display there is a per-event allocation, and an attribute chain
    re-read every iteration is a dict lookup CPython will not hoist.
    Mark such functions with ``# lint: hot`` on (or directly above) the
    ``def`` line; the marker is also what seeds PERF003's scope — cold
    code is free to allocate.
    """

    code = "PERF003"
    summary = "allocation or repeated attribute chain in a `# lint: hot` function"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        hot_lines = hot_function_lines(ctx.source)
        if not hot_lines:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and self._is_hot(node, hot_lines):
                yield from self._check_hot(ctx, node)

    @staticmethod
    def _is_hot(
        node: ast.AST, hot_lines: FrozenSet[int]
    ) -> bool:
        """Marker on the ``def`` line, a decorator line, or just above."""
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        first = min(
            [node.lineno] + [dec.lineno for dec in node.decorator_list]
        )
        return any(
            line in hot_lines for line in range(first - 1, node.lineno + 1)
        )

    def _check_hot(
        self, ctx: ModuleContext, fn: ast.AST
    ) -> Iterator[Finding]:
        assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        # Comprehensions allocate wherever they appear in a hot body.
        kinds = {
            ast.ListComp: "list comprehension",
            ast.SetComp: "set comprehension",
            ast.DictComp: "dict comprehension",
            ast.GeneratorExp: "generator expression",
        }
        for node in ast.walk(fn):
            kind = kinds.get(type(node))
            if kind is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} allocates on every call of hot function "
                    f"`{fn.name}`; hoist it out of the hot path or build "
                    "into a reused buffer",
                )
        # Displays / allocating constructors / lambdas *inside loops*.
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            yield from self._check_loop(ctx, fn.name, loop)

    def _check_loop(
        self, ctx: ModuleContext, fn_name: str, loop: ast.stmt
    ) -> Iterator[Finding]:
        body = getattr(loop, "body", []) + getattr(loop, "orelse", [])
        chains: Dict[str, List[ast.Attribute]] = {}
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    continue  # nested loops report themselves
                if isinstance(node, (ast.List, ast.Dict, ast.Set)) and (
                    getattr(node, "elts", None) or getattr(node, "keys", None)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"container display allocates every iteration of a "
                        f"loop in hot function `{fn_name}`",
                    )
                elif isinstance(node, ast.Lambda):
                    yield self.finding(
                        ctx,
                        node,
                        f"lambda allocates a closure every iteration of a "
                        f"loop in hot function `{fn_name}`; define it once "
                        "outside the loop",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ALLOCATING_BUILTINS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"`{node.func.id}(...)` allocates every iteration of "
                        f"a loop in hot function `{fn_name}`",
                    )
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Attribute)
                ):
                    dotted = dotted_name(node)
                    if dotted is not None:
                        chains.setdefault(dotted, []).append(node)
        for dotted, nodes in sorted(chains.items()):
            # Skip chains that are a prefix of a longer recorded chain
            # (reported once, at full length).
            if any(
                other != dotted and other.startswith(dotted + ".")
                for other in chains
            ):
                continue
            if len(nodes) >= 2:
                yield self.finding(
                    ctx,
                    nodes[0],
                    f"attribute chain `{dotted}` is re-read {len(nodes)}x "
                    f"inside a loop in hot function `{fn_name}`; bind it to "
                    "a local before the loop",
                )
