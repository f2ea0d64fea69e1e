"""Experiment harness: result containers and ASCII table rendering.

Every experiment module exposes a ``run_*`` function returning a
:class:`ExperimentResult`; the benchmark suite calls it, asserts the
paper's qualitative claims, and prints the table/series so that
``pytest benchmarks/ --benchmark-only -s`` regenerates the paper's
evaluation outputs. EXPERIMENTS.md records paper-vs-measured values.

Results are losslessly JSON-serializable (:meth:`ExperimentResult.to_json`
/ :meth:`ExperimentResult.from_json`): the campaign runner's
content-addressed cache stores shard results on disk, and a cached
shard must be indistinguishable from a fresh one — including ``data``
payloads with tuple dict keys, tuple values, and dataclass instances.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Sentinel keys used by the JSON codec; a plain dict containing one of
#: these as a key is itself escaped through the pair encoding.
_TUPLE_KEY = "__tuple__"
_DICT_KEY = "__dict__"
_DATACLASS_KEY = "__dataclass__"
_SENTINELS = frozenset({_TUPLE_KEY, _DICT_KEY, _DATACLASS_KEY})


@dataclass
class ExperimentResult:
    """One experiment's rendered output plus machine-readable data."""

    experiment: str
    description: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Catch shape bugs at construction instead of letting render()'s
        # zip() silently truncate cells (a header-less result with rows
        # used to render as blank lines).
        if self.rows and not self.headers:
            raise ValueError(
                f"result {self.experiment!r} has {len(self.rows)} rows but "
                "no header columns"
            )
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise ValueError(
                    f"row {i} has {len(row)} cells, table has "
                    f"{len(self.headers)} columns"
                )

    def add_row(self, *values: Any) -> None:
        if not self.headers:
            raise ValueError(
                "cannot add a row to a result with no header columns"
            )
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        """ASCII rendering: title, table, notes."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.experiment} ==", self.description, ""]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, Any]:
        """Encode into a plain JSON-compatible dict (see :func:`encode_value`)."""
        return {
            "schema": "experiment-result/1",
            "experiment": self.experiment,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [[encode_value(cell) for cell in row] for row in self.rows],
            "notes": list(self.notes),
            "data": encode_value(self.data),
        }

    def to_json(self) -> str:
        """Lossless JSON serialization (stable key order → stable bytes)."""
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        schema = payload.get("schema")
        if schema != "experiment-result/1":
            raise ValueError(f"unknown ExperimentResult schema {schema!r}")
        return cls(
            experiment=payload["experiment"],
            description=payload["description"],
            headers=list(payload["headers"]),
            rows=[[decode_value(cell) for cell in row] for row in payload["rows"]],
            notes=list(payload["notes"]),
            data=decode_value(payload["data"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_payload(json.loads(text))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def encode_value(value: Any) -> Any:
    """Encode a result cell/data value into JSON-compatible primitives.

    Handles everything experiments actually put in ``data``: scalars,
    lists, tuples (tagged so they decode back as tuples), dicts with
    non-string keys (int keys, tuple keys — encoded as an ordered pair
    list), and dataclass instances (tagged with their import path).
    Anything else raises ``TypeError`` so a new unserializable payload
    fails loudly in tests rather than silently corrupting the cache.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):  # bool already handled above
        return value
    if isinstance(value, tuple):
        return {_TUPLE_KEY: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        plain = all(isinstance(k, str) for k in value) and not (
            _SENTINELS & set(value)
        )
        if plain:
            return {k: encode_value(v) for k, v in value.items()}
        return {
            _DICT_KEY: [[encode_value(k), encode_value(v)] for k, v in value.items()]
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            _DATACLASS_KEY: f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    raise TypeError(
        f"cannot losslessly serialize {type(value).__name__} value {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if _TUPLE_KEY in value:
            return tuple(decode_value(v) for v in value[_TUPLE_KEY])
        if _DICT_KEY in value:
            return {
                decode_value(k): decode_value(v) for k, v in value[_DICT_KEY]
            }
        if _DATACLASS_KEY in value:
            module_name, _, qualname = value[_DATACLASS_KEY].partition(":")
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            fields = {k: decode_value(v) for k, v in value["fields"].items()}
            return obj(**fields)
        return {k: decode_value(v) for k, v in value.items()}
    return value


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.4g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)
