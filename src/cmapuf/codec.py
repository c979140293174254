"""The one JSON form of every config, spec, chip, report and manifest, and the CSV writer.

A dataclass's fields are its schema.  ``to_json`` writes them by name,
enums by value, tuples and arrays as lists; ``from_json`` reads them back,
converting each value by its field's annotated type, and then the type's
own checks run.  A missing or null field, or a value of the wrong JSON
kind, raises a ``ValueError`` naming the type and the field; extra keys
are ignored.  ``write_json`` is the one file format; it refuses NaN and ±inf,
and ``read_json`` the tokens that would spell them.
``write_csv`` writes every CSV table, a dataset's included: a header, then
rows of Python scalars, so a float prints as its ``repr``.
``check_range`` is the one range check; NaN and ±inf break any range, and so
does a non-integer where integers are asked for.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

_JSON_NAMES = {float: "number", int: "integer", str: "string", list: "list", dict: "object"}


def to_json(obj: Any) -> Any:
    """The JSON-ready form of ``obj``, recursing into fields and containers."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {to_json(k): to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(x) for x in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def from_json(tp: Any, doc: Any, where: str = "") -> Any:
    """Rebuild a ``tp`` from its ``to_json`` form; ``where`` names the value in errors."""
    where = where or tp.__name__
    if dataclasses.is_dataclass(tp):
        hints, doc = typing.get_type_hints(tp), _kind(dict, doc, where)
        values = {}
        for f in dataclasses.fields(tp):
            if doc.get(f.name) is None:
                raise ValueError(f"{tp.__name__} has no {f.name!r} field")
            values[f.name] = from_json(hints[f.name], doc[f.name], f"{tp.__name__}.{f.name}")
        return tp(**values)
    if isinstance(tp, type) and issubclass(tp, Enum):
        if doc not in [m.value for m in tp]:
            raise ValueError(f"{where} must be one of {[m.value for m in tp]}, got {doc!r}")
        return tp(doc)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # tuple[X, ...] or tuple[X, X, ...]; the type checks the length
        items = _kind(list, doc, where)
        return tuple(from_json(args[0], x, f"{where}[{i}]") for i, x in enumerate(items))
    if origin is dict:
        return {
            from_json(args[0], k, where): from_json(args[1], v, f"{where}[{k!r}]")
            for k, v in _kind(dict, doc, where).items()
        }
    if tp is np.ndarray:
        return np.asarray(_kind(list, doc, where), dtype=float)
    return tp(_kind(tp, doc, where))


def _kind(tp: type, doc: Any, where: str) -> Any:
    """``doc`` if it is a JSON value of type ``tp``; a number is a float, a bool is neither."""
    if isinstance(doc, bool) or not isinstance(doc, (int, float) if tp is float else tp):
        raise ValueError(f"{where} must be a JSON {_JSON_NAMES[tp]}, got {doc!r}")
    return doc


def check_range(name: str, values: Any, lo: Any = -math.inf, hi: Any = math.inf, *,
                open_lo: bool = False, rule: str | Callable[[int], str] | None = None,
                integer: bool = False) -> None:
    """Refuse values outside [lo, hi], or (lo, hi] if ``open_lo``; NaN and ±inf always.

    Raises ``{name} must {rule}, got {v}`` for the first such element in C
    order.  The rule is ``be finite`` for a ±inf the bounds hold; else ``rule``,
    text or a function of the flat index; else ``be within [lo, hi]``, ``be > lo``,
    ``be >= lo`` or, with no bound, ``be finite``.  With ``integer``, a value that
    is not an integer, a bool included, is refused in its place in that order as
    ``be an integer``: a list or tuple is judged by its values' types, anything
    else by its dtype.  A bound may then also be a flat array, one per value.
    """
    if integer:
        values = values if isinstance(values, (list, tuple)) else np.asarray(values).reshape(-1)
        judged = values[:1] if isinstance(values, np.ndarray) else values  # an array by its dtype
        bad = next((i for i, v in enumerate(judged) if not np.issubdtype(type(v), np.integer)),
                   None)
        lo, hi = (b[:bad] if np.ndim(b) else b for b in (lo, hi))
        if bad != 0:  # the integers first; an empty bool prefix overflows past an int64 bound
            check_range(name, values[:bad], lo, hi, open_lo=open_lo, rule=rule)
        if bad is not None:
            raise ValueError(f"{name} must be an integer, got {values[bad]}")
        return
    v = np.asarray(values)
    inside = ((v > lo) if open_lo else (v >= lo)) & (v <= hi)  # NaN never is
    # an int is finite, and np.isfinite cannot read one past int64
    ok = inside & np.isfinite(v) if v.dtype.kind == "f" else inside
    if not ok.all():
        i = int(np.argmax(~ok.reshape(-1)))
        if inside.flat[i]:
            rule = "be finite"
        elif callable(rule):
            rule = rule(i)
        elif rule is None:
            rule = f"be {'>' if open_lo else '>='} {lo}" if lo > -math.inf else "be finite"
            rule = f"be within [{lo}, {hi}]" if hi < math.inf else rule
        raise ValueError(f"{name} must {rule}, got {v.item(i)}")


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``to_json(obj)`` with sorted keys and a two-space indent; a NaN or ±inf
    raises naming ``path``, and no file is written."""
    try:
        text = json.dumps(to_json(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and then ``rows`` as CSV lines ending in ``\\n``.

    A value prints as ``str`` does, so a Python float, as ``.tolist()`` gives
    it, prints as its ``repr``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _finite(token: str) -> float:
    """A JSON number or constant token as a float; NaN and ±inf raise."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def read_json(path: str | Path, tp: Any) -> Any:
    """Read a ``tp`` written by ``write_json``; an error names the file.

    The ``NaN``, ``Infinity`` and ``-Infinity`` tokens, which ``write_json``
    never writes, are refused, and so is a number too large for a float.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
        return from_json(tp, doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
