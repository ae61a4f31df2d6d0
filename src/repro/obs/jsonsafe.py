"""Strict JSON: the rule for non-finite floats, and a sanitiser.

Python's ``json.dumps`` happily writes ``NaN`` / ``Infinity`` tokens —
which are *not* JSON: ``json.loads(..., parse_constant=reject)`` and
every non-Python consumer refuses them.  :func:`finite_or_none` is the
one rule: a non-finite float is written as ``null``.  Payloads built
slot by slot (served answers, profiles) apply it where each float is
written, then one plain ``json.dumps(..., allow_nan=False)`` fails
loudly on a leak instead of scrubbing it.

For values of unknown shape, :func:`json_safe` applies the same rule,
flattens tuples/sets to lists, unwraps numpy scalars without importing
numpy, and stringifies non-primitive dict keys (group-key tuples).
:func:`dumps` is the drop-in serialiser: sanitise, then
``json.dumps(..., allow_nan=False)``.
"""

from __future__ import annotations

import json
import math
from typing import Any


def finite_or_none(value: Any) -> Any:
    """``value``, or ``None`` when it is a non-finite float."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_safe(value: Any) -> Any:
    """A copy of ``value`` that serialises to strict (finite) JSON."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, float):  # covers numpy.float64 (a float subclass)
        return finite_or_none(value)
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        return {
            k if isinstance(k, str) else str(k): json_safe(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        if len(value) >= _SCAN_MIN_ITEMS and _plain_scalars(value):
            return list(value)
        return [json_safe(item) for item in value]
    item = getattr(value, "item", None)  # numpy scalars, zero-d arrays
    if callable(item):
        try:
            return json_safe(item())
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)  # numpy arrays
    if callable(tolist):
        return json_safe(tolist())
    return str(value)


_SCALARS = frozenset((str, int, float, bool, type(None)))

#: Containers shorter than this (an answer's key or its estimates) are
#: walked: for them the type scan costs more than it saves.
_SCAN_MIN_ITEMS = 16


def _plain_scalars(items: Any) -> bool:
    """Whether ``json_safe`` would return every item unchanged.

    True when each item is exactly a ``str``, ``int``, ``bool``, ``None``
    or finite ``float`` — what a column of values on the wire is — so a
    container of them is copied whole instead of walked item by item.
    """
    types = set(map(type, items))
    if not types <= _SCALARS:
        return False
    return float not in types or all(
        math.isfinite(item) for item in items if type(item) is float
    )


def dumps(value: Any, **kwargs: Any) -> str:
    """``json.dumps`` of the sanitised value; never emits NaN/Infinity."""
    kwargs.setdefault("allow_nan", False)
    return json.dumps(json_safe(value), **kwargs)


__all__ = ["dumps", "finite_or_none", "json_safe"]
