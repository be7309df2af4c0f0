"""JSON encoding of instances and reports with bit-exact round-trips.

Rationals are encoded as bare integers when integral and as "p/q" strings
otherwise.  ``dumps_canonical`` fixes key order and separators, so
serialize(parse(serialize(x))) is byte-identical to serialize(x).
"""

from __future__ import annotations

import json

from .constraints import family_from_json
from .errors import CorelectError
from .exactnum import parse_rational, rational_to_json
from .model import (
    AdditiveUtility,
    ApprovalUtility,
    CoverageUtility,
    Instance,
    LB00Utility,
    TableUtility,
    UtilityFunction,
    XOSUtility,
)


class FormatError(CorelectError):
    """Malformed instance or report JSON."""


# every utility kind by its JSON "kind"; the other keys of its object
# are its constructor's parameter names
UTILITY_KINDS = {
    cls.kind: cls
    for cls in (
        ApprovalUtility, AdditiveUtility, CoverageUtility, XOSUtility, TableUtility, LB00Utility
    )
}


def utility_from_json(obj: dict) -> UtilityFunction:
    if not isinstance(obj, dict):
        raise FormatError(f"a utility must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    try:
        cls = UTILITY_KINDS.get(kind)
        if cls is not None:
            return cls.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad utility object of kind {kind!r}: {exc}") from exc
    raise FormatError(f"unknown utility kind {kind!r}")


def instance_to_json(instance: Instance) -> dict:
    out = {
        "n": instance.n,
        "candidates": list(instance.candidates),
        "utilities": [u.to_json() for u in instance.utilities],
    }
    if instance.is_k_mode:
        out["k"] = instance.k
        out["constraint"] = instance.feasibility.to_json()
    else:
        out["sizes"] = [[c, rational_to_json(instance.sizes[c])] for c in sorted(instance.sizes)]
        out["budget"] = rational_to_json(instance.budget)
    return out


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise FormatError("instance JSON must be an object")
    try:
        candidates = obj["candidates"]
        utilities = [utility_from_json(u) for u in obj["utilities"]]
        declared_n = int(obj["n"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing required instance field: {exc}") from exc
    if declared_n != len(utilities):
        raise FormatError("field n disagrees with the number of utilities")
    has_k = "k" in obj
    has_budget = "sizes" in obj or "budget" in obj
    if has_k == has_budget:
        raise FormatError('exactly one of "k" and {"sizes", "budget"} must be present')
    if has_k:
        constraint = obj.get("constraint", {"kind": "cardinality"})
        if not isinstance(constraint, dict):
            raise FormatError(f"a constraint must be a JSON object, got {constraint!r}")
        try:
            k = int(obj["k"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad instance fields: {exc}") from exc
        try:
            family = family_from_json(constraint, k)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad constraint object: {exc}") from exc
        fields = {"k": k, "feasibility": family}
    else:
        try:
            sizes = {c: parse_rational(s) for c, s in obj["sizes"]}
            budget = parse_rational(obj["budget"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad budget-mode fields: {exc}") from exc
        fields = {"sizes": sizes, "budget": budget}
    try:
        if has_k:
            family.bind(candidates)
        return Instance(candidates=candidates, utilities=utilities, validate="trust", **fields)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad instance fields: {exc}") from exc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return instance_from_json(obj)


def save_instance(instance: Instance, path):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(instance_to_json(instance)))
