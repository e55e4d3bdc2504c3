"""Deterministic text serialization helpers.

Every file the package writes goes through these so that reruns with
identical inputs produce byte-identical outputs: floats via repr
(shortest round-trip form), strict JSON (no NaN or infinity) with
sorted keys and a trailing newline.
"""

import hashlib
import json

import numpy as np

from .errors import NumericalError, ParseError


def format_float(x):
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def dump_json(obj, path):
    """Write strict JSON; a NaN or infinite value raises NumericalError."""
    try:
        text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError("cannot write %s: %s" % (path, exc)) from None
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(path):
    """Parsed JSON file; text that is not valid JSON raises ParseError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError("%s: invalid JSON: %s" % (path, exc)) from None


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
