"""Deterministic text serialization helpers: the package's one file
boundary.

Every file the package reads or writes goes through these so that
reruns with identical inputs produce byte-identical outputs: text
tables with floats in their shortest round-trip form (repr), strict
JSON (no NaN or infinity) with sorted keys and a trailing newline. The
option coercers read plain values (flag text or JSON) back under the
same rules.
"""

import hashlib
import json
import math

import numpy as np

from .errors import NumericalError, ParseError


def format_float(x):
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(x))


def write_table(path, header, rows, sep=","):
    """Write a text table: the header line (none when header is None),
    then one line per row of cells joined by sep.

    Each cell is written with str, so rows should hold Python scalars
    (ndarray.tolist()): str of a Python float is format_float's form.
    """
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(sep.join(map(str, row)) + "\n" for row in rows)


def read_table(path, header, width, sep=",", comment=None):
    """Yield (lineno, fields) for each data line of a text table.

    The first line must be header unless header is None. Blank lines,
    and lines starting with comment when it is given, are skipped. A
    data line without exactly width fields raises ParseError naming
    path:line.
    """
    with open(path) as fh:
        if header is not None and fh.readline().strip() != header:
            raise ParseError("%s:1: missing header %r" % (path, header))
        for lineno, raw in enumerate(fh, start=1 if header is None else 2):
            line = raw.strip()
            if not line or (comment and line.startswith(comment)):
                continue
            fields = line.split(sep)
            if len(fields) != width:
                raise ParseError("%s:%d: expected %d fields, got %d"
                                 % (path, lineno, width, len(fields)))
            yield lineno, fields


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


def finite_float(value):
    """A finite float from a number or a decimal string; a bool, NaN or
    infinity raises ValueError."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError("not a finite number: %r" % (value,))
    return number


def integer(value):
    """An int from an int, an integral float (12.0, 1e3) or a decimal
    string; a bool or a fraction raises ValueError, never truncated."""
    digits = value.strip().lstrip("+-") if isinstance(value, str) else ""
    if type(value) is int or digits.isdecimal():
        return int(value)
    number = finite_float(value)
    if not number.is_integer():
        raise ValueError("not an integer: %r" % (value,))
    return int(number)


def non_negative_integer(value):
    """An integer, read as integer reads it, that is at least 0: a seed."""
    number = integer(value)
    if number < 0:
        raise ValueError("not a non-negative integer: %r" % (value,))
    return number


def path_str(value):
    """A file path, which a config file must give as a string."""
    if not isinstance(value, str):
        raise ValueError("not a path: %r" % (value,))
    return value


def tuple_of(item):
    """A coercer of a list or a comma-separated string to a non-empty
    tuple of item(v) values."""

    def coerce(value):
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok.strip()]
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError("not a non-empty list: %r" % (value,))
        return tuple(item(v) for v in value)

    coerce.__name__ = "%s list" % item.__name__
    return coerce


def resolve_options(options, values):
    """Each option of a name -> (kind, default, help) table, coerced by
    its kind from values or else its default. A choice tuple passes the
    value through for its holder to check; None stays where the default
    is None. A malformed value raises ValueError naming its option."""
    out = {}
    for name, (kind, default, _) in options.items():
        value = values.get(name, default)
        if isinstance(kind, tuple) or (value is None and default is None):
            out[name] = value
            continue
        try:
            out[name] = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("invalid value for %s: %r" % (name, value)) from None
    return out
