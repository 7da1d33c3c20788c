"""Parameter files and ``key=value`` override handling for the CLI.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment
(whole-line or trailing), blank lines ignored.  Values are SI-suffixed
numbers (``10n``, ``2meg``, ``1e-3``), booleans and bare strings.  Keys
may carry a dotted scope prefix (``mos.l = 10n``); unscoped keys go to
the subcommand's primary scope.

The number grammar and the value coercion here are also what netlist
``.model`` cards use, so a parameter reads the same on a card and on
the command line.
"""

from __future__ import annotations

import dataclasses
import math
import re
import types
import typing

__all__ = ["ParamError", "load_params", "parse_assignments", "split_scopes",
           "apply_params", "coerce_field", "coerce_value", "parse_number"]

_SUFFIX = {"f": "e-15", "p": "e-12", "n": "e-9", "u": "e-6", "m": "e-3",
           "k": "e3", "meg": "e6", "g": "e9"}
_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(e[+-]?\d+)?(meg|[fpnumkg])?$")

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


class ParamError(ValueError):
    """Malformed parameter file, override, or unknown/ill-typed key."""


def parse_number(token: str) -> float:
    """Number with an optional engineering suffix f p n u m k meg g; one
    that overflows a float raises ParamError."""
    m = _NUMBER_RE.match(token.lower())
    if not m:
        raise ValueError(f"malformed number '{token}'")
    mantissa, exp, suffix = m.groups()
    # splice a suffix without an exponent in as one, for an exact parse
    value = float(mantissa + (exp or _SUFFIX.get(suffix, "")))
    if suffix and exp:
        value *= float("1" + _SUFFIX[suffix])
    if not math.isfinite(value):
        raise ParamError(f"number '{token}' is not finite")
    return value


def _parse_line(line: str, where: str) -> tuple[str, str] | None:
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    if "=" not in text:
        raise ParamError(f"{where}: expected key=value, got {text!r}")
    key, _, raw = text.partition("=")
    key, raw = key.strip(), raw.strip()
    if not key or not raw:
        raise ParamError(f"{where}: empty key or value in {text!r}")
    return key, raw


def load_params(path) -> dict:
    """Read a parameter file into an ordered {key: raw-string} mapping."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            pair = _parse_line(line, f"{path}:{lineno}")
            if pair:
                out[pair[0]] = pair[1]
    return out


def parse_assignments(pairs) -> dict:
    """Parse repeated ``--set key=value`` strings (later wins)."""
    out: dict[str, str] = {}
    for item in pairs or ():
        pair = _parse_line(item, f"--set {item!r}")
        if pair is None:
            raise ParamError(f"--set {item!r}: empty assignment")
        out[pair[0]] = pair[1]
    return out


def split_scopes(mapping: dict, scopes) -> dict:
    """Split dotted keys into per-scope mappings; unscoped keys land in ''."""
    out: dict[str, dict] = {"": {}}
    out.update({s: {} for s in scopes})
    for key, raw in mapping.items():
        scope, dot, rest = key.partition(".")
        if dot and scope in out:
            out[scope][rest] = raw
        elif dot:
            raise ParamError(f"unknown parameter scope {scope!r} in {key!r} "
                             f"(expected one of {sorted(s for s in scopes)})")
        else:
            out[""][key] = raw
    return out


def coerce_value(raw: str, pytype):
    """Coerce a raw string to the dataclass field's annotated type."""
    if pytype is bool:
        word = raw.lower()
        if word not in _BOOL_WORDS:
            raise ParamError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if pytype is int:
        num = parse_number(raw)
        if not num.is_integer():
            raise ParamError(f"expected an integer, got {raw!r}")
        return int(num)
    if pytype is float:
        return float(parse_number(raw))
    if pytype is str:
        return raw
    if pytype is tuple or typing.get_origin(pytype) is tuple:
        args = [a for a in typing.get_args(pytype) if a is not Ellipsis]
        elem = args[0] if args else float
        return tuple(coerce_value(part.strip(), elem)
                     for part in raw.split(",") if part.strip())
    raise ParamError(f"unsupported parameter type {pytype!r}")


def coerce_field(cls, key: str, raw: str):
    """Coerce one raw string for init field ``key`` of dataclass ``cls``."""
    fields = {f.name for f in dataclasses.fields(cls) if f.init}
    if key not in fields:
        raise ParamError(f"{cls.__name__} has no parameter {key!r} "
                         f"(known: {', '.join(sorted(fields))})")
    pytype = typing.get_type_hints(cls).get(key, float)
    origin = typing.get_origin(pytype)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        args = [a for a in typing.get_args(pytype) if a is not type(None)]
        pytype = args[0] if args else float
    try:
        return coerce_value(raw, pytype)
    except (ValueError, TypeError) as exc:
        raise ParamError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def apply_params(obj, mapping: dict):
    """Return a dataclass copy with string-valued overrides applied.

    Only init fields are parameters; unknown keys and uncoercible values
    raise ParamError.  Derived (``init=False``) fields are recomputed by
    the class's own __post_init__ (dataclasses.replace).
    """
    if not mapping:
        return obj
    kw = {key: coerce_field(type(obj), key, raw)
          for key, raw in mapping.items()}
    try:
        return dataclasses.replace(obj, **kw)
    except (ValueError, TypeError) as exc:
        raise ParamError(str(exc)) from exc
