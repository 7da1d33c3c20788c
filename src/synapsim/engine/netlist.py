"""Line-oriented netlist parser and serializer.

Grammar (keywords case-insensitive, node and model names lowercased):

    * comment
    R<id> n1 n2 <val>
    C<id> n1 n2 <val>
    V<id> n+ n- [DC <val>] [PULSE(v1 v2 td tr tf pw per)]
    I<id> n+ n- DC <val>
    M<id> d g s model=<name>
    XR<id> n+ n- model=<name> [x0=<val>]
    XF<id> d s sg nfb pfb model=<name> [qfg0=<val>]
    .model <name> <cmg|rram|fg> key=val ...
    .op
    .dc <src> <start> <stop> <step>
    .tran <tstep> <tstop> [uic] [method=be|trap] [growth=<ratio>]
    .end

The element cards above are not written out in this module: each one
follows from its dataclass in ``circuit``.  A card's name starts with the
class's ``prefix`` (the longest matching prefix wins), then come one node
per entry of ``terminal_fields``, then the card fields, in any order.
The card fields are the init fields other than the name and the
terminals (a model card reaches an element through ``model`` only):

* ``value`` is a bare number;
* ``dc`` is ``DC <num>``;
* ``pulse`` is ``PULSE(...)``, the ``PulseSpec`` fields in order;
* every other field is ``key=value``: ``model`` is a name, the rest are
  numbers.

A field without a dataclass default must be on the card, and a field may
appear once.  The writer leaves out a field that equals its default.  The
element class checks the values, so a card and an API call reject the
same elements.  The analysis cards list positional ``AnalysisSpec``
fields (``_ANALYSES``); a bool field is an optional flag word, and an
optional ``key=value`` word sets a field under a card key of its own:
``.tran``'s ``method`` is ``AnalysisSpec.integrator`` and its ``growth``
is ``AnalysisSpec.growth``, each written only when it is not the
default; ``AnalysisSpec.check`` checks each analysis card as parsed.

Numbers accept engineering suffixes f p n u m k meg g.  A ``.model``
card's keys are the init fields of the kind's parameter class
(``MosParams``, ``RramParams``, ``FloatingGateParams``).  Card values are
coerced exactly as ``--set`` overrides are: numbers by the grammar above,
booleans as true/yes/on/1 or false/no/off/0.  An fg card's ``mos=<name>``
names the cmg model of its readout transistor; the card may come before
or after it.  The writer names the cmg model whose params object is the
fg card's ``mos`` and leaves ``mos=`` out when the readout transistor is
the default ``MosParams()``; any other readout transistor that is no cmg
model of the circuit raises ValueError.

Parsing either yields a fully resolved circuit or raises with every
error and its line number; nodes referenced exactly once produce
warnings.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields, replace

from ..mosfet import MosParams
from ..paramfile import ParamError, coerce_field
from .analysis import AnalysisSpec
from .circuit import MODEL_CARDS, Circuit, CircuitError, PulseSpec
from .mna import _KINDS

# element classes, longest card prefix first
_ELEMENTS = sorted(_KINDS, key=lambda cls: len(cls.prefix), reverse=True)

# analysis kind -> (positional AnalysisSpec fields, optional flag words,
# optional key=value words as card key -> AnalysisSpec field)
_ANALYSES = {"op": ((), (), {}),
             "dc": (("src", "start", "stop", "step"), (), {}),
             "tran": (("tstep", "tstop"), ("uic",),
                      {"method": "integrator", "growth": "growth"})}
# the values a card leaves out
_ANALYSIS_DEFAULT = AnalysisSpec(kind="op")

# card fields with a syntax of their own; every other one is key=value
_OWN_SYNTAX = ("value", "dc", "pulse")


class NetlistError(Exception):
    """Carries every parse error, each tagged with its line number."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


@dataclass
class ParseResult:
    circuit: Circuit
    analyses: list[AnalysisSpec]
    warnings: list[str] = field(default_factory=list)


def _card_fields(cls) -> list:
    """The fields a card of ``cls``, an element or params class, sets."""
    skip = {"name", *getattr(cls, "terminal_fields", ())}
    return [f for f in fields(cls) if f.init and f.name not in skip]


def _text(value) -> str:
    """A name as is, a bool as 0/1, a number by its shortest repr."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _word(name: str, value) -> str:
    """One card field as it is written."""
    if name == "value":
        return _text(value)
    if name == "dc":
        return f"dc {_text(value)}"
    if name == "pulse":
        return "pulse(" + " ".join(_text(getattr(value, f.name))
                                   for f in fields(PulseSpec)) + ")"
    return f"{name}={_text(value)}"


def _value(cls, name: str, text: str):
    """One card field's value, coerced as ``--set`` coerces it."""
    if name != "pulse":
        return coerce_field(cls, name, text)
    names = [f.name for f in fields(PulseSpec)]
    words = text.split()
    if len(words) != len(names):
        raise ParamError(f"PULSE needs exactly {len(names)} fields "
                         f"({' '.join(names)})")
    return PulseSpec(*(coerce_field(PulseSpec, n, w)
                       for n, w in zip(names, words)))


class _Parser:
    def __init__(self):
        self.circuit = Circuit()
        self.analyses: list[AnalysisSpec] = []
        self.errors: list[str] = []
        self.node_uses: dict[str, int] = {}
        self.element_lines: dict[str, int] = {}
        # fg model cards resolve their mos= reference after all lines
        self.pending_fg: list[tuple[int, str, object, str | None]] = []

    def fail(self, lineno: int, msg: str):
        self.errors.append(f"line {lineno}: {msg}")

    def use_node(self, name: str) -> str:
        name = name.lower()
        self.node_uses[name] = self.node_uses.get(name, 0) + 1
        return name

    # -- cards ---------------------------------------------------------
    def parse_line(self, lineno: int, raw: str) -> bool:
        """Returns False once .end is seen."""
        line = raw.strip()
        if not line or line.startswith("*"):
            return True
        lower = line.lower()
        if lower == ".end":
            return False
        tokens = self._tokenize(lineno, lower)
        if tokens is None:
            return True
        head = tokens[0]
        if head.startswith("."):
            self._directive(lineno, head, tokens[1:])
            return True
        for cls in _ELEMENTS:
            if head.startswith(cls.prefix):
                self._element(lineno, cls, tokens)
                return True
        self.fail(lineno, f"unknown card '{head}'")
        return True

    def _tokenize(self, lineno: int, line: str):
        # keep PULSE(...) together as a single token
        pulse = None
        m = re.search(r"pulse\s*\(([^)]*)\)", line)
        if m:
            pulse = "pulse(" + m.group(1).strip() + ")"
            line = line[:m.start()] + " \0 " + line[m.end():]
        elif any(t == "pulse" or t.startswith("pulse(") for t in line.split()):
            self.fail(lineno, "malformed PULSE(...) clause")
            return None
        tokens = line.split()
        return [pulse if t == "\0" else t for t in tokens]

    def _card(self, lineno: int, cls, tokens, keep=()) -> dict | None:
        """Card tokens after the nodes -> {field: value} by the field
        rule; fields in ``keep`` stay text.  None after reporting every
        bad token, missing field and bad value."""
        n_errors = len(self.errors)
        card = {f.name: f for f in _card_fields(cls)}
        raw: dict[str, str] = {}
        words = iter(tokens)
        for tok in words:
            keyed = False
            if tok.startswith("pulse("):
                key, text = "pulse", tok[6:-1]
            elif tok == "dc":
                key, text = "dc", next(words, "")
            elif "=" in tok:
                (key, _, text), keyed = tok.partition("="), True
            else:
                key, text = "value", tok
            # a field of _OWN_SYNTAX is never written key=value
            if key not in card or keyed == (key in _OWN_SYNTAX):
                self.fail(lineno, f"unknown key '{key}'" if keyed
                          else f"unexpected token '{tok}'")
            elif key in raw:
                self.fail(lineno, f"'{key}' given twice")
            else:
                raw[key] = text
        for name, f in card.items():
            if (name not in raw and f.default is MISSING
                    and f.default_factory is MISSING):
                self.fail(lineno, f"missing {_word(name, f'<{name}>')}")
        kw = {}
        for key, text in raw.items():
            try:
                kw[key] = text if key in keep else _value(cls, key, text)
            except ParamError as exc:
                self.fail(lineno, str(exc))
        return kw if len(self.errors) == n_errors else None

    def _element(self, lineno: int, cls, tokens):
        n = len(cls.terminal_fields)
        if len(tokens) <= n:
            self.fail(lineno, f"'{tokens[0]}' needs {n} nodes")
            return
        nodes = [self.use_node(t) for t in tokens[1:n + 1]]
        kw = self._card(lineno, cls, tokens[n + 1:])
        if kw is None:
            return
        try:
            self.circuit.add(cls(tokens[0], *nodes, **kw))
        except (ValueError, CircuitError) as exc:
            self.fail(lineno, str(exc))
            return
        self.element_lines[tokens[0]] = lineno

    def _directive(self, lineno: int, head, rest):
        kind = head[1:]
        if kind == "model":
            self._model_card(lineno, rest)
            return
        if kind not in _ANALYSES:
            self.fail(lineno, f"unknown directive '{head}'")
            return
        names, flags, keys = _ANALYSES[kind]
        texts = dict(zip(names, rest))
        kw = {}
        ok = len(rest) >= len(names)
        for word in rest[len(names):]:
            key, eq, text = word.partition("=")
            name = keys.get(key) if eq else key if key in flags else None
            if name is None or name in kw or name in texts:
                ok = False
            elif eq:
                texts[name] = text
            else:
                kw[name] = True
        if not ok:
            usage = " ".join([*names, *(f"[{f}]" for f in flags),
                              *(f"[{k}=<{f}>]" for k, f in keys.items())])
            self.fail(lineno, f"{head} expects: {usage or 'no arguments'}")
            return
        for name, text in texts.items():
            try:
                kw[name] = coerce_field(AnalysisSpec, name, text)
            except ParamError as exc:
                self.fail(lineno, str(exc))
                ok = False
        if not ok:
            return
        spec = AnalysisSpec(kind=kind, **kw)
        try:
            spec.check()
        except ValueError as exc:
            self.fail(lineno, f"{head}: {exc}")
            return
        self.analyses.append(spec)

    def _model_card(self, lineno: int, rest):
        if len(rest) < 2:
            self.fail(lineno, ".model expects: name kind key=val ...")
            return
        name, kind = rest[0], rest[1]
        if kind not in MODEL_CARDS:
            self.fail(lineno, f"unknown model kind '{kind}' "
                              "(want cmg, rram, or fg)")
            return
        cls = MODEL_CARDS[kind]
        kw = self._card(lineno, cls, rest[2:], keep=("mos",))
        if kw is None:
            return
        mos_name = kw.pop("mos", None)
        try:
            params = cls(**kw)
        except ValueError as exc:
            self.fail(lineno, str(exc))
            return
        if kind == "fg":
            self.pending_fg.append((lineno, name, params, mos_name))
            return
        self._add_model(lineno, name, kind, params)

    def _add_model(self, lineno: int, name: str, kind: str, params) -> bool:
        try:
            self.circuit.add_model(name, kind, params)
        except CircuitError as exc:
            self.fail(lineno, str(exc))
            return False
        return True

    def finish(self) -> ParseResult:
        # fg cards resolve last so mos= may reference a later cmg card
        for lineno, name, params, mos_name in self.pending_fg:
            if mos_name is not None:
                entry = self.circuit.models.get(mos_name)
                if entry is None or entry[0] != "cmg":
                    self.fail(lineno, f"fg model '{name}' references "
                                      f"unknown cmg model '{mos_name}'")
                    continue
                params = replace(params, mos=entry[1])
            self._add_model(lineno, name, "fg", params)
        if not self.errors:
            try:
                self.circuit.resolve()
            except CircuitError as exc:
                for name, msg in exc.by_element.items():
                    self.fail(self.element_lines[name], msg)
                if not exc.by_element:      # circuit-wide, no card to name
                    self.errors.append(str(exc))
        if self.errors:
            raise NetlistError(self.errors)
        warnings = [f"node '{n}' is used only once"
                    for n, count in self.node_uses.items()
                    if count == 1 and n != "0"]
        return ParseResult(self.circuit, self.analyses, warnings)


def parse_netlist(text: str) -> ParseResult:
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not parser.parse_line(lineno, raw):
            break
    return parser.finish()


def _readout_model(circuit: Circuit, name: str, mos) -> str | None:
    """The cmg model whose params object is fg model ``name``'s readout
    transistor ``mos``; None when there is none and ``mos`` is the
    default one, which a card without ``mos=`` reads back."""
    for model, (kind, params) in circuit.models.items():
        if kind == "cmg" and params is mos:
            return model
    if mos == MosParams():
        return None
    raise ValueError(f"fg model '{name}': its readout transistor is no cmg "
                     "model of the circuit, so no card can name it")


def serialize_netlist(circuit: Circuit,
                      analyses: list[AnalysisSpec] | None = None) -> str:
    lines = []
    for name, (kind, params) in circuit.models.items():
        words = [".model", name, kind]
        for f in _card_fields(type(params)):
            value = getattr(params, f.name)
            if f.name == "mos":      # an fg card names its cmg model, if any
                value = _readout_model(circuit, name, value)
                if value is None:
                    continue
            words.append(_word(f.name, value))
        lines.append(" ".join(words))
    for e in circuit.elements:
        lines.append(" ".join([e.name, *e.terminals] + [
            _word(f.name, getattr(e, f.name)) for f in _card_fields(type(e))
            if getattr(e, f.name) != f.default]))
    for spec in analyses or []:
        names, flags, keys = _ANALYSES[spec.kind]
        lines.append(" ".join([
            f".{spec.kind}", *(_text(getattr(spec, n)) for n in names),
            *(f for f in flags if getattr(spec, f)),
            *(_word(k, getattr(spec, f)) for k, f in keys.items()
              if getattr(spec, f) != getattr(_ANALYSIS_DEFAULT, f))]))
    return "\n".join(lines + [".end"]) + "\n"
