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
    .tran <tstep> <tstop> [uic]
    .end

Numbers accept engineering suffixes f p n u m k meg g.  Parsing either
yields a fully resolved circuit or raises with every error and its line
number; nodes referenced exactly once produce warnings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..floatgate import FloatingGateParams
from .analysis import AnalysisSpec
from .circuit import (FLAG_KEYS, MODEL_CARDS, Capacitor, Circuit,
                      CircuitError, FloatGateElement, ISource, Mosfet,
                      PulseSpec, Resistor, RramElement, VSource)

_SUFFIX = {"f": "e-15", "p": "e-12", "n": "e-9", "u": "e-6", "m": "e-3",
           "k": "e3", "meg": "e6", "g": "e9"}
_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(e[+-]?\d+)?(meg|[fpnumkg])?$")


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


def parse_number(token: str) -> float:
    m = _NUMBER_RE.match(token.lower())
    if not m:
        raise ValueError(f"malformed number '{token}'")
    mantissa, exp, suffix = m.groups()
    if suffix and not exp:
        # splice the suffix in as a decimal exponent for an exact parse
        return float(mantissa + _SUFFIX[suffix])
    value = float(mantissa + (exp or ""))
    if suffix:
        value *= float("1" + _SUFFIX[suffix])
    return value


class _Parser:
    def __init__(self):
        self.circuit = Circuit()
        self.analyses: list[AnalysisSpec] = []
        self.errors: list[str] = []
        self.node_uses: dict[str, int] = {}
        # fg model cards resolve their mos= reference after all lines
        self.pending_fg: list[tuple[int, str, dict, str | None]] = []
        self.model_lines: dict[str, int] = {}

    def fail(self, lineno: int, msg: str):
        self.errors.append(f"line {lineno}: {msg}")

    def use_node(self, name: str) -> str:
        name = name.lower()
        self.node_uses[name] = self.node_uses.get(name, 0) + 1
        return name

    def num(self, lineno: int, token: str, what: str) -> float:
        try:
            return parse_number(token)
        except ValueError:
            self.fail(lineno, f"malformed number '{token}' for {what}")
            return 0.0

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
        elif head.startswith("xr"):
            self._rram_card(lineno, tokens)
        elif head.startswith("xf"):
            self._fg_card(lineno, tokens)
        elif head[0] in "rc":
            self._two_term(lineno, tokens)
        elif head[0] == "v":
            self._vsource_card(lineno, tokens)
        elif head[0] == "i":
            self._isource_card(lineno, tokens)
        elif head[0] == "m":
            self._mosfet_card(lineno, tokens)
        else:
            self.fail(lineno, f"unknown card '{tokens[0]}'")
        return True

    def _tokenize(self, lineno: int, line: str):
        # keep PULSE(...) together as a single token
        pulse = None
        m = re.search(r"pulse\s*\(([^)]*)\)", line)
        if m:
            pulse = "pulse(" + m.group(1).strip() + ")"
            line = line[:m.start()] + " \0 " + line[m.end():]
        elif "pulse" in line:
            self.fail(lineno, "malformed PULSE(...) clause")
            return None
        tokens = line.split()
        return [pulse if t == "\0" else t for t in tokens]

    def _add(self, lineno: int, element) -> None:
        try:
            self.circuit.add(element)
        except CircuitError as exc:
            self.fail(lineno, str(exc))

    def _two_term(self, lineno: int, t):
        if len(t) != 4:
            self.fail(lineno, f"'{t[0]}' expects: name n1 n2 value")
            return
        n1, n2 = self.use_node(t[1]), self.use_node(t[2])
        value = self.num(lineno, t[3], "element value")
        if t[0][0] == "r":
            if value == 0.0:
                self.fail(lineno, "zero resistance")
                return
            self._add(lineno, Resistor(t[0], n1, n2, value))
        else:
            self._add(lineno, Capacitor(t[0], n1, n2, value))

    def _vsource_card(self, lineno: int, t):
        if len(t) < 3:
            self.fail(lineno, "voltage source expects: name n+ n- ...")
            return
        npos, nneg = self.use_node(t[1]), self.use_node(t[2])
        dc = None
        pulse = None
        rest = t[3:]
        k = 0
        while k < len(rest):
            tok = rest[k]
            if tok == "dc":
                if k + 1 >= len(rest):
                    self.fail(lineno, "DC keyword without a value")
                    return
                dc = self.num(lineno, rest[k + 1], "DC value")
                k += 2
            elif tok.startswith("pulse("):
                fields = tok[6:-1].split()
                if len(fields) != 7:
                    self.fail(lineno,
                              "PULSE needs exactly 7 fields "
                              "(v1 v2 td tr tf pw per)")
                    return
                vals = [self.num(lineno, f, "PULSE field") for f in fields]
                pulse = PulseSpec(*vals)
                k += 1
            else:
                self.fail(lineno, f"unexpected token '{tok}' on V card")
                return
        self._add(lineno, VSource(t[0], npos, nneg, dc=dc, pulse=pulse))

    def _isource_card(self, lineno: int, t):
        if len(t) != 5 or t[3] != "dc":
            self.fail(lineno, "current source expects: name n+ n- DC value")
            return
        npos, nneg = self.use_node(t[1]), self.use_node(t[2])
        self._add(lineno, ISource(t[0], npos, nneg,
                                  self.num(lineno, t[4], "DC value")))

    def _keyvals(self, lineno: int, tokens, allowed) -> dict:
        out = {}
        for tok in tokens:
            if "=" not in tok:
                self.fail(lineno, f"expected key=value, got '{tok}'")
                continue
            key, _, val = tok.partition("=")
            if key not in allowed:
                self.fail(lineno, f"unknown key '{key}'")
                continue
            out[key] = val
        return out

    def _mosfet_card(self, lineno: int, t):
        if len(t) != 5:
            self.fail(lineno, "MOSFET expects: name d g s model=<name>")
            return
        nd, ng, ns = (self.use_node(n) for n in t[1:4])
        kv = self._keyvals(lineno, t[4:], {"model"})
        if "model" not in kv:
            self.fail(lineno, "MOSFET needs model=<name>")
            return
        self._add(lineno, Mosfet(t[0], nd, ng, ns, kv["model"]))

    def _rram_card(self, lineno: int, t):
        if len(t) < 4:
            self.fail(lineno, "RRAM expects: name n+ n- model=<name> "
                              "[x0=<val>]")
            return
        npos, nneg = self.use_node(t[1]), self.use_node(t[2])
        kv = self._keyvals(lineno, t[3:], {"model", "x0"})
        if "model" not in kv:
            self.fail(lineno, "RRAM needs model=<name>")
            return
        x0 = None
        if "x0" in kv:
            x0 = self.num(lineno, kv["x0"], "x0")
            if not 0.0 <= x0 <= 1.0:
                self.fail(lineno, "x0 must lie in [0, 1]")
                return
        self._add(lineno, RramElement(t[0], npos, nneg, kv["model"], x0=x0))

    def _fg_card(self, lineno: int, t):
        if len(t) < 7:
            self.fail(lineno, "floating gate expects: name d s sg nfb pfb "
                              "model=<name> [qfg0=<val>]")
            return
        nodes = [self.use_node(n) for n in t[1:6]]
        kv = self._keyvals(lineno, t[6:], {"model", "qfg0"})
        if "model" not in kv:
            self.fail(lineno, "floating gate needs model=<name>")
            return
        qfg0 = self.num(lineno, kv["qfg0"], "qfg0") if "qfg0" in kv else 0.0
        self._add(lineno, FloatGateElement(t[0], *nodes, model=kv["model"],
                                           qfg0=qfg0))

    def _directive(self, lineno: int, head, rest):
        if head == ".model":
            self._model_card(lineno, rest)
        elif head == ".op":
            self.analyses.append(AnalysisSpec(kind="op"))
        elif head == ".dc":
            if len(rest) != 4:
                self.fail(lineno, ".dc expects: src start stop step")
                return
            self.analyses.append(AnalysisSpec(
                kind="dc", src=rest[0],
                start=self.num(lineno, rest[1], "start"),
                stop=self.num(lineno, rest[2], "stop"),
                step=self.num(lineno, rest[3], "step")))
        elif head == ".tran":
            if len(rest) not in (2, 3) or (len(rest) == 3 and
                                           rest[2] != "uic"):
                self.fail(lineno, ".tran expects: tstep tstop [uic]")
                return
            self.analyses.append(AnalysisSpec(
                kind="tran",
                tstep=self.num(lineno, rest[0], "tstep"),
                tstop=self.num(lineno, rest[1], "tstop"),
                uic=len(rest) == 3))
        else:
            self.fail(lineno, f"unknown directive '{head}'")

    def _model_card(self, lineno: int, rest):
        if len(rest) < 2:
            self.fail(lineno, ".model expects: name kind key=val ...")
            return
        name, kind = rest[0], rest[1]
        if kind not in MODEL_CARDS:
            self.fail(lineno, f"unknown model kind '{kind}' "
                              "(want cmg, rram, or fg)")
            return
        params_class, keys = MODEL_CARDS[kind]
        kv = self._keyvals(lineno, rest[2:], keys)
        mos_name = kv.pop("mos", None)
        fields = {}
        for key, val in kv.items():
            if key in FLAG_KEYS:
                fields[key] = val not in ("0", "false", "off")
            else:
                fields[key] = self.num(lineno, val, key)
        if kind == "fg":
            self.pending_fg.append((lineno, name, fields, mos_name))
            return
        try:
            self.circuit.add_model(name, kind, params_class(**fields))
        except (ValueError, CircuitError) as exc:
            self.fail(lineno, str(exc))
            return
        self.model_lines[name] = lineno

    def finish(self) -> ParseResult:
        # fg cards resolve last so mos= may reference a later cmg card
        for lineno, name, fields, mos_name in self.pending_fg:
            if mos_name is not None:
                entry = self.circuit.models.get(mos_name)
                if entry is None or entry[0] != "cmg":
                    self.fail(lineno, f"fg model '{name}' references "
                                      f"unknown cmg model '{mos_name}'")
                    continue
                fields["mos"] = entry[1]
            try:
                self.circuit.add_model(name, "fg",
                                       FloatingGateParams(**fields))
                if mos_name is not None:
                    self.circuit.fg_mos_ref[name] = mos_name
            except (ValueError, CircuitError) as exc:
                self.fail(lineno, str(exc))
        if not self.errors:
            try:
                self.circuit.resolve()
            except CircuitError as exc:
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


def serialize_netlist(circuit: Circuit,
                      analyses: list[AnalysisSpec] | None = None) -> str:
    out = circuit.serialize()
    for spec in analyses or []:
        if spec.kind == "op":
            out += ".op\n"
        elif spec.kind == "dc":
            out += (f".dc {spec.src} {spec.start!r} {spec.stop!r} "
                    f"{spec.step!r}\n")
        elif spec.kind == "tran":
            out += f".tran {spec.tstep!r} {spec.tstop!r}"
            out += " uic\n" if spec.uic else "\n"
    return out + ".end\n"
