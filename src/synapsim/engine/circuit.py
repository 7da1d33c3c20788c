"""Circuit representation: nodes, elements, model cards, carried state.

A circuit owns its node table (ground is node 0), a flat element list,
and a ``state`` dict that persists device state between analyses: the
filament state X of each RRAM element and the floating-gate charge of
each floating-gate element.  Analyses read the carried state in and
write the final state back, so a programming transient followed by a DC
read sees the programmed device.

Each element dataclass owns its structure: terminals, internal node,
model kind, carried-state seed and netlist card.  Adding an element kind
means one dataclass here plus one entry in the per-kind table in ``mna``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Optional

from ..floatgate import FloatingGateParams
from ..mosfet import MosParams
from ..rram import RramParams

# model kind -> params class.  A card's keys are the class's init fields;
# an fg card's mos= names the cmg model of its readout transistor.
MODEL_CARDS = {"cmg": MosParams, "rram": RramParams, "fg": FloatingGateParams}


def card_fields(kind: str) -> list:
    """Settable fields of a model kind, in card order."""
    return [f for f in dataclasses.fields(MODEL_CARDS[kind]) if f.init]


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class PulseSpec:
    """The seven canonical pulse-waveform fields."""

    v1: float
    v2: float
    td: float
    tr: float
    tf: float
    pw: float
    per: float

    def value_at(self, t: float) -> float:
        if t < self.td:
            return self.v1
        tau = (t - self.td) % self.per if self.per > 0 else t - self.td
        if tau < self.tr:
            return self.v1 + (self.v2 - self.v1) * tau / self.tr
        tau -= self.tr
        if tau < self.pw:
            return self.v2
        tau -= self.pw
        if tau < self.tf:
            return self.v2 + (self.v1 - self.v2) * tau / self.tf
        return self.v1


class _Element:
    """Defaults: terminals npos/nneg, no model card, no internal node."""

    terminal_fields: ClassVar[tuple[str, ...]] = ("npos", "nneg")
    model_kind: ClassVar[Optional[str]] = None
    internal_suffix: ClassVar[str] = ""

    @property
    def terminals(self) -> tuple[str, ...]:
        return tuple(getattr(self, f) for f in self.terminal_fields)

    @property
    def internal_node(self) -> Optional[str]:
        """The extra unknown that holds the kind's carried state, if any."""
        suffix = self.internal_suffix
        return self.name + suffix if suffix else None


@dataclass
class _TwoTerminal(_Element):
    name: str
    n1: str
    n2: str
    value: float

    terminal_fields: ClassVar[tuple[str, ...]] = ("n1", "n2")

    def card(self) -> str:
        return f"{self.name} {self.n1} {self.n2} {_fmt(self.value)}"


class Resistor(_TwoTerminal):
    """Linear resistor; ``value`` in ohms."""


class Capacitor(_TwoTerminal):
    """Linear capacitor; ``value`` in farads."""


@dataclass
class VSource(_Element):
    name: str
    npos: str
    nneg: str
    dc: Optional[float] = None
    pulse: Optional[PulseSpec] = None

    def dc_value(self) -> float:
        if self.dc is not None:
            return self.dc
        if self.pulse is not None:
            return self.pulse.value_at(0.0)
        return 0.0

    def value_at(self, t: float) -> float:
        if self.pulse is not None:
            return self.pulse.value_at(t)
        return self.dc if self.dc is not None else 0.0

    def card(self) -> str:
        parts = [self.name, self.npos, self.nneg]
        if self.dc is not None:
            parts += ["dc", _fmt(self.dc)]
        if self.pulse is not None:
            p = self.pulse
            parts.append("pulse(" + " ".join(_fmt(v) for v in
                         (p.v1, p.v2, p.td, p.tr, p.tf, p.pw, p.per)) + ")")
        return " ".join(parts)


@dataclass
class ISource(_Element):
    name: str
    npos: str
    nneg: str
    dc: float = 0.0

    def card(self) -> str:
        return f"{self.name} {self.npos} {self.nneg} dc {_fmt(self.dc)}"


@dataclass
class Mosfet(_Element):
    name: str
    nd: str
    ng: str
    ns: str
    model: str
    params: Optional[MosParams] = None

    terminal_fields: ClassVar[tuple[str, ...]] = ("nd", "ng", "ns")
    model_kind: ClassVar[str] = "cmg"

    def card(self) -> str:
        return f"{self.name} {self.nd} {self.ng} {self.ns} model={self.model}"


@dataclass
class RramElement(_Element):
    name: str
    npos: str
    nneg: str
    model: str
    x0: Optional[float] = None
    params: Optional[RramParams] = None

    model_kind: ClassVar[str] = "rram"
    internal_suffix: ClassVar[str] = "#x"     # filament state X in [0, 1]

    def state_seed(self) -> float:
        x0 = self.x0 if self.x0 is not None else self.params.x_init
        return float(min(max(x0, 0.0), 1.0))

    def card(self) -> str:
        card = f"{self.name} {self.npos} {self.nneg} model={self.model}"
        if self.x0 is not None:
            card += f" x0={_fmt(self.x0)}"
        return card


@dataclass
class FloatGateElement(_Element):
    name: str
    nd: str
    ns: str
    nsg: str
    nnfb: str
    npfb: str
    model: str
    qfg0: float = 0.0
    params: Optional[FloatingGateParams] = None

    terminal_fields: ClassVar[tuple[str, ...]] = ("nd", "ns", "nsg", "nnfb",
                                                  "npfb")
    model_kind: ClassVar[str] = "fg"
    internal_suffix: ClassVar[str] = "#fg"    # the floating gate

    def state_seed(self) -> float:
        return float(self.qfg0)

    def card(self) -> str:
        card = (f"{self.name} {self.nd} {self.ns} {self.nsg} {self.nnfb} "
                f"{self.npfb} model={self.model}")
        if self.qfg0 != 0.0:
            card += f" qfg0={_fmt(self.qfg0)}"
        return card


class CircuitError(Exception):
    pass


class Circuit:
    """Mutable circuit under construction plus carried device state."""

    def __init__(self):
        self.nodes: dict[str, int] = {"0": 0}
        self.elements: list = []
        self.models: dict[str, tuple[str, object]] = {}
        self.state: dict[str, float] = {}
        # fg model name -> cmg model name used for its readout transistor
        self.fg_mos_ref: dict[str, str] = {}
        self._by_name: dict[str, object] = {}
        # the compiled engine form (``mna.SystemLayout``); adding an
        # element or a model drops it
        self._layout = None

    # -- construction -------------------------------------------------
    def node_index(self, name: str) -> int:
        name = name.lower()
        if name not in self.nodes:
            self.nodes[name] = len(self.nodes)
        return self.nodes[name]

    def add_model(self, name: str, kind: str, params) -> None:
        name = name.lower()
        if name in self.models:
            raise CircuitError(f"duplicate model '{name}'")
        if kind not in MODEL_CARDS:
            raise CircuitError(f"unknown model kind '{kind}'")
        self.models[name] = (kind, params)
        self._layout = None

    def add(self, element) -> None:
        if element.name in self._by_name:
            raise CircuitError(f"duplicate element '{element.name}'")
        self._by_name[element.name] = element
        self.elements.append(element)
        self._layout = None
        for node in element.terminals:
            self.node_index(node)
        if element.internal_node is not None:
            self.node_index(element.internal_node)

    # -- finalization --------------------------------------------------
    def resolve(self) -> None:
        """Bind model references and seed carried state; idempotent."""
        for e in self.elements:
            want = e.model_kind
            if want is None:
                continue
            entry = self.models.get(e.model)
            if entry is None:
                raise CircuitError(
                    f"element '{e.name}' references unknown model "
                    f"'{e.model}'")
            kind, params = entry
            if kind != want:
                raise CircuitError(
                    f"element '{e.name}' needs a '{want}' model but "
                    f"'{e.model}' is '{kind}'")
            e.params = params
            if e.internal_node and e.name not in self.state:
                self.state[e.name] = e.state_seed()
        ground_touched = any("0" in e.terminals for e in self.elements)
        if self.elements and not ground_touched:
            raise CircuitError("no element connects to ground node 0")

    def vsources(self) -> list[VSource]:
        return [e for e in self.elements if isinstance(e, VSource)]

    def element(self, name: str):
        return self._by_name[name.lower()]

    # -- serialization -------------------------------------------------
    def serialize(self) -> str:
        lines = []
        for name, (kind, params) in self.models.items():
            pairs = []
            for f in card_fields(kind):
                value = getattr(params, f.name)
                if isinstance(value, MosParams):
                    if name in self.fg_mos_ref:
                        pairs.append(f"{f.name}={self.fg_mos_ref[name]}")
                elif isinstance(value, bool):
                    pairs.append(f"{f.name}={int(value)}")
                else:
                    pairs.append(f"{f.name}={_fmt(value)}")
            lines.append(f".model {name} {kind} " + " ".join(pairs))
        lines += [e.card() for e in self.elements]
        return "\n".join(lines) + "\n"
