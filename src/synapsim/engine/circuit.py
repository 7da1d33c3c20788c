"""Circuit representation: nodes, elements, model cards, carried state.

A circuit owns its node table (ground is node 0), a flat element list,
and a ``state`` dict that persists device state between analyses: the
filament state X of each RRAM element and the floating-gate charge of
each floating-gate element.  Analyses read the carried state in and
write the final state back, so a programming transient followed by a DC
read sees the programmed device.

Each element dataclass owns its structure: card prefix, terminals,
internal node, model kind, carried-state seed and the checks of its
values.  Its init fields are also its netlist card, read by ``netlist``.
Adding an element kind means one dataclass here plus one entry in the
per-kind table in ``mna``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from ..floatgate import FloatingGateParams
from ..mosfet import MosParams
from ..rram import RramParams

# model kind -> params class.  A card's keys are the class's init fields;
# an fg card's mos= names the cmg model of its readout transistor.
MODEL_CARDS = {"cmg": MosParams, "rram": RramParams, "fg": FloatingGateParams}


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
    """Defaults: terminals npos/nneg, no model card, no internal node.

    ``prefix`` starts the name of every card of the kind.  A ValueError
    from ``__post_init__`` rejects an element the engine cannot run.
    """

    prefix: ClassVar[str]
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

    def __post_init__(self):
        """Checks of the element's values; a kind overrides it."""


@dataclass
class _TwoTerminal(_Element):
    name: str
    n1: str
    n2: str
    value: float

    terminal_fields: ClassVar[tuple[str, ...]] = ("n1", "n2")


class Resistor(_TwoTerminal):
    """Linear resistor; ``value`` in ohms."""

    prefix: ClassVar[str] = "r"

    def __post_init__(self):
        if self.value == 0.0:
            raise ValueError("zero resistance")


class Capacitor(_TwoTerminal):
    """Linear capacitor; ``value`` in farads."""

    prefix: ClassVar[str] = "c"


@dataclass
class VSource(_Element):
    name: str
    npos: str
    nneg: str
    dc: Optional[float] = None
    pulse: Optional[PulseSpec] = None

    prefix: ClassVar[str] = "v"

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


@dataclass
class ISource(_Element):
    name: str
    npos: str
    nneg: str
    dc: float

    prefix: ClassVar[str] = "i"


@dataclass
class Mosfet(_Element):
    name: str
    nd: str
    ng: str
    ns: str
    model: str
    params: Optional[MosParams] = None

    prefix: ClassVar[str] = "m"
    terminal_fields: ClassVar[tuple[str, ...]] = ("nd", "ng", "ns")
    model_kind: ClassVar[str] = "cmg"


@dataclass
class RramElement(_Element):
    name: str
    npos: str
    nneg: str
    model: str
    x0: Optional[float] = None
    params: Optional[RramParams] = None

    prefix: ClassVar[str] = "xr"
    model_kind: ClassVar[str] = "rram"
    internal_suffix: ClassVar[str] = "#x"     # filament state X in [0, 1]

    def __post_init__(self):
        if self.x0 is not None and not 0.0 <= self.x0 <= 1.0:
            raise ValueError("x0 must lie in [0, 1]")

    def state_seed(self) -> float:
        return float(self.x0 if self.x0 is not None else self.params.x_init)


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

    prefix: ClassVar[str] = "xf"
    terminal_fields: ClassVar[tuple[str, ...]] = ("nd", "ns", "nsg", "nnfb",
                                                  "npfb")
    model_kind: ClassVar[str] = "fg"
    internal_suffix: ClassVar[str] = "#fg"    # the floating gate

    def state_seed(self) -> float:
        return float(self.qfg0)


class CircuitError(Exception):
    """``by_element`` maps each offending element's name to its message."""

    def __init__(self, msg: str, by_element: dict | None = None):
        super().__init__(msg)
        self.by_element = by_element or {}


class _NodeTable(dict):
    """Node name -> index, keyed by the lower-cased name; a name is
    looked up in any case."""

    def __missing__(self, name: str) -> int:
        low = name.lower()
        if low == name:
            raise KeyError(name)
        return self[low]


class Circuit:
    """Mutable circuit under construction plus carried device state.

    Node, element and model names are case-insensitive, as in a netlist:
    each is keyed by its lower-cased name, and an element keeps its name
    as given for the columns of a result."""

    def __init__(self):
        self.nodes: dict[str, int] = _NodeTable({"0": 0})
        self.elements: list = []
        self.models: dict[str, tuple[str, object]] = {}
        self.state: dict[str, float] = {}
        # fg model name -> cmg model name used for its readout transistor
        self.fg_mos_ref: dict[str, str] = {}
        # lower-cased element name -> element
        self._by_name: dict[str, object] = {}
        # the compiled engine form (``mna.SystemLayout``); adding an
        # element or a model drops it
        self._layout = None

    def __getstate__(self):
        # the layout is a cache of this circuit; it recompiles on first use
        return {**self.__dict__, "_layout": None}

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
        key = element.name.lower()
        if key in self._by_name:
            raise CircuitError(f"duplicate element '{element.name}'")
        self._by_name[key] = element
        self.elements.append(element)
        self._layout = None
        for node in element.terminals:
            self.node_index(node)
        if element.internal_node is not None:
            self.node_index(element.internal_node)

    # -- finalization --------------------------------------------------
    def resolve(self) -> None:
        """Bind model references and seed carried state; idempotent.
        Raises one ``CircuitError`` naming every element that cannot bind."""
        bad = {}
        for e in self.elements:
            want = e.model_kind
            if want is None:
                continue
            kind, params = self.models.get(e.model.lower(), (None, None))
            if kind is None:
                bad[e.name] = (f"element '{e.name}' references unknown "
                               f"model '{e.model}'")
                continue
            if kind != want:
                bad[e.name] = (f"element '{e.name}' needs a '{want}' model "
                               f"but '{e.model}' is '{kind}'")
                continue
            e.params = params
            if e.internal_node and e.name not in self.state:
                self.state[e.name] = e.state_seed()
        if bad:
            raise CircuitError("\n".join(bad.values()), bad)
        ground_touched = any("0" in e.terminals for e in self.elements)
        if self.elements and not ground_touched:
            raise CircuitError("no element connects to ground node 0")

    def vsources(self) -> list[VSource]:
        return [e for e in self.elements if isinstance(e, VSource)]

    def element(self, name: str):
        return self._by_name[name.lower()]
