"""Circuit-simulation engine: netlist parsing, MNA with Newton-Raphson,
DC operating point and sweep, and backward-Euler or trapezoidal
transients on uniform or geometrically growing steps, each ended on any
PULSE corner it would pass and halved on a failed solve."""

from ..paramfile import parse_number
from .analysis import (AnalysisSpec, SimResult, dc_sweep, operating_point,
                       run_analysis, transient, transient_batch)
from .circuit import (Capacitor, Circuit, CircuitError, FloatGateElement,
                      ISource, Mosfet, PulseSpec, Resistor, RramElement,
                      VSource)
from .mna import ConvergenceError, SystemLayout, Tolerances
from .netlist import (NetlistError, ParseResult, parse_netlist,
                      serialize_netlist)

__all__ = [
    "AnalysisSpec", "SimResult", "dc_sweep",
    "operating_point", "run_analysis", "transient", "transient_batch",
    "Capacitor", "Circuit", "CircuitError", "FloatGateElement", "ISource",
    "Mosfet", "PulseSpec", "Resistor", "RramElement", "VSource",
    "ConvergenceError", "SystemLayout", "Tolerances",
    "NetlistError", "ParseResult", "parse_netlist", "parse_number",
    "serialize_netlist",
]
