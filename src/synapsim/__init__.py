"""Compact device models, a small circuit engine, and crossbar experiments.

Layers, bottom up:

* ``mosfet``    -- unified charge model of a long-channel multi-gate MOSFET
                   (implicit solve, explicit Householder path, drain current,
                   Ward-Dutton terminal charges, symmetry harness)
* ``rram``      -- bipolar resistive memory cell (sinh conduction, windowed
                   state dynamics)
* ``floatgate`` -- Fowler-Nordheim floating-gate synaptic transistor
* ``engine``    -- netlist parser + modified nodal analysis (DC, sweep,
                   transient) that stamps all of the above
* ``neuro``     -- differential RRAM crossbar experiments and an MLP
                   macromodel with quantized differential weights
* ``bench``     -- solver-variant throughput benchmark
* ``cli``       -- command-line front end over all of it
"""

from .bench import BenchResult, bench_model_eval
from .floatgate import (FloatingGateParams, PulseResult, fg_program_pulse,
                        fg_read_current, fn_current, program_pulse)
from .mosfet import (ChargeSolution, ChargeSolveError, MosParams,
                     TerminalCharges, charge_solution, current_from_charges,
                     drain_current, drain_current_and_grads, gummel_current,
                     implicit_residual, solve_charge_householder,
                     solve_charge_reference, solve_charge_reference_grid,
                     terminal_charges, terminal_charges_grid)
from .rram import (RramParams, conductance, hysteresis_loop, read_1t1r,
                   rram_current, set_1t1r, state_for_conductance, state_rate,
                   tuning_curve_1t1r)

__version__ = "0.1.0"
