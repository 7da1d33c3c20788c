"""Command-line front end.

Characterization sweeps (idvg, idvd, cv, gummel), canned device
experiments (rram-iv, rram-tune, fg-pulse), the crossbar AND experiment,
MNIST macromodel training, netlist execution and the solver-variant
throughput benchmark.  Every subcommand writes exactly one CSV whose
commented header block records every option and the resolved parameters,
so a run can be reconstructed from its own artifact.

Exit statuses: 0 success, 1 simulation failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .bench import bench_model_eval
from .engine import (AnalysisSpec, ConvergenceError, NetlistError, SimResult,
                     TransientError, parse_netlist, run_analysis,
                     serialize_netlist)
from .floatgate import (V_READ_FG, V_SG_FG, FloatingGateParams,
                        fg_program_pulse, fg_read_current)
from .mosfet import (SOLVERS, ChargeSolveError, MosParams, drain_current,
                     gummel_current, terminal_charges)
from .neuro import (MacromodelConfig, TrainConfig, find_mnist,
                    train_and_gate, train_and_gate_software, train_macromodel)
from .paramfile import (ParamError, apply_params, load_params,
                        parse_assignments, split_scopes)
from .rram import (IV_PERIOD, IV_TSTEP, IV_V_PEAK, SET_WIDTH, V_READ_1T1R,
                   V_SET_1T1R, RramParams, hysteresis_loop,
                   tuning_curve_1t1r)

EXIT_OK, EXIT_SIM, EXIT_USAGE = 0, 1, 2

_SCOPES = ("mos", "rram", "fg", "train")


def _overrides(args) -> dict:
    mapping = {}
    if args.params:
        mapping.update(load_params(args.params))
    mapping.update(parse_assignments(args.set))
    return split_scopes(mapping, _SCOPES)


def _resolve(args, primary: str, defaults: dict) -> dict:
    """Apply scoped + unscoped overrides; unscoped keys go to `primary`."""
    scoped = _overrides(args)
    out = {}
    for name, obj in defaults.items():
        mapping = dict(scoped.get(name, {}))
        if name == primary:
            mapping = {**scoped[""], **mapping}
        out[name] = apply_params(obj, mapping)
    leftovers = [s for s in scoped if s and scoped[s] and s not in defaults]
    if leftovers:
        raise ParamError(f"scope(s) {leftovers} not used by this subcommand")
    return out


# parsed arguments the header leaves out: the dispatch entries, the output
# path, and --params/--set, which appear as the resolved parameter lines
_UNRECORDED = ("subcommand", "func", "out", "params", "set")


def _metadata(args, param_objs: dict, **extras) -> list:
    """Header lines: every option of the subcommand, the resolved
    parameters, then ``extras`` (results and column notes)."""
    lines = [f"synapsim {__version__}", f"subcommand: {args.subcommand}"]
    lines += [f"{key}: {value!r}" for key, value in vars(args).items()
              if key not in _UNRECORDED]
    for scope in sorted(param_objs):
        obj = param_objs[scope]
        for f in dataclasses.fields(obj):
            if f.init:
                lines.append(f"{scope}.{f.name}: {getattr(obj, f.name)!r}")
    lines += [f"{key}: {value}" for key, value in extras.items()]
    return lines


def _write(args, columns, data, metadata) -> None:
    """Write the CSV to --out, by default ``<subcommand>.csv``."""
    path = args.out or args.subcommand.replace("-", "_") + ".csv"
    res = SimResult(columns=list(columns), data=np.atleast_2d(np.asarray(data, float)),
                    metadata=metadata)
    res.to_csv(path)
    print(f"wrote {path} ({res.data.shape[0]} rows)")


def _float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParamError(f"bad numeric list {text!r}") from exc


# ---------------------------------------------------------------- sweeps

def cmd_idvg(args) -> int:
    objs = _resolve(args, "mos", {"mos": MosParams()})
    p = objs["mos"]
    vds_list = _float_list(args.vds)
    v_g = np.linspace(args.start, args.stop, args.points)
    currents = [drain_current(p, v_g, v_ds, method=args.method) for v_ds in vds_list]
    data = np.column_stack([v_g] + currents)
    cols = ["v_g"] + [f"i_d_vds{v:g}" for v in vds_list]
    _write(args, cols, data, _metadata(args, objs))
    return EXIT_OK


def cmd_idvd(args) -> int:
    objs = _resolve(args, "mos", {"mos": MosParams()})
    p = objs["mos"]
    vg_list = _float_list(args.vg)
    v_ds = np.linspace(args.start, args.stop, args.points)
    currents = [drain_current(p, v_g, v_ds, method=args.method) for v_g in vg_list]
    data = np.column_stack([v_ds] + currents)
    cols = ["v_ds"] + [f"i_d_vg{v:g}" for v in vg_list]
    _write(args, cols, data, _metadata(args, objs))
    return EXIT_OK


def cmd_cv(args) -> int:
    objs = _resolve(args, "mos", {"mos": MosParams()})
    p = objs["mos"]
    v_g = np.linspace(args.start, args.stop, args.points)
    tc = terminal_charges(p, v_g, args.vds, method=args.method)
    data = np.column_stack([v_g, tc.q_g, tc.q_s, tc.q_d, tc.q_bulk,
                            np.gradient(tc.q_g, v_g)])
    cols = ["v_g", "q_g", "q_s", "q_d", "q_bulk", "c_gg"]
    meta = _metadata(args, objs,
                     c_gg="central differences of q_g on the sweep grid")
    _write(args, cols, data, meta)
    return EXIT_OK


def cmd_gummel(args) -> int:
    objs = _resolve(args, "mos", {"mos": MosParams()})
    p = objs["mos"]
    v_x = np.linspace(-args.span, args.span, args.points)
    i = gummel_current(p, args.vg, v_x, method=args.method)
    d1 = np.gradient(i, v_x)
    d2 = np.gradient(d1, v_x)
    d3 = np.gradient(d2, v_x)
    meta = _metadata(args, objs, derivatives="repeated central differences")
    _write(args, ["v_x", "i", "di1", "di2", "di3"],
           np.column_stack([v_x, i, d1, d2, d3]), meta)
    return EXIT_OK


# ------------------------------------------------------- device experiments

def cmd_rram_iv(args) -> int:
    objs = _resolve(args, "rram", {"rram": RramParams()})
    p = objs["rram"]
    v, i, x = hysteresis_loop(p, v_peak=args.v_peak, period=args.period,
                              tstep=args.tstep)
    t = np.arange(v.size) * args.tstep
    _write(args, ["t", "v", "i", "x"], np.column_stack([t, v, i, x]),
           _metadata(args, objs))
    return EXIT_OK


def cmd_rram_tune(args) -> int:
    objs = _resolve(args, "rram", {"rram": RramParams(), "mos": MosParams()})
    v_pgm = np.linspace(args.vpgm_start, args.vpgm_stop, args.vpgm_points)
    x, i_read = tuning_curve_1t1r(objs["rram"], objs["mos"], v_pgm,
                                  v_set=args.v_set, v_read=args.v_read,
                                  width=args.width)
    _write(args, ["v_pgm", "x", "i_read"], np.column_stack([v_pgm, x, i_read]),
           _metadata(args, objs))
    return EXIT_OK


def cmd_fg_pulse(args) -> int:
    objs = _resolve(args, "fg", {"fg": FloatingGateParams()})
    p = objs["fg"]
    q_fg = 0.0
    rows = [(0, 0, 0.0, q_fg,
             fg_read_current(p, q_fg, v_read=args.v_read, v_sg=args.v_sg))]
    schedule = [("pfb", args.amp_strengthen)] * args.strengthen \
        + [("nfb", args.amp_weaken)] * args.weaken
    # one read per pulse: the read before a pulse is the previous row's
    for k, (terminal, amp) in enumerate(schedule, 1):
        q_fg = fg_program_pulse(p, q_fg, terminal, amp, args.width)
        rows.append((k, 1 if terminal == "pfb" else 0, amp, q_fg,
                     fg_read_current(p, q_fg, v_read=args.v_read,
                                     v_sg=args.v_sg)))
    meta = _metadata(args, objs,
                     pfb_column="1 strengthen pulse, 0 weaken pulse")
    _write(args, ["pulse", "pfb", "amplitude", "q_fg", "i_read"],
           np.array(rows, float), meta)
    return EXIT_OK


# ----------------------------------------------------------- experiments

def cmd_crossbar_and(args) -> int:
    objs = _resolve(args, "train", {"train": TrainConfig(), "rram": RramParams()})
    cfg, p = objs["train"], objs["rram"]
    device = train_and_gate(cfg=cfg, params=p)
    software = train_and_gate_software(params=p, cfg=cfg)
    patterns = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
    targets = np.array([0, 0, 0, 1], float)
    data = np.column_stack([
        patterns, targets,
        device.activations, (device.activations > cfg.threshold).astype(float),
        software.activations, (software.activations > cfg.threshold).astype(float),
    ])
    meta = _metadata(
        args, objs,
        device_epochs=device.epochs_used,
        device_correct=device.n_correct,
        software_epochs=software.epochs_used,
        software_correct=software.n_correct,
        device_weights=np.array2string(device.weights, precision=6),
        software_weights=np.array2string(software.weights, precision=6))
    _write(args, ["a", "b", "target", "act_dev", "pred_dev", "act_sw", "pred_sw"],
           data, meta)
    if not (device.success and software.success):
        print("AND training did not reach 4/4", file=sys.stderr)
        return EXIT_SIM
    return EXIT_OK


def cmd_mnist_train(args) -> int:
    objs = _resolve(args, "train", {"train": MacromodelConfig()})
    located = find_mnist(args.data_dir)
    if located is None:
        print("mnist-train: no IDX files found (use --data-dir or "
              "SYNAPSIM_MNIST_DIR)", file=sys.stderr)
        return EXIT_SIM
    train, test = located
    report = train_macromodel(objs["train"], train, test)
    epochs = np.arange(1, len(report.epoch_loss) + 1)
    data = np.column_stack([epochs, report.epoch_loss,
                            report.epoch_train_acc, report.epoch_test_acc])
    meta = _metadata(args, objs, mode=report.mode,
                     final_test_acc=report.final_test_acc)
    for row in report.confusion:
        meta.append("confusion: " + " ".join(str(int(v)) for v in row))
    _write(args, ["epoch", "loss", "train_acc", "test_acc"], data, meta)
    return EXIT_OK


def cmd_run(args) -> int:
    with open(args.netlist) as fh:
        parsed = parse_netlist(fh.read())
    for warning in parsed.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not parsed.analyses:
        print("run: netlist has no analysis card", file=sys.stderr)
        return EXIT_USAGE
    # the netlist as parsed, one card per line: it parses back to this run
    cards = serialize_netlist(parsed.circuit, parsed.analyses).splitlines()
    for spec in parsed.analyses:
        result = run_analysis(parsed.circuit, spec)
    meta = _metadata(args, {}) + [f"card: {card}" for card in cards]
    _write(args, result.columns, result.data, meta)
    return EXIT_OK


def cmd_bench(args) -> int:
    objs = _resolve(args, "mos", {"mos": MosParams()})
    r = bench_model_eval(objs["mos"], n=args.n, reps=args.reps, seed=args.seed)
    row = [r.n, r.reps,
           r.solver_s["reference"], r.solver_s["householder"],
           r.eval_s["reference"], r.eval_s["householder"],
           r.evals_per_s["reference"], r.evals_per_s["householder"],
           r.solver_ratio, r.eval_ratio,
           r.eval_spread["reference"], r.eval_spread["householder"]]
    cols = ["n", "reps", "solver_s_ref", "solver_s_hh", "eval_s_ref",
            "eval_s_hh", "evals_per_s_ref", "evals_per_s_hh",
            "solver_ratio", "eval_ratio", "eval_spread_ref", "eval_spread_hh"]
    meta = _metadata(
        args, objs,
        grid="v_g uniform [-0.5, 1.5], v_ds uniform [0, 1]",
        timed="charge solves (solver stage) + shared I_d/terminal-charge stage",
        stat=f"median of {r.reps} repetitions after one warm-up pass")
    _write(args, cols, [row], meta)
    print(f"solver ratio reference/householder: {r.solver_ratio:.1f}x")
    print(f"complete-eval ratio reference/householder: {r.eval_ratio:.2f}x")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _common(sub):
    sub.add_argument("--params", help="key=value parameter file")
    sub.add_argument("--out", help="output CSV path (default <subcommand>.csv, - as _)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one parameter (repeatable)")


def _mos_sweep(sub, start=None, stop=None):
    """The grid and solver flags of the MOSFET sweeps; without ``start``
    the grid is set by the subcommand's own flags (gummel's --span)."""
    if start is not None:
        sub.add_argument("--start", type=float, default=start)
        sub.add_argument("--stop", type=float, default=stop)
    sub.add_argument("--points", type=int, default=201)
    sub.add_argument("--method", choices=list(SOLVERS),
                     default="householder")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synapsim",
        description="Device-model characterization and crossbar experiments")
    parser.add_argument("--version", action="version",
                        version=f"synapsim {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("idvg", help="transfer sweep I_d(V_g)")
    _common(sp)
    _mos_sweep(sp, start=-0.5, stop=1.5)
    sp.add_argument("--vds", default="0.05,1.0", help="comma list of V_ds")
    sp.set_defaults(func=cmd_idvg)

    sp = subs.add_parser("idvd", help="output sweep I_d(V_ds)")
    _common(sp)
    _mos_sweep(sp, start=0.0, stop=1.0)
    sp.add_argument("--vg", default="0.6,0.8,1.0,1.2", help="comma list of V_g")
    sp.set_defaults(func=cmd_idvd)

    sp = subs.add_parser("cv", help="quasi-static terminal charges vs V_g")
    _common(sp)
    _mos_sweep(sp, start=-0.5, stop=1.5)
    sp.add_argument("--vds", type=float, default=0.0)
    sp.set_defaults(func=cmd_cv)

    sp = subs.add_parser("gummel", help="symmetry sweep I(V_x) and derivatives")
    _common(sp)
    _mos_sweep(sp)
    sp.add_argument("--vg", type=float, default=1.0)
    sp.add_argument("--span", type=float, default=0.1)
    sp.set_defaults(func=cmd_gummel)

    sp = subs.add_parser("rram-iv", help="bipolar hysteresis loop")
    _common(sp)
    sp.add_argument("--v-peak", type=float, default=IV_V_PEAK)
    sp.add_argument("--period", type=float, default=IV_PERIOD)
    sp.add_argument("--tstep", type=float, default=IV_TSTEP)
    sp.set_defaults(func=cmd_rram_iv)

    sp = subs.add_parser("rram-tune", help="1T1R compliance tuning curve")
    _common(sp)
    sp.add_argument("--vpgm-start", type=float, default=0.25)
    sp.add_argument("--vpgm-stop", type=float, default=1.4)
    sp.add_argument("--vpgm-points", type=int, default=16)
    sp.add_argument("--v-set", type=float, default=V_SET_1T1R)
    sp.add_argument("--v-read", type=float, default=V_READ_1T1R)
    sp.add_argument("--width", type=float, default=SET_WIDTH)
    sp.set_defaults(func=cmd_rram_tune)

    sp = subs.add_parser("fg-pulse", help="floating-gate program/read sequence")
    _common(sp)
    sp.add_argument("--strengthen", type=int, default=5)
    sp.add_argument("--weaken", type=int, default=5)
    sp.add_argument("--amp-strengthen", type=float, default=4.5)
    sp.add_argument("--amp-weaken", type=float, default=-3.1)
    sp.add_argument("--width", type=float, default=100e-6)
    sp.add_argument("--v-read", type=float, default=V_READ_FG)
    sp.add_argument("--v-sg", type=float, default=V_SG_FG)
    sp.set_defaults(func=cmd_fg_pulse)

    sp = subs.add_parser("crossbar-and", help="device-in-the-loop AND training")
    _common(sp)
    sp.set_defaults(func=cmd_crossbar_and)

    sp = subs.add_parser("mnist-train", help="macromodel MLP on MNIST IDX data")
    _common(sp)
    sp.add_argument("--data-dir", help="directory with the four IDX files")
    sp.set_defaults(func=cmd_mnist_train)

    sp = subs.add_parser("run", help="parse and run a netlist")
    _common(sp)
    sp.add_argument("netlist", help="netlist file path")
    sp.set_defaults(func=cmd_run)

    sp = subs.add_parser("bench", help="solver-variant throughput benchmark")
    _common(sp)
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--reps", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetlistError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, TransientError, ChargeSolveError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIM
    except (OSError, ValueError) as exc:    # ParamError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
