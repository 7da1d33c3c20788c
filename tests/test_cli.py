"""CLI contracts: exit codes, CSV artifacts, determinism."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from synapsim.cli import build_parser, main
from synapsim.engine import parse_netlist, run_analysis, serialize_netlist
from synapsim.mosfet import MosParams, drain_current
from test_mnist_loader import _image_bytes, _label_bytes


def _read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            meta.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


def test_idvg_matches_direct_model_calls(tmp_path):
    out = tmp_path / "idvg.csv"
    assert main(["idvg", "--points", "41", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["v_g", "i_d_vds0.05", "i_d_vds1"]
    p = MosParams()
    v_g = rows[:, 0]
    assert v_g[0] == -0.5 and v_g[-1] == 1.5
    np.testing.assert_allclose(rows[:, 1], drain_current(p, v_g, 0.05),
                               rtol=1e-12)
    np.testing.assert_allclose(rows[:, 2], drain_current(p, v_g, 1.0),
                               rtol=1e-12)


def test_csv_metadata_is_self_describing(tmp_path):
    out = tmp_path / "idvg.csv"
    main(["idvg", "--points", "11", "--set", "l=20n", "--out", str(out)])
    meta, _, _ = _read_csv(out)
    joined = "\n".join(meta)
    assert "subcommand: idvg" in joined
    assert "mos.l: 2e-08" in joined          # override present, resolved
    for line in ("start: -0.5", "stop: 1.5", "points: 11"):   # sweep spec
        assert line in meta
    for line in meta:                        # deterministic: no timestamps
        assert "time" not in line.lower().split(":")[0]


def test_rerun_is_bit_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gummel", "--points", "21", "--out", str(a)])
    main(["gummel", "--points", "21", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cv_reverse_bias_is_swapped_forward_sweep(tmp_path):
    """V_ds = -0.2 is the device with source and drain exchanged: the
    forward sweep at V_g + 0.2, V_ds = +0.2 with q_s and q_d swapped."""
    rev, fwd = tmp_path / "rev.csv", tmp_path / "fwd.csv"
    assert main(["cv", "--vds", "-0.2", "--points", "41", "--out", str(rev)]) == 0
    assert main(["cv", "--vds", "0.2", "--start", "-0.3", "--stop", "1.7",
                 "--points", "41", "--out", str(fwd)]) == 0
    _, header, r = _read_csv(rev)
    _, _, f = _read_csv(fwd)
    col = header.index
    np.testing.assert_allclose(r[:, 0] + 0.2, f[:, 0], rtol=0, atol=1e-15)
    for a, b in (("q_g", "q_g"), ("q_s", "q_d"), ("q_d", "q_s"),
                 ("q_bulk", "q_bulk")):
        np.testing.assert_allclose(r[:, col(a)], f[:, col(b)], rtol=1e-12)
    c_gg = f[:, col("c_gg")]
    np.testing.assert_allclose(r[:, col("c_gg")], c_gg, rtol=0,
                               atol=1e-12 * np.max(np.abs(c_gg)))


def test_params_file_and_set_override(tmp_path):
    par = tmp_path / "dev.par"
    par.write_text("mos.l = 20n\nmos.w = 80n\n")
    out = tmp_path / "o.csv"
    code = main(["idvg", "--points", "5", "--params", str(par),
                 "--set", "mos.l=40n", "--out", str(out)])
    assert code == 0
    meta, _, _ = _read_csv(out)
    assert "mos.l: 4e-08" in meta            # --set wins over file
    assert "mos.w: 8e-08" in meta


def test_unknown_parameter_is_usage_error(tmp_path, capsys):
    code = main(["idvg", "--set", "nosuch=1", "--out",
                 str(tmp_path / "x.csv")])
    assert code == 2
    assert "nosuch" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["idvg", "--frobnicate"])
    assert exc.value.code == 2


def test_run_reports_parse_error_with_line(tmp_path, capsys):
    net = tmp_path / "bad.sp"
    net.write_text("v1 in 0 dc 1\nqx 1 2 3 mystery\n.op\n.end\n")
    code = main(["run", str(net), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.sp")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    assert main(["idvg", "--points", "5", "--out", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err


def test_run_netlist_without_analysis_exits_2(tmp_path, capsys):
    net = tmp_path / "noa.sp"
    net.write_text("v1 in 0 dc 1\nr1 in 0 1k\n.end\n")
    assert main(["run", str(net), "--out", str(tmp_path / "o.csv")]) == 2
    assert "no analysis" in capsys.readouterr().err


def test_run_voltage_divider(tmp_path):
    net = tmp_path / "div.sp"
    net.write_text("v1 in 0 dc 2\nr1 in mid 1k\nr2 mid 0 3k\n.op\n.end\n")
    out = tmp_path / "div.csv"
    assert main(["run", str(net), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert rows[0][header.index("v(mid)")] == pytest.approx(1.5, rel=1e-12)


def test_run_header_reparses_to_the_same_circuit(tmp_path):
    net = tmp_path / "cell.sp"
    net.write_text(".model mem rram g_on=2m\n"
                   "v1 in 0 PULSE(0 1 1n 1n 1n 20n 50n)\n"
                   "r1 in a 1k\nxr1 a 0 model=mem x0=0.25\n"
                   ".op\n.tran 1n 30n uic\n.end\n")
    out = tmp_path / "cell.csv"
    assert main(["run", str(net), "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    cards = [m[len("card: "):] for m in meta if m.startswith("card: ")]
    parsed = parse_netlist("\n".join(cards))
    original = parse_netlist(net.read_text())
    assert (serialize_netlist(parsed.circuit, parsed.analyses)
            == serialize_netlist(original.circuit, original.analyses))
    assert [s.kind for s in parsed.analyses] == ["op", "tran"]
    # the rebuilt run gives the recorded rows
    res = [run_analysis(parsed.circuit, s) for s in parsed.analyses][-1]
    np.testing.assert_allclose(res.data, rows, rtol=1e-14, atol=0)


def test_crossbar_and_device_and_software_learn_and(tmp_path):
    out = tmp_path / "and.csv"
    assert main(["crossbar-and", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert rows.shape[0] == 4
    col = header.index
    np.testing.assert_array_equal(rows[:, col("pred_dev")],
                                  rows[:, col("target")])
    np.testing.assert_array_equal(rows[:, col("pred_sw")],
                                  rows[:, col("target")])


@pytest.mark.parametrize("assignment", ["train.activation=tanh",
                                        "train.gate_grid=0.3,1.2,8",
                                        "train.v_set_1t1r=1"])
def test_crossbar_and_rejects_removed_train_keys(tmp_path, assignment):
    # these keys never changed the crossbar-and result, so they are not
    # parameters of it
    assert main(["crossbar-and", "--set", assignment, "--out",
                 str(tmp_path / "and.csv")]) == 2


def test_rram_iv_starts_at_the_model_cards_x_init(tmp_path):
    out = tmp_path / "iv.csv"
    assert main(["rram-iv", "--tstep", "1e-5", "--set", "rram.x_init=0.5",
                 "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert "rram.x_init: 0.5" in meta
    assert rows[0, header.index("x")] == 0.5


def test_fg_pulse_reads_once_per_pulse(tmp_path, monkeypatch):
    # the read before a pulse is the previous row's read at the same
    # charge, so 10 pulses take 11 reads
    import synapsim.cli as cli
    import synapsim.floatgate as floatgate

    reads = []
    read = floatgate.fg_read_current

    def counting_read(*args, **kw):
        reads.append(args[1])
        return read(*args, **kw)

    monkeypatch.setattr(floatgate, "fg_read_current", counting_read)
    monkeypatch.setattr(cli, "fg_read_current", counting_read)
    out = tmp_path / "fg.csv"
    assert main(["fg-pulse", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert len(rows) == 11 and len(reads) == 11
    # each read is at the charge of its row (the CSV keeps 15 digits)
    np.testing.assert_allclose(reads, rows[:, header.index("q_fg")],
                               rtol=1e-14, atol=0)


def test_bench_zero_points_is_usage_error(tmp_path, capsys):
    assert main(["bench", "--n", "0", "--out", str(tmp_path / "b.csv")]) == 2
    assert "at least one point" in capsys.readouterr().err


def test_bench_small_grid_writes_report(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n", "500", "--reps", "2", "--out",
                 str(out)]) == 0
    _, header, rows = _read_csv(out)
    ratio = rows[0][header.index("solver_ratio")]
    assert ratio > 1.0                       # explicit path faster even tiny
    assert rows[0][header.index("n")] == 500


def test_mnist_without_data_is_simulation_failure(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.delenv("SYNAPSIM_MNIST_DIR", raising=False)
    code = main(["mnist-train", "--data-dir", str(tmp_path),
                 "--out", str(tmp_path / "m.csv")])
    assert code == 1
    assert "IDX" in capsys.readouterr().err


def test_console_entry_point_version():
    res = subprocess.run([sys.executable, "-m", "synapsim.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("synapsim ")


@pytest.mark.parametrize("key", ["c_ox", "v_t"])
def test_derived_mos_quantity_is_not_settable(tmp_path, capsys, key):
    code = main(["idvg", "--points", "5", "--set", f"mos.{key}=1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert key in capsys.readouterr().err


def test_derived_rram_quantity_is_not_settable(tmp_path, capsys):
    code = main(["rram-iv", "--tstep", "5e-5", "--set", "rram.ln_g_ratio=1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "ln_g_ratio" in capsys.readouterr().err


def test_rram_header_lists_only_model_parameters(tmp_path):
    out = tmp_path / "iv.csv"
    assert main(["rram-iv", "--tstep", "5e-5", "--out", str(out)]) == 0
    meta, _, _ = _read_csv(out)
    keys = [line.split(":")[0] for line in meta if line.startswith("rram.")]
    assert keys == ["rram.g_on", "rram.g_off", "rram.v0", "rram.k_set",
                    "rram.k_reset", "rram.vc_set", "rram.vc_reset", "rram.p",
                    "rram.x_init"]


def test_header_lists_only_model_parameters(tmp_path):
    out = tmp_path / "idvg.csv"
    assert main(["idvg", "--points", "5", "--out", str(out)]) == 0
    meta, _, _ = _read_csv(out)
    keys = [line.split(":")[0] for line in meta if line.startswith("mos.")]
    assert keys == ["mos." + f.name for f in dataclasses.fields(MosParams)
                    if f.init]
    assert len(keys) == 15 and "mos.c_ox" not in keys


@pytest.fixture
def mnist_dir(tmp_path):
    """A tiny synthetic IDX set of 4x4 images under the standard names."""
    rng = np.random.default_rng(5)
    for split, n in (("train", 40), ("t10k", 20)):
        images = rng.integers(0, 256, (n, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, n, dtype=np.uint8)
        (tmp_path / f"{split}-images-idx3-ubyte").write_bytes(_image_bytes(images))
        (tmp_path / f"{split}-labels-idx1-ubyte").write_bytes(_label_bytes(labels))
    return tmp_path


_TINY_MNIST = ["--set", "train.layer_sizes=16,8,10", "--set", "train.epochs=1"]


def test_mnist_train_records_its_seed_and_reruns_identically(mnist_dir,
                                                             tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["mnist-train", "--data-dir", str(mnist_dir), *_TINY_MNIST,
                     "--set", "train.seed=7", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(a)
    assert "train.seed: 7" in meta
    assert header == ["epoch", "loss", "train_acc", "test_acc"]
    assert rows.shape == (1, 4)
    assert a.read_bytes() == b.read_bytes()


def test_mnist_train_has_no_seed_flag(mnist_dir):
    # the seed is train.seed, set by --set like every other train.* key
    with pytest.raises(SystemExit) as exc:
        main(["mnist-train", "--data-dir", str(mnist_dir), "--seed", "7"])
    assert exc.value.code == 2


# one cheap invocation per subcommand; {dir} and {net} are filled per test
_CHEAP_RUNS = {
    "idvg": ["--points", "5"],
    "idvd": ["--points", "5", "--vg", "0.8"],
    "cv": ["--points", "5", "--vds", "0.1"],
    "gummel": ["--points", "9"],
    "rram-iv": ["--tstep", "5e-5"],
    "rram-tune": ["--vpgm-points", "2"],
    "fg-pulse": ["--strengthen", "1", "--weaken", "1"],
    "crossbar-and": [],
    "mnist-train": ["--data-dir", "{dir}", *_TINY_MNIST],
    "run": ["{net}"],
    "bench": ["--n", "500", "--reps", "2", "--seed", "3"],
}


@pytest.mark.parametrize("subcommand", sorted(_CHEAP_RUNS))
def test_header_records_every_option(subcommand, mnist_dir, tmp_path):
    net = tmp_path / "div.sp"
    net.write_text("v1 in 0 dc 2\nr1 in 0 1k\n.op\n.end\n")
    argv = [subcommand] + [a.format(dir=mnist_dir, net=net)
                           for a in _CHEAP_RUNS[subcommand]]
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta, _, _ = _read_csv(out)
    options = vars(build_parser().parse_args(argv))
    skipped = {"subcommand", "func", "out", "params", "set"}
    assert set(options) >= skipped
    for key, value in options.items():
        if key not in skipped:
            assert f"{key}: {value!r}" in meta
