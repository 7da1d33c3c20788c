"""Netlist parser, number grammar, and round-trip serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synapsim.engine.analysis as analysis
from synapsim.engine import (AnalysisSpec, Capacitor, Circuit, CircuitError,
                             FloatGateElement, ISource, Mosfet, NetlistError,
                             PulseSpec, Resistor, RramElement, SystemLayout,
                             VSource, dc_sweep, operating_point,
                             parse_netlist, parse_number, run_analysis,
                             serialize_netlist, transient)
from synapsim.engine.analysis import INTEGRATORS
from synapsim.engine.mna import solve_dc
from synapsim.floatgate import FloatingGateParams
from synapsim.mosfet import MosParams
from synapsim.rram import RramParams, rram_current


def test_engineering_suffixes():
    assert parse_number("1k") == 1e3
    assert parse_number("1K") == 1e3
    assert parse_number("2.2u") == pytest.approx(2.2e-6)
    assert parse_number("1meg") == 1e6
    assert parse_number("1MEG") == 1e6
    assert parse_number("3f") == 3e-15
    assert parse_number("10p") == 1e-11
    assert parse_number("5n") == 5e-9
    assert parse_number("4m") == 4e-3
    assert parse_number("2g") == 2e9
    assert parse_number("1e-9") == 1e-9
    assert parse_number("-3.5") == -3.5
    assert parse_number(".5") == 0.5


@pytest.mark.parametrize("bad", ["", "k", "1kk", "1.2.3", "one", "1 k",
                                 "0x10"])
def test_malformed_numbers_rejected(bad):
    with pytest.raises(ValueError):
        parse_number(bad)


def test_basic_cards():
    r = parse_netlist("""
* a comment line
V1 in 0 DC 1.0
R1 in mid 1k
C1 mid 0 2.2u
.op
.end
""")
    c = r.circuit
    assert isinstance(c.element("r1"), Resistor)
    assert c.element("r1").value == 1e3
    assert isinstance(c.element("c1"), Capacitor)
    assert c.element("v1").dc == 1.0
    assert r.analyses[0].kind == "op"
    assert r.warnings == []


def test_case_insensitive_and_pulse():
    r = parse_netlist("""
v1 IN 0 pulse(0 1 1U 1N 1N 5u 10u)
r1 in 0 1K
.TRAN 1u 20u UIC
.end
""")
    v = r.circuit.element("v1")
    assert isinstance(v, VSource)
    assert v.pulse.td == 1e-6
    assert v.pulse.pw == 5e-6
    assert v.pulse.per == 1e-5
    spec = r.analyses[0]
    assert spec.kind == "tran" and spec.uic
    assert spec.tstep == 1e-6 and spec.tstop == 2e-5



# circuits built through the API take names in any case, as netlists do;
# an element keeps its name as given for the columns of a result

def test_api_element_lookup_in_any_case():
    c = Circuit()
    c.add(VSource("V1", "a", "0", dc=1.0))
    assert c.element("V1") is c.element("v1")
    assert c.element("v1").name == "V1"


def test_api_rejects_element_names_that_differ_only_in_case():
    c = Circuit()
    c.add(Resistor("R1", "a", "0", 1e3))
    with pytest.raises(CircuitError, match="duplicate element 'r1'"):
        c.add(Resistor("r1", "a", "0", 1e3))


def test_api_rejects_a_node_name_with_a_hash():
    # "<element>#x" is an RRAM's state node; a terminal may not reach it
    c = Circuit()
    c.add_model("mem", "rram", RramParams())
    c.add(RramElement("xr1", "a", "0", model="mem"))
    with pytest.raises(CircuitError, match="element 'r1'.*'xr1#x'"):
        c.add(Resistor("r1", "xr1#x", "0", 1e3))
    assert [e.name for e in c.elements] == ["xr1"]


def test_netlist_rejects_a_node_name_with_a_hash_on_its_line():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("""
.model mem rram
v1 a 0 DC 0.5
xr1 a 0 model=mem
r1 xr1#x 0 1k
.op
.end
""")
    assert any(m.startswith("line 5:") and "'xr1#x'" in m and "'#'" in m
               for m in exc.value.errors)


def test_dc_sweep_of_an_element_that_is_not_a_voltage_source():
    c = Circuit()
    c.add(ISource("i1", "a", "0", dc=1e-3))
    c.add(Resistor("r1", "a", "0", 1e3))
    with pytest.raises(ValueError, match="'i1' is not a voltage source"):
        dc_sweep(c, AnalysisSpec(kind="dc", src="i1", start=0.0, stop=1e-3,
                                 step=5e-4))
    with pytest.raises(ValueError, match="'v9' not in circuit"):
        dc_sweep(c, AnalysisSpec(kind="dc", src="v9", start=0.0, stop=1.0,
                                 step=0.5))


def test_api_model_and_node_references_in_any_case():
    c = Circuit()
    c.add_model("MEM", "rram", RramParams())
    c.add(VSource("V1", "A", "0", dc=0.1))
    c.add(RramElement("XR1", "A", "0", model="MEM", x0=1.0))
    res = operating_point(c, AnalysisSpec(kind="op"))
    assert res.columns == ["v(a)", "v(xr1#x)", "i(V1)"]
    assert -res.column("i(v1)")[0] == pytest.approx(
        rram_current(RramParams(), 0.1, 1.0), rel=1e-12, abs=0.0)


def test_api_sweep_and_override_name_their_source_in_any_case():
    c = Circuit()
    c.add(VSource("V1", "a", "0", dc=0.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    res = dc_sweep(c, AnalysisSpec(kind="dc", src="V1", start=0.0, stop=1.0,
                                   step=0.5))
    np.testing.assert_allclose(res.column("i(v1)"), [0.0, -5e-4, -1e-3],
                               rtol=1e-12, atol=0)
    # a source's value reaches a solve through its element alone
    c.element("v1").dc = 0.25
    x = solve_dc(SystemLayout(c), AnalysisSpec(kind="op"))
    assert x[0] == 0.25


def test_pulse_value_waveform():
    r = parse_netlist("""
V1 a 0 PULSE(0 1 1u 1n 1n 5u 10u)
R1 a 0 1k
.end
""")
    p = r.circuit.element("v1").pulse
    assert p.value_at(0.0) == 0.0
    assert p.value_at(1.0005e-6) == pytest.approx(0.5)
    assert p.value_at(3e-6) == 1.0
    assert p.value_at(8e-6) == 0.0
    assert p.value_at(13e-6) == 1.0           # periodic repeat


def test_parse_errors_carry_line_numbers():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("""
R1 a 0 1k
Q1 a b c
R2 a 0 zonk
.end
""")
    msgs = exc.value.errors
    assert any(m.startswith("line 3:") and "unknown card" in m for m in msgs)
    assert any(m.startswith("line 4:") and "malformed number" in m
               for m in msgs)


def test_unresolved_model_is_error():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("""
V1 d 0 DC 1
M1 d d 0 model=missing
.end
""")
    assert any("unknown model 'missing'" in m for m in exc.value.errors)


def test_every_unbound_element_is_reported_on_its_line():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("V1 d 0 DC 1\nM1 d d 0 model=missing\n"
                      "XR1 d 0 model=gone\n.model nfet cmg\n"
                      "XR2 d 0 model=nfet\n.end\n")
    assert exc.value.errors == [
        "line 2: element 'm1' references unknown model 'missing'",
        "line 3: element 'xr1' references unknown model 'gone'",
        "line 5: element 'xr2' needs a 'rram' model but 'nfet' is 'cmg'"]


def test_resolve_raises_circuit_error_naming_every_element():
    c = Circuit()
    c.add(Mosfet("m1", "d", "d", "0", "missing"))
    c.add(RramElement("xr1", "d", "0", "gone"))
    with pytest.raises(CircuitError) as exc:
        c.resolve()
    assert set(exc.value.by_element) == {"m1", "xr1"}
    assert "'missing'" in str(exc.value) and "'gone'" in str(exc.value)


def test_ground_error_has_no_line():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("V1 a b DC 1\nR1 a b 1k\n.op\n.end\n")
    assert exc.value.errors == ["no element connects to ground node 0"]


@pytest.mark.parametrize("name", ["pulsed", "pulse2"])
def test_names_starting_with_pulse_parse(name):
    r = parse_netlist(f".model {name} rram\nV1 {name} 0 DC 1\n"
                      f"XR1 {name} 0 model={name}\n.op\n.end\n")
    assert r.circuit.element("v1").terminals == (name, "0")
    assert r.circuit.element("xr1").model == name


@pytest.mark.parametrize("card", ["V1 a 0 PULSE(0 1",
                                  "V1 a 0 PULSE 0 1 0 1n 1n 5n 10n"])
def test_unclosed_or_bare_pulse_is_malformed(card):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(f"{card}\nR1 a 0 1k\n.end\n")
    assert exc.value.errors == ["line 1: malformed PULSE(...) clause"]


def test_dangling_node_warning():
    r = parse_netlist("""
V1 a 0 DC 1
R1 a b 1k
R2 a 0 2k
.end
""")
    assert any("'b'" in w for w in r.warnings)


def test_model_cards_resolve():
    r = parse_netlist("""
.model nfet cmg l=30n w=40n
.model mem rram g_on=1m g_off=10u
.model syn fg c_sg=0.1f mos=nfet
V1 d 0 DC 1
M1 d d 0 model=nfet
XR1 d 0 model=mem x0=0.25
XF1 d 0 g nb pb model=syn qfg0=1e-17
Vg g 0 DC 1
Vnb nb 0 DC 0
Vpb pb 0 DC 0
.end
""")
    c = r.circuit
    assert c.element("m1").params.l == 30e-9
    assert c.element("xr1").params.g_on == 1e-3
    assert c.element("xr1").x0 == 0.25
    fg = c.element("xf1")
    assert fg.params.c_sg == 1e-16
    assert fg.params.mos.l == 30e-9
    assert fg.qfg0 == 1e-17
    # carried state seeded from x0/qfg0
    assert c.state["xr1"] == 0.25
    assert c.state["xf1"] == 1e-17


def test_bad_model_kind_and_key():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("""
.model m1 what a=1
.model m2 rram zap=3
R1 a 0 1k
V1 a 0 DC 1
.end
""")
    assert any("unknown model kind" in m for m in exc.value.errors)
    assert any("unknown key 'zap'" in m for m in exc.value.errors)


@pytest.mark.parametrize("word, value", [("no", False), ("yes", True)])
def test_model_card_booleans_read_like_set(word, value):
    r = parse_netlist(f"""
.model n cmg vel_saturation={word}
V1 d 0 DC 1
M1 d d 0 model=n
.end
""")
    assert r.circuit.element("m1").params.vel_saturation is value


def test_bad_model_card_values_are_line_tagged_errors():
    # every bad value on a card is reported, not only the first
    with pytest.raises(NetlistError) as exc:
        parse_netlist("""
V1 d 0 DC 1
.model n cmg mob_degradation=banana l=3x vel_saturation=maybe
M1 d d 0 model=n
.end
""")
    bad = [m for m in exc.value.errors if m.startswith("line 3:")]
    assert len(bad) == 3
    assert any("mob_degradation" in m and "banana" in m for m in bad)
    assert any("'l'" in m and "3x" in m for m in bad)
    assert any("vel_saturation" in m and "maybe" in m for m in bad)


def test_model_card_takes_every_model_parameter():
    r = parse_netlist("""
.model n cmg eps_ox=3e-11 eps_si=1e-10
V1 d 0 DC 1
M1 d d 0 model=n
.end
""")
    p = r.circuit.element("m1").params
    assert p.eps_ox == 3e-11 and p.eps_si == 1e-10
    assert p.c_ox == pytest.approx(3e-11 / p.eot)


def test_text_after_end_ignored():
    r = parse_netlist("""
V1 a 0 DC 1
R1 a 0 1k
.end
utter garbage that must not parse
""")
    assert len(r.circuit.elements) == 2


def test_round_trip_identity():
    text = """
.model nfet cmg l=25n w=50n mob_degradation=1 vel_saturation=no
.model mem rram g_on=2m g_off=5u p=2
.model syn fg c_sg=0.2f mos=nfet
V1 in 0 DC 0.5 PULSE(0 1.2 0 0.25m 0.25m 0 1m)
R1 in mid 10k
C1 mid 0 1n
M1 mid g 0 model=nfet
XR1 mid 0 model=mem x0=0.5
Vg g 0 DC 0.9
.dc v1 0 1 0.1
.tran 1u 1m
.op
.end
"""
    first = parse_netlist(text)
    ser = serialize_netlist(first.circuit, first.analyses)
    second = parse_netlist(ser)
    assert second.circuit.elements == first.circuit.elements
    assert second.circuit.models == first.circuit.models
    assert second.analyses == first.analyses
    # serialization is a fixed point after one pass
    assert serialize_netlist(second.circuit, second.analyses) == ser


@pytest.mark.parametrize("words, integrator, written", [
    ("", "be", ".tran 1e-06 0.001"),
    ("method=be", "be", ".tran 1e-06 0.001"),
    ("method=trap", "trap", ".tran 1e-06 0.001 method=trap"),
    ("METHOD=Trap uic", "trap", ".tran 1e-06 0.001 uic method=trap")])
def test_tran_method_round_trips(words, integrator, written):
    # the writer leaves the default integrator out, as it leaves out
    # every default
    first = parse_netlist(f"v1 a 0 dc 1\nr1 a 0 1k\n.tran 1u 1m {words}\n")
    assert first.analyses[0].integrator == integrator
    text = serialize_netlist(first.circuit, first.analyses)
    assert text.splitlines()[-2] == written
    assert parse_netlist(text).analyses == first.analyses


_TRAN_USAGE = (".tran expects: tstep tstop [uic] [method=<integrator>] "
               "[growth=<growth>]")


@pytest.mark.parametrize("card, message", [
    (".tran 1u 1m method=gear",
     ".tran: integrator must be 'be' or 'trap', not 'gear'"),
    (".tran 1u 1m method=trap method=be", _TRAN_USAGE),
    (".tran 1u 1m integrator=trap", _TRAN_USAGE),
    (".op method=trap", ".op expects: no arguments"),
    (".tran 1u 1m growth=0.5",
     ".tran: growth must be finite and at least 1, not 0.5"),
    (".tran 1u 1m growth=1e999",
     "bad value for 'growth': '1e999' (number '1e999' is not finite)"),
    (".tran 1e999 1m",
     "bad value for 'tstep': '1e999' (number '1e999' is not finite)"),
    (".tran 1u 1e999",
     "bad value for 'tstop': '1e999' (number '1e999' is not finite)"),
    # cards no analysis can run, rejected as they are parsed
    (".tran 0 1u", ".tran: transient needs positive tstep and tstop"),
    (".tran 1f 1", ".tran: transient of tstep 1e-15 s to tstop 1 s takes "
                   "more than MAX_STEPS = 1000000 steps"),
    (".dc v1 0 1 0", ".dc: dc sweep needs a nonzero step"),
    (".dc v1 0 1 -0.1", ".dc: dc sweep range and step disagree"),
    (".dc v1 0 1 1e-12", ".dc: dc sweep of start 0, stop 1 and step 1e-12 "
                         "needs a finite step and at most MAX_STEPS = "
                         "1000000 points")])
def test_bad_tran_method_is_a_line_tagged_error(card, message):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(f"v1 a 0 dc 1\nr1 a 0 1k\n{card}\n.end\n")
    assert exc.value.errors == [f"line 3: {message}"]


def test_a_model_value_that_overflows_is_a_line_tagged_error():
    # 1e400 used to read as inf, pass every positivity check and fail the
    # run with a non-finite residual
    with pytest.raises(NetlistError) as exc:
        parse_netlist("v1 a 0 dc 1\nxr1 a 0 model=m\n"
                      ".model m rram k_set=1e400\n.end\n")
    assert exc.value.errors == [
        "line 3: bad value for 'k_set': '1e400' (number '1e400' is not "
        "finite)"]


@pytest.mark.parametrize("words, growth, written", [
    ("growth=1", 1.0, ".tran 1e-06 0.001"),
    ("growth=1.12", 1.12, ".tran 1e-06 0.001 growth=1.12"),
    ("method=trap GROWTH=2", 2.0, ".tran 1e-06 0.001 method=trap growth=2.0")])
def test_tran_growth_round_trips(words, growth, written):
    # a growth of 1, the uniform grid, is left out like any default
    first = parse_netlist(f"v1 a 0 dc 1\nr1 a 0 1k\n.tran 1u 1m {words}\n")
    assert first.analyses[0].growth == growth
    text = serialize_netlist(first.circuit, first.analyses)
    assert text.splitlines()[-2] == written
    assert parse_netlist(text).analyses == first.analyses


def _fg_cell(mos: MosParams, cmg: MosParams | None) -> Circuit:
    """A floating-gate cell on an fg card with readout transistor
    ``mos``, and a cmg card ``nfet`` of ``cmg`` when given."""
    c = Circuit()
    if cmg is not None:
        c.add_model("nfet", "cmg", cmg)
    c.add_model("syn", "fg", FloatingGateParams(mos=mos))
    c.add(FloatGateElement("xf1", "d", "0", "sg", "0", "0", model="syn"))
    c.add(VSource("vd", "d", "0", dc=0.3))
    c.add(VSource("vsg", "sg", "0", dc=1.0))
    c.resolve()
    return c


def test_an_api_fg_card_names_its_readout_model():
    mos = MosParams(l=50e-9)
    c = _fg_cell(mos, mos)
    text = serialize_netlist(c)
    assert ".model syn fg" in text and "mos=nfet" in text
    r = parse_netlist(text)
    assert r.circuit.models == c.models
    assert r.circuit.element("xf1").params.mos.l == 50e-9
    assert serialize_netlist(r.circuit) == text


def test_a_default_readout_transistor_needs_no_card():
    # an equal but distinct cmg card is not the readout transistor
    c = _fg_cell(MosParams(), MosParams())
    text = serialize_netlist(c)
    assert "mos=" not in text
    assert parse_netlist(text).circuit.models == c.models


def test_a_readout_transistor_no_card_names_is_an_error():
    c = _fg_cell(MosParams(l=50e-9), MosParams(l=50e-9))
    with pytest.raises(ValueError, match="fg model 'syn'"):
        serialize_netlist(c)


def test_api_rejects_the_values_a_card_rejects():
    with pytest.raises(ValueError, match="zero resistance"):
        Resistor("r1", "a", "0", 0.0)
    with pytest.raises(ValueError, match=r"x0 must lie in \[0, 1\]"):
        RramElement("xr1", "a", "0", "mem", x0=1.5)
    with pytest.raises(NetlistError) as exc:
        parse_netlist("R1 a 0 0\nXR1 a 0 model=mem x0=1.5\n.model mem rram\n")
    assert exc.value.errors == ["line 1: zero resistance",
                                "line 2: x0 must lie in [0, 1]"]


_NUM = st.floats(allow_nan=False, allow_infinity=False)
_NODE = st.sampled_from(["0", "a", "b", "c"])


@st.composite
def _circuits(draw):
    """A circuit with every element kind at least once, on three models."""
    c = Circuit()
    nfet = MosParams(l=draw(st.floats(20e-9, 40e-9)))
    c.add_model("nfet", "cmg", nfet)
    c.add_model("mem", "rram", RramParams(x_init=draw(st.floats(0.0, 1.0))))
    c.add_model("syn", "fg", FloatingGateParams(
        c_sg=draw(st.floats(1e-17, 1e-15)), mos=nfet))
    c.add(Resistor("rgnd", "a", "0", 1.0))
    kinds = draw(st.permutations(
        list(range(7)) + draw(st.lists(st.integers(0, 6), max_size=4))))
    for j, kind in enumerate(kinds):
        two = (draw(_NODE), draw(_NODE))
        c.add([
            lambda: Resistor(f"r{j}", *two, draw(_NUM.filter(bool))),
            lambda: Capacitor(f"c{j}", *two, draw(_NUM)),
            lambda: VSource(f"v{j}", *two, dc=draw(st.none() | _NUM),
                            pulse=draw(st.none() | st.builds(
                                PulseSpec, *[_NUM] * 7))),
            lambda: ISource(f"i{j}", *two, draw(_NUM)),
            lambda: Mosfet(f"m{j}", *two, draw(_NODE), "nfet"),
            lambda: RramElement(f"xr{j}", *two, "mem",
                                x0=draw(st.none() | st.floats(0.0, 1.0))),
            lambda: FloatGateElement(f"xf{j}", *two,
                                     *(draw(_NODE) for _ in range(3)),
                                     model="syn", qfg0=draw(_NUM)),
        ][kind]())
    c.resolve()
    return c


def _checks(spec: AnalysisSpec) -> bool:
    """Whether the spec passes ``AnalysisSpec.check``, as a card must."""
    try:
        spec.check()
    except ValueError:
        return False
    return True


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_ANALYSIS = st.one_of(
    st.just(AnalysisSpec(kind="op")),
    st.builds(AnalysisSpec, kind=st.just("dc"), src=st.just("v1"),
              start=_NUM, stop=_NUM, step=_NUM),
    st.builds(AnalysisSpec, kind=st.just("tran"), tstep=_POSITIVE,
              tstop=_POSITIVE, uic=st.booleans(),
              integrator=st.sampled_from(INTEGRATORS),
              growth=st.just(1.0) | st.floats(1.0, 1e6))).filter(_checks)


@settings(max_examples=60, deadline=None)
@given(c=_circuits(), analyses=st.lists(_ANALYSIS, max_size=3))
def test_random_circuits_round_trip(c, analyses):
    text = serialize_netlist(c, analyses)
    r = parse_netlist(text)
    assert r.circuit.elements == c.elements
    assert r.circuit.models == c.models
    assert r.analyses == analyses
    assert serialize_netlist(r.circuit, r.analyses) == text


class _Compiled(Exception):
    """Raised in place of compiling a layout: the analysis got past every
    check of its card."""


def _no_layout(circuit):
    raise _Compiled


# 0, negatives, 1f steps over 1 s, and any float as the writer spells it
_CARD_NUMBER = (st.sampled_from(["0", "-1", "-0.1", "1e-12", "1f", "1u",
                                 "1m", "0.1", "1"])
                | _NUM.map(repr))


@st.composite
def _cards(draw):
    """An analysis card, some of them no analysis can run, and the
    AnalysisSpec fields it spells."""
    kind = draw(st.sampled_from(["op", "dc", "tran"]))
    if kind == "op":
        return ".op", {"kind": "op"}
    if kind == "dc":
        words = [draw(_CARD_NUMBER) for _ in range(3)]
        values = dict(zip(("start", "stop", "step"), map(parse_number, words)))
        return " ".join([".dc v1", *words]), dict(kind="dc", src="v1",
                                                  **values)
    words = [draw(_CARD_NUMBER), draw(_CARD_NUMBER)]
    values = dict(kind="tran", tstep=parse_number(words[0]),
                  tstop=parse_number(words[1]))
    if draw(st.booleans()):
        words.append("uic")
        values["uic"] = True
    method = draw(st.none() | st.sampled_from(["be", "trap", "gear"]))
    if method is not None:
        words.append(f"method={method}")
        values["integrator"] = method
    growth = draw(st.none() | st.sampled_from(["0.5", "1", "1.12", "2"]))
    if growth is not None:
        words.append(f"growth={growth}")
        values["growth"] = float(growth)
    return " ".join([".tran", *words]), values


@settings(max_examples=100, deadline=None)
@given(card=_cards())
@example(card=(".tran 0 1u", dict(kind="tran", tstep=0.0, tstop=1e-6)))
@example(card=(".dc v1 0 1 -0.1", dict(kind="dc", src="v1", start=0.0,
                                      stop=1.0, step=-0.1)))
def test_the_parser_and_the_analyses_accept_the_same_cards(card):
    # a card either fails to parse, every error line-tagged, or runs up
    # to its layout; the same values through the API fail check()
    # exactly when their analysis stops before its layout
    text, values = card
    spec = AnalysisSpec(**values)
    drive = {"op": operating_point, "dc": dc_sweep,
             "tran": transient}[spec.kind]
    circuit = parse_netlist("v1 a 0 dc 1\nr1 a 0 1k\n").circuit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "SystemLayout", _no_layout)
        try:
            parsed = parse_netlist(f"v1 a 0 dc 1\nr1 a 0 1k\n{text}\n.end\n")
        except NetlistError as exc:
            assert all(e.startswith("line 3: ") for e in exc.errors)
            accepted = False
        else:
            with pytest.raises(_Compiled):
                run_analysis(parsed.circuit, parsed.analyses[0])
            accepted = True
        checked = _checks(spec)
        try:
            drive(circuit, spec)
        except _Compiled:
            reached = True
        except ValueError:
            reached = False
    assert accepted == checked == reached
