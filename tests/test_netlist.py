"""Netlist parser, number grammar, and round-trip serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synapsim.engine import (AnalysisSpec, Capacitor, Circuit, CircuitError,
                             FloatGateElement, ISource, Mosfet, NetlistError,
                             PulseSpec, Resistor, RramElement, SystemLayout,
                             VSource, dc_sweep, operating_point,
                             parse_netlist, parse_number, serialize_netlist)
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


def test_api_model_and_node_references_in_any_case():
    c = Circuit()
    c.add_model("MEM", "rram", RramParams())
    c.add(VSource("V1", "A", "0", dc=0.1))
    c.add(RramElement("XR1", "A", "0", model="MEM", x0=1.0))
    res = operating_point(c, AnalysisSpec(kind="op"))
    assert res.columns == ["v(a)", "v(xr1#x)", "i(V1)"]
    assert -res.column("i(v1)")[0] == pytest.approx(
        rram_current(RramParams(), 0.1, 1.0), rel=1e-12)


def test_api_sweep_and_override_name_their_source_in_any_case():
    c = Circuit()
    c.add(VSource("V1", "a", "0", dc=0.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    res = dc_sweep(c, AnalysisSpec(kind="dc", src="V1", start=0.0, stop=1.0,
                                   step=0.5))
    np.testing.assert_allclose(res.column("i(v1)"), [0.0, -5e-4, -1e-3],
                               rtol=1e-12, atol=0)
    x = solve_dc(SystemLayout(c), AnalysisSpec(kind="op"),
                 src_override={"V1": 0.25})
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
    c.fg_mos_ref["syn"] = "nfet"
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


_ANALYSIS = st.one_of(
    st.just(AnalysisSpec(kind="op")),
    st.builds(AnalysisSpec, kind=st.just("dc"), src=st.just("v1"),
              start=_NUM, stop=_NUM, step=_NUM),
    st.builds(AnalysisSpec, kind=st.just("tran"), tstep=_NUM, tstop=_NUM,
              uic=st.booleans()))


@settings(max_examples=60, deadline=None)
@given(c=_circuits(), analyses=st.lists(_ANALYSIS, max_size=3))
def test_random_circuits_round_trip(c, analyses):
    text = serialize_netlist(c, analyses)
    r = parse_netlist(text)
    assert r.circuit.elements == c.elements
    assert r.circuit.models == c.models
    assert r.circuit.fg_mos_ref == c.fg_mos_ref
    assert r.analyses == analyses
    assert serialize_netlist(r.circuit, r.analyses) == text
