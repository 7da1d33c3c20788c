"""Parameter-file grammar, scoping and dataclass application."""

import dataclasses

import pytest

from synapsim.floatgate import FloatingGateParams
from synapsim.mosfet import MosParams
from synapsim.rram import RramParams
from synapsim.neuro import MacromodelConfig
from synapsim.paramfile import (ParamError, apply_params, coerce_value,
                                load_params, parse_assignments, parse_number,
                                split_scopes)


def test_load_params_comments_and_blanks(tmp_path):
    f = tmp_path / "dev.par"
    f.write_text("# header comment\n\nmos.l = 20n   # short channel\n"
                 "mos.w=80n\nlr = 0.25\n")
    out = load_params(f)
    assert out == {"mos.l": "20n", "mos.w": "80n", "lr": "0.25"}


def test_load_params_bad_line_reports_location(tmp_path):
    f = tmp_path / "dev.par"
    f.write_text("mos.l = 20n\nnot an assignment\n")
    with pytest.raises(ParamError, match=r"dev\.par:2"):
        load_params(f)


def test_parse_assignments_later_wins():
    out = parse_assignments(["l=10n", "l=20n", "temp=350"])
    assert out == {"l": "20n", "temp": "350"}


def test_parse_assignments_rejects_bare_word():
    with pytest.raises(ParamError):
        parse_assignments(["nonsense"])


def test_split_scopes_routes_prefixes():
    out = split_scopes({"mos.l": "1", "rram.g_on": "2", "lr": "3"},
                       ("mos", "rram"))
    assert out["mos"] == {"l": "1"}
    assert out["rram"] == {"g_on": "2"}
    assert out[""] == {"lr": "3"}


def test_split_scopes_unknown_scope():
    with pytest.raises(ParamError, match="unknown parameter scope"):
        split_scopes({"oops.l": "1"}, ("mos",))


def test_apply_params_si_suffixes_and_derived_refresh():
    p = apply_params(MosParams(), {"l": "10n", "temp": "350"})
    assert p.l == pytest.approx(10e-9, rel=1e-6, abs=0.0)
    assert p.temp == 350.0
    # derived quantities recomputed through __post_init__
    assert p.v_t == pytest.approx(MosParams(temp=350.0).v_t)


def test_apply_params_bool_coercion():
    p = apply_params(MosParams(), {"mob_degradation": "true",
                                   "vel_saturation": "0"})
    assert p.mob_degradation is True and p.vel_saturation is False


def test_apply_params_unknown_key():
    with pytest.raises(ParamError, match="no parameter 'bogus'"):
        apply_params(MosParams(), {"bogus": "1"})


def test_apply_params_invalid_value_propagates_validation():
    with pytest.raises(ParamError):
        apply_params(MosParams(), {"l": "-5n"})


def test_tuple_fields_with_mixed_elements():
    cfg = apply_params(MacromodelConfig(), {"layer_sizes": "784,1000,125,10",
                                            "levels": "64"})
    assert cfg.layer_sizes == (784, 1000, 125, 10)
    assert cfg.levels == 64
    assert coerce_value("0.3,1.2,8", tuple) == (0.3, 1.2, 8)


@pytest.mark.parametrize("raw", ["2.5", "1e-3", "64.5"])
def test_integer_coercion_rejects_a_non_integral_number(raw):
    with pytest.raises(ParamError, match="integer"):
        coerce_value(raw, int)
    with pytest.raises(ParamError, match="layer_sizes"):
        apply_params(MacromodelConfig(), {"layer_sizes": f"784,{raw},10"})


def test_integer_coercion_takes_an_integral_number():
    assert coerce_value("2k", int) == 2000
    assert coerce_value("3.0", int) == 3


def test_coerce_value_bool_words():
    assert coerce_value("YES", bool) is True
    assert coerce_value("off", bool) is False
    with pytest.raises(ParamError):
        coerce_value("maybe", bool)


@pytest.mark.parametrize("token", ["1e400", "-1e400", "1e308k", "2e308",
                                   "1" + "0" * 400])
def test_a_number_that_overflows_is_rejected(token):
    # the grammar has no inf or nan, and an overflow reads as neither
    with pytest.raises(ParamError, match=f"number '{token}' is not finite"):
        parse_number(token)


def _float_fields(cls):
    return [(cls, f.name) for f in dataclasses.fields(cls)
            if f.init and f.type in ("float", float)]


@pytest.mark.parametrize("cls, name", _float_fields(RramParams)
                         + _float_fields(FloatingGateParams)
                         + _float_fields(MosParams))
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_a_model_card_refuses_a_value_that_is_not_finite(cls, name, value):
    # a check written "<= 0.0" let NaN and inf through to the model
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})
