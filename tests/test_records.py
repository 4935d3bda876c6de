"""The Record contract that every coldamp record keeps: construction, immutability, order."""

import pytest

from coldamp import cli
from coldamp.budget import budget_point
from coldamp.config import RunConfig, loads
from coldamp.matching import MatchingResult
from coldamp.network import LinearNetwork, ScatteringResult, build_matched_junction, solve
from coldamp.params import InstrumentParams, Record
from coldamp.sensor import BudgetPoint
from coldamp.verify import CheckResult

RECORDS = [InstrumentParams, RunConfig, BudgetPoint, MatchingResult, CheckResult,
           LinearNetwork, ScatteringResult]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_every_record_is_a_record_with_its_annotated_fields(record):
    assert issubclass(record, Record)
    assert record._fields == tuple(record.__annotations__)


def test_positional_and_keyword_construction_agree(reference_params):
    values = vars(reference_params)
    assert InstrumentParams(*values.values()) == reference_params
    assert InstrumentParams(**values) == reference_params
    half = len(values) // 2
    mixed = InstrumentParams(*list(values.values())[:half], **dict(list(values.items())[half:]))
    assert mixed == reference_params
    assert list(vars(InstrumentParams(**dict(reversed(values.items()))))) == list(values)


def test_all_positional_construction_equals_keyword_construction(reference_params,
                                                                 reference_omega):
    net = build_matched_junction(50.0, 800.0, reference_omega)
    records = [reference_params, loads(cli._default_config_text()),
               budget_point(reference_params, reference_omega),
               MatchingResult(1.0, 3.0, 2.0, 1.0), CheckResult("gate", 1.0, 2.0), net, solve(net)]
    assert [type(record) for record in records] == RECORDS
    for record in records:
        values = vars(record)
        positional = type(record)(*values.values())
        assert positional == type(record)(**values) == record
        assert list(vars(positional)) == list(record._fields)
    with pytest.raises(ValueError, match="M must be strictly positive"):
        InstrumentParams(-1.0, *list(vars(reference_params).values())[1:])   # still checked


def test_construction_errors_are_type_errors(reference_params):
    values = vars(reference_params)
    with pytest.raises(TypeError, match="missing the field.s. T_r"):
        InstrumentParams(*list(values.values())[:-1])
    with pytest.raises(TypeError, match="at most once"):
        InstrumentParams(**values, colour=1.0)                       # unknown
    with pytest.raises(TypeError, match="at most once"):
        InstrumentParams(*values.values(), M=1.0)                    # repeated
    with pytest.raises(TypeError, match="takes the fields"):
        InstrumentParams(*values.values(), 1.0)                      # one too many
    with pytest.raises(TypeError, match="at most once"):
        reference_params.with_(colour=1.0)
    with pytest.raises(TypeError, match="missing the field.s. tolerance"):
        CheckResult("gate", 1.0)
    with pytest.raises(TypeError, match="takes the fields"):
        CheckResult("gate", 1.0, 2.0, 3.0)
    net = build_matched_junction(1.0, 2.0, 1.0)
    with pytest.raises(TypeError, match="takes the fields"):
        LinearNetwork(*vars(net).values(), None)


def test_fields_can_be_neither_set_nor_deleted(reference_params):
    point = CheckResult("gate", 1.0, 2.0)
    for record, name in [(reference_params, "M"), (point, "deviation"), (point, "extra")]:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, 0.5)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
    assert reference_params.M == 0.27 and vars(point) == {"name": "gate", "deviation": 1.0,
                                                          "tolerance": 2.0}


def test_equal_records_hash_equal():
    a, b = MatchingResult(1.0, 3.0, 2.0, 1.0), MatchingResult(1.0, 3.0, 2.0, 1.0)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != a.replace(sigma_opt=4.0)
    assert a != CheckResult("gate", 1.0, 2.0)
    assert repr(a) == ("MatchingResult(ratio_opt=1.0, sigma_opt=3.0, langevin_part=2.0, "
                       "detection_part=1.0)")


def test_replace_validates_again(reference_params):
    with pytest.raises(ValueError) as err:
        reference_params.with_(M=-1.0)
    assert str(err.value) == "M must be strictly positive, got -1.0"
    net = build_matched_junction(1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="must be square"):
        net.replace(a={**net.a, (0, 5): 1 + 0j})
    assert reference_params.with_(M=1.0).M == 1.0 and reference_params.M == 0.27


def test_defaults_are_immutable_class_attributes():
    net = build_matched_junction(1.0, 2.0, 1.0)
    assert net.conjugated is LinearNetwork.conjugated == frozenset()
    assert net.observables is LinearNetwork.observables and dict(net.observables) == {}
    with pytest.raises(TypeError):
        net.observables["x"] = 0


def test_budget_point_fields_are_the_csv_columns(reference_params, reference_omega, capsys):
    point = budget_point(reference_params, reference_omega)
    assert list(vars(point)) == list(BudgetPoint._fields)
    assert cli.main(["budget"]) == cli.EXIT_OK
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header == ["frequency_hz", *BudgetPoint._fields[1:], "config_digest", "tool_version"]
