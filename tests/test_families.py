"""Every layer takes the clock families from the one table,
``matlife.inhomogeneity.FAMILIES``: transforms, model files, the direct fit,
regression models and the CLI."""

import numpy as np
import pytest

from matlife.cli import build_parser
from matlife.em import StructureSpec, _pattern as _build_pattern
from matlife.exceptions import InvalidInputError
from matlife.inhomogeneity import FAMILIES, make_transform
from matlife.io import load_model, save_model
from matlife.mortality import _pack, _unpack, free_parameter_count
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.regression import PIModel

#: rates, weights and parameter chosen so that exp(log(x)) == x exactly,
#: which lets the direct fit's log-scale packing round-trip bitwise
REP = PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.0, -0.5]])
PARAM = 1.5


def _family_choices(command: str) -> tuple:
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return next(tuple(action.choices) for action in subparsers[command]._actions
                if action.dest == "family")


def _same_model(a: IPHModel, b: IPHModel) -> bool:
    return (type(a.transform) is type(b.transform)
            and a.transform.params == b.transform.params
            and np.array_equal(a.rep.pi, b.rep.pi)
            and np.array_equal(a.rep.T, b.rep.T))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_layer_reads_the_family_table(tmp_path, family):
    cls = FAMILIES[family]
    shaped = cls.param_name is not None
    param = PARAM if shaped else None

    # a parameter exactly when the family names one
    with pytest.raises(InvalidInputError):
        make_transform(family, None if shaped else PARAM)
    clock = make_transform(family, param)
    assert type(clock) is cls and clock.family == family
    assert clock.params == ({cls.param_name: PARAM} if shaped else {})

    # model files
    model = IPHModel(REP, clock)
    path = tmp_path / "model.json"
    save_model(path, model)
    assert _same_model(load_model(path), model)

    # the direct fit's packing and parameter count
    pattern = _build_pattern(model)
    assert _same_model(_unpack(_pack(model, pattern), model, pattern), model)
    assert (free_parameter_count(model)
            == free_parameter_count(IPHModel(REP)) + len(clock.params))

    # the CLI
    assert _family_choices("fit-pi") == tuple(FAMILIES)
    assert _family_choices("fit-mortality") == tuple(FAMILIES)

    # regression models carry gamma exactly when the family has a parameter
    for gamma in (None, [0.0]):
        if (gamma is not None) == shaped:
            assert PIModel(REP, family, [0.1], gamma).family == family
        else:
            with pytest.raises(InvalidInputError):
                PIModel(REP, family, [0.1], gamma)


def test_cli_reads_the_structure_kinds():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    for command in ("fit-ph", "fit-pi", "fit-mortality"):
        action = next(a for a in subparsers[command]._actions if a.dest == "structure")
        assert tuple(action.choices) == StructureSpec.KINDS
