"""The JSON codec: a config type's fields are its JSON schema."""

import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from cmapuf.adc import AdcConfig
from cmapuf.analog import (
    Conditions,
    MIRRORS,
    MirrorConfig,
    MirrorKind,
    SWITCHING,
    TransferModel,
    default_model,
    transfer_curve,
)
from cmapuf.attack import split
from cmapuf.cli import CrpsParameters
from cmapuf.codec import check_range, from_json, read_json, to_json, write_json
from cmapuf.crp import generate
from cmapuf.quantizer import QuantizerSpec, default_regions
from cmapuf.variation import ProcessCorner, VariationConfig, synth_chip, synth_population

MODEL = TransferModel(
    mirror=MIRRORS["reduced"],
    switching=SWITCHING["naive"],
    vdd=1.2,
    weights=(0.9, 0.2, -0.2, -0.9),
    temp_coeff=2.0e-4,
    temp_ref=27.0,
)
SPEC = QuantizerSpec(boundaries=(0.0, 0.4, 1.2), bits_per_region=(8, 6), centroids=(0.1, 0.9))
ADC = AdcConfig(vdd=1.2, clock_freq=3.2e9, power=1.0e-4, comparator_residual_offset=0.004)
COND = Conditions(temperature=-10.5, noise_sigma=0.003, noise_seed=2**64 - 1)

# every readable type away from its defaults, with every enum value and the
# residual offsets set
CONFIGS = [
    ADC,
    *(
        MirrorConfig(kind=kind, gain=150.0, asymmetry_offset=-0.02, bias_current=5.0e-6)
        for kind in MirrorKind
    ),
    SWITCHING["gated"],
    SWITCHING["naive"],
    COND,
    MODEL,
    SPEC,
    *(VariationConfig(sigma_vth=0.02, corner=corner, seed=7) for corner in ProcessCorner),
    CrpsParameters(
        variation=VariationConfig(sigma_vth=0.02, corner=ProcessCorner.SF, seed=3),
        chips=4,
        challenges=16,
        model=MODEL,
        quantizer=SPEC,
        adc=ADC,
        conditions=COND,
    ),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_json_form_is_the_fields(config):
    tp = type(config)
    doc = to_json(config)
    assert set(doc) == {f.name for f in fields(tp)}
    assert from_json(tp, doc) == config
    assert from_json(tp, json.loads(json.dumps(doc))) == config


def test_enums_tuples_and_dict_keys_take_their_json_form():
    doc = to_json(MODEL)
    assert doc["mirror"]["kind"] == "reduced_headroom"
    assert doc["switching"]["corner_offsets"] == {"TT": 0.0, "SS": 0.0, "FF": 0.0, "SF": 0.04, "FS": -0.04}
    assert doc["weights"] == [0.9, 0.2, -0.2, -0.9]
    assert to_json({ProcessCorner.SF: (1, np.arange(2))}) == {"SF": [1, [0, 1]]}


def test_write_json_is_the_one_file_format(tmp_path):
    path = tmp_path / "spec.json"
    write_json(path, SPEC)
    assert path.read_text() == json.dumps(to_json(SPEC), sort_keys=True, indent=2) + "\n"
    assert read_json(path, QuantizerSpec) == SPEC


def _model_doc(edit):
    doc = to_json(default_model())
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_model_doc(lambda d: d["mirror"].pop("gain")), "MirrorConfig has no 'gain' field"),
        (_model_doc(lambda d: d["mirror"].update(gain=None)), "MirrorConfig has no 'gain' field"),
        (_model_doc(lambda d: d.pop("switching")), "TransferModel has no 'switching' field"),
        ([1.8], "TransferModel must be a JSON object, got [1.8]"),
        (_model_doc(lambda d: d.update(mirror="wide")),
         "TransferModel.mirror must be a JSON object, got 'wide'"),
        (_model_doc(lambda d: d["mirror"].update(kind="bent")),
         "MirrorConfig.kind must be one of ['wide_swing_cascode', 'reduced_headroom', "
         "'simple_cascode'], got 'bent'"),
        (_model_doc(lambda d: d["switching"]["corner_offsets"].update(XX=0.0)),
         "SwitchingConfig.corner_offsets must be one of ['TT', 'SS', 'FF', 'SF', 'FS'], got 'XX'"),
        (_model_doc(lambda d: d["switching"]["corner_offsets"].update(SF=None)),
         "SwitchingConfig.corner_offsets['SF'] must be a JSON number, got None"),
        (_model_doc(lambda d: d.update(weights=[1.0, "0.3", -0.3, -1.0])),
         "TransferModel.weights[1] must be a JSON number, got '0.3'"),
        (_model_doc(lambda d: d.update(weights=1.0)),
         "TransferModel.weights must be a JSON list, got 1.0"),
        (_model_doc(lambda d: d.update(vdd=True)), "TransferModel.vdd must be a JSON number, got True"),
        # the type's own checks still run
        (_model_doc(lambda d: d["mirror"].update(gain=-1.0)), "gain must be > 0, got -1.0"),
        (_model_doc(lambda d: d.update(weights=[1.0, 0.3])),
         "weights must have four entries (pm1, pm2, nm1, nm2)"),
    ],
)
def test_a_malformed_document_is_refused_by_name(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(TransferModel, doc)


def test_scalars_keep_their_json_kind():
    assert from_json(VariationConfig, {"sigma_vth": 0, "corner": "TT", "seed": 3}).sigma_vth == 0.0
    with pytest.raises(ValueError, match=re.escape("VariationConfig.seed must be a JSON integer, got 1.5")):
        from_json(VariationConfig, {"sigma_vth": 0.03, "corner": "TT", "seed": 1.5})


def test_read_json_names_the_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"boundaries": [0.0, 1.8], "bits_per_region": [8]}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: QuantizerSpec has no 'centroids' field")):
        read_json(path, QuantizerSpec)


def test_write_json_refuses_non_finite_values(tmp_path):
    path = tmp_path / "m.json"
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float values")):
            write_json(path, {"sigma_vth": [0.03, value]})
        assert not path.exists()


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        # the first bad element in C order, whatever breaks the rule after it
        (("v", [[0.5, 2.0], [math.nan, -1.0]], 0, 1.8), {}, "v must be within [0, 1.8], got 2.0"),
        # a +inf the bounds hold breaks finiteness only; a -inf breaks the bound
        (("gain", [1.0, math.inf], 0), {"open_lo": True}, "gain must be finite, got inf"),
        (("gain", -math.inf, 0), {"open_lo": True}, "gain must be > 0, got -inf"),
        (("temp_coeff", math.nan), {}, "temp_coeff must be finite, got nan"),
        # numpy holds an int past int64 as an object, which np.isfinite cannot read
        (("bits", [1, 10**30], 1, 8), {}, f"bits must be within [1, 8], got {10**30}"),
        (("code", [3, 64], 0, [7, 63]), {"rule": lambda i: f"fit in row {i}"}, "code must fit in row 1, got 64"),
        # a bool is no integer, whatever the bound, one past int64 included
        (("s", True, 0, 2**64 - 1), {"integer": True}, "s must be an integer, got True"),
        (("s", np.True_, 0, 2**64 - 1), {"integer": True}, "s must be an integer, got True"),
        (("s", np.array([True, False]), 0, 2**64 - 1), {"integer": True},
         "s must be an integer, got True"),
    ],
)
def test_check_range_names_the_first_bad_element(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_range(*args, **kwargs)


def test_check_range_passes_what_keeps_the_rule():
    check_range("v", [0.0, 0.9, 1.8], 0, 1.8)  # both ends are inside
    check_range("epochs", 10**30, 1)
    check_range("noise_sigma", np.array([]), 0)


def _split(seed):
    chip = synth_chip(VariationConfig())
    dataset = generate([chip], default_model(), default_regions(), AdcConfig(), [0, 1],
                       Conditions())
    return split(dataset, 0.5, seed)


# a seed or a count is an integer: neither a float nor a bool is one
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: VariationConfig(seed=v), "seed"),
        (lambda v: synth_population(VariationConfig(), v), "chips"),
        (lambda v: Conditions(noise_seed=v), "noise_seed"),
        (lambda v: transfer_curve(MODEL, -0.05, 0.05, v), "points"),
        (_split, "seed"),
        (lambda v: replace(CONFIGS[-1], challenges=v), "challenges"),
    ],
    ids=["VariationConfig.seed", "synth_population.chips", "Conditions.noise_seed",
         "transfer_curve.points", "split.seed", "CrpsParameters.challenges"],
)
@pytest.mark.parametrize("value", [1.5, True])
def test_a_seed_or_a_count_is_an_integer(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
        build(value)
    build(np.int64(2))  # numpy's integers are integers
