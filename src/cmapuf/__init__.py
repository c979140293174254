"""Behavioral simulator and analysis toolkit for a current-mirror-array PUF.

The pipeline mirrors the hardware: ``variation`` synthesizes per-chip
transistor mismatch, ``analog`` turns a cell's mismatch into an output
voltage, ``cellarray`` routes an 8-bit challenge to one of 256 cells,
``quantizer`` + ``adc`` turn the voltage into an 11-bit ``word``,
``crp`` collects datasets and quality metrics, and ``attack`` tries to
model a chip from its responses.  ``codec`` is the one JSON form of every
config, report and manifest.
"""

from .adc import AdcConfig, conversion_cycles, conversion_energy, energy_per_cycle
from .analog import (
    Conditions,
    MirrorConfig,
    SwitchingConfig,
    TransferModel,
    default_model,
    effective_mismatch,
)
from .attack import EsHyper, FeatureEncoding, LrHyper, attack_report, es_fit, lr_train, split
from .cellarray import decode
from .crp import (
    CrpDataset,
    MetricsReport,
    bit_aliasing,
    generate,
    reliability,
    uniformity,
    uniqueness,
)
from .quantizer import EmpiricalDistribution, QuantizerSpec, default_regions, lloyd_max
from .variation import (
    ChipInstance,
    ProcessCorner,
    VariationConfig,
    synth_chip,
    synth_population,
)
from .word import ResponseWord, encode_word

__version__ = "0.1.0"

__all__ = [
    "AdcConfig",
    "ChipInstance",
    "Conditions",
    "CrpDataset",
    "EmpiricalDistribution",
    "EsHyper",
    "FeatureEncoding",
    "LrHyper",
    "MetricsReport",
    "MirrorConfig",
    "ProcessCorner",
    "QuantizerSpec",
    "ResponseWord",
    "SwitchingConfig",
    "TransferModel",
    "VariationConfig",
    "attack_report",
    "bit_aliasing",
    "conversion_cycles",
    "conversion_energy",
    "decode",
    "default_model",
    "default_regions",
    "effective_mismatch",
    "encode_word",
    "energy_per_cycle",
    "es_fit",
    "generate",
    "lloyd_max",
    "lr_train",
    "reliability",
    "split",
    "synth_chip",
    "synth_population",
    "uniformity",
    "uniqueness",
    "__version__",
]
