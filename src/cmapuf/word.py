"""The 11-bit response word: a 1-based region number in 3 bits, then the in-region code
zero-padded on the left to 8 bits.  This module holds its field widths, ``check_word_field``,
the one rule for what the fields hold, and the tables of every word by ``region << 8 | code``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import check_range

REGION_FIELD_BITS = 3
CODE_FIELD_BITS = 8
WORD_BITS = REGION_FIELD_BITS + CODE_FIELD_BITS
MAX_REGIONS = (1 << REGION_FIELD_BITS) - 1


def check_word_field(field: str, values, name: str | None = None, bits=CODE_FIELD_BITS) -> None:
    """What the word holds: a ``"region"`` is an integer in [1, ``MAX_REGIONS``], a ``"bits"``
    precision one in [1, ``CODE_FIELD_BITS``], a ``"code"`` one below 2**``bits`` (precisions
    already checked).  ``check_range``'s integer rule judges them, and the first bad value
    raises, as ``name``."""
    name = name or field
    if field == "code":
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), np.shape(values)).reshape(-1)
        lo, hi, rule = 0, (1 << bits) - 1, lambda i: f"fit in {bits[i]} bits"
    else:
        hi = MAX_REGIONS if field == "region" else CODE_FIELD_BITS
        lo, rule = 1, f"be in [1, {hi}]"
    check_range(name, values, lo, hi, rule=rule, integer=True)


def check_words(region, code, bits) -> None:
    """The response-word rule, on one word or on columns: region, then precision, then code."""
    check_word_field("region", region)
    check_word_field("bits", bits)
    check_word_field("code", code, bits=bits)


def word_index(region: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Index ``region << 8 | code`` of each word, in int64 so a narrow region cannot overflow."""
    return (np.asarray(region, dtype=np.int64) << CODE_FIELD_BITS) | np.asarray(code)


# String, bit row and set-bit count of every word, by its index.
WORD_STRINGS = [format(w, f"0{WORD_BITS}b") for w in range(1 << WORD_BITS)]
WORD_BIT_ROWS = (
    (np.arange(1 << WORD_BITS)[:, None] >> np.arange(WORD_BITS - 1, -1, -1)) & 1
).astype(np.int8)
WORD_WEIGHT = WORD_BIT_ROWS.sum(axis=1)


def word_strings(region: np.ndarray, code: np.ndarray) -> list[str]:
    """The 11-character strings of 1-D arrays of response words."""
    return [WORD_STRINGS[w] for w in word_index(region, code).tolist()]


def word_bits(region: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Bit rows (..., 11) of response words."""
    return np.take(WORD_BIT_ROWS, word_index(region, code), axis=0)


def encode_word(word: ResponseWord) -> str:
    """Pack a response as 3 region bits plus the left-zero-padded code."""
    return word_strings([word.region], [word.code])[0]


@dataclass(frozen=True)
class ResponseWord:
    """One converted readout: 1-based region number, code, and precision."""

    region: int
    code: int
    bits: int

    def __post_init__(self) -> None:
        check_words(self.region, self.code, self.bits)

    encoded = property(encode_word)


def decode_word(encoded: str, bits_per_region: tuple[int, ...]) -> ResponseWord:
    """Inverse of ``encode_word`` for a given region/precision table."""
    if len(encoded) != WORD_BITS or set(encoded) - {"0", "1"}:
        raise ValueError(f"encoded word must be {WORD_BITS} binary digits, got {encoded!r}")
    region, code = divmod(int(encoded, 2), 1 << CODE_FIELD_BITS)
    if not (1 <= region <= len(bits_per_region)):
        raise ValueError(f"region {region} outside the configured table")
    return ResponseWord(region=region, code=code, bits=bits_per_region[region - 1])
