"""Behavioral simulator and analysis toolkit for a current-mirror-array PUF.

The pipeline mirrors the hardware: ``variation`` synthesizes per-chip
transistor mismatch, ``analog`` turns a cell's mismatch into an output
voltage, ``cellarray`` routes an 8-bit challenge to one of 256 cells,
``quantizer`` + ``adc`` turn the voltage into an 11-bit ``word``,
``crp`` collects datasets and quality metrics, and ``attack`` tries to
model a chip from its responses.  ``codec`` is the one JSON form of every
config, report and manifest.

The package re-exports nothing: each name is imported from the module that
defines it, as in ``from cmapuf.crp import generate``.
"""
