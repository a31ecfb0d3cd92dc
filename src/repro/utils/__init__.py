"""Shared utilities: RNG plumbing, telemetry, text tables, validation."""

from repro.utils.rng import ensure_rng, SeedSequenceFactory
from repro.utils.tables import TextTable, format_float
from repro.utils.telemetry import RunLogger, read_run_log, render_run_report, summarize_run
from repro.utils.validation import check_positive, check_probability, check_in_choices

__all__ = [
    "ensure_rng",
    "SeedSequenceFactory",
    "TextTable",
    "format_float",
    "RunLogger",
    "read_run_log",
    "summarize_run",
    "render_run_report",
    "check_positive",
    "check_probability",
    "check_in_choices",
]
