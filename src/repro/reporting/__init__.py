"""Text reports reproducing the paper's tables and Fig. 3."""

from .bench import render_bench_report
from .diagnostics import (
    render_diagnostics_summary,
    render_diagnostics_text,
)
from .export import table1_json, table2_json, to_csv, to_markdown
from .figures import render_timeline
from .report import build_full_report
from .tables import (
    render_drop_stats,
    render_hijacker_stats,
    render_roa_stats,
    render_table1,
    render_table2,
    render_table3,
)
from .text import render_table

__all__ = [
    "build_full_report",
    "render_bench_report",
    "render_diagnostics_summary",
    "render_diagnostics_text",
    "render_drop_stats",
    "render_hijacker_stats",
    "render_roa_stats",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_timeline",
    "table1_json",
    "table2_json",
    "to_csv",
    "to_markdown",
]
