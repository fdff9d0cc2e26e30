"""Terminal rendering of the pipeline benchmark payloads."""

from __future__ import annotations

from typing import Dict, List

from .text import render_table

__all__ = ["render_bench_report"]


def render_bench_report(report: Dict[str, object]) -> str:
    """One table of engine modes per benched world of one run payload
    (``{"worlds": [...]}``)."""
    sections: List[str] = []
    for world in report["worlds"]:  # type: ignore[union-attr]
        headers = (
            "mode",
            "wall s",
            "leaves/s",
            "vs reference",
            "peak rss",
            "cat hit%",
            "root hit%",
            "ok",
        )
        rows = []
        for mode in world["modes"]:  # type: ignore[index]
            cache = mode.get("cache") or {}
            rates = cache.get("hit_rates") or {}
            rows.append(
                (
                    mode["mode"],
                    f"{mode['wall_s']:.2f}",
                    f"{mode['leaves_per_s']:,.0f}",
                    f"{mode['speedup_vs_reference']:.2f}x",
                    _bytes(mode.get("peak_rss_bytes")),
                    _percent(rates.get("category")),
                    _percent(rates.get("root_origin")),
                    "yes" if mode["equivalent"] else "NO",
                )
            )
        title = (
            f"Pipeline bench — {world['size']} world: "
            f"{world['classifiable_leaves']:,} leaves, "
            f"generate {world['stages']['generate_s']:.2f}s"
        )
        sections.append(render_table(headers, rows, title=title))
    return "\n\n".join(sections)


def _percent(rate: object) -> str:
    if rate is None:
        return "-"
    return f"{float(rate) * 100:.0f}%"


def _bytes(value: object) -> str:
    if value is None:
        return "-"
    size = float(int(value))
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024 or unit == "GB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:,.1f} {unit}"
        size /= 1024
    return f"{size:,.1f} GB"  # pragma: no cover - unreachable

