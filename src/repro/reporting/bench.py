"""Terminal rendering of the pipeline benchmark payloads."""

from __future__ import annotations

from typing import Dict, List

from .text import render_table

__all__ = ["render_bench_report"]


def render_bench_report(report: Dict[str, object]) -> str:
    """Tables per benched world: engine modes, then extension pipelines.

    Accepts a single run payload (``{"worlds": [...]}``) or a v2
    trajectory file (``{"runs": [...]}``), rendering the latest run.
    Runs recorded before schema v4 also carry pool modes
    (``parallel-N``); they render as further rows.
    """
    runs = report.get("runs")  # type: ignore[union-attr]
    if isinstance(runs, list) and runs:
        report = runs[-1]
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
        extensions = world.get("extensions")  # type: ignore[union-attr]
        if extensions:
            sections.append(_render_extensions(world["size"], extensions))
    return "\n\n".join(sections)


def _render_extensions(size: object, extensions: Dict[str, object]) -> str:
    headers = (
        "pipeline",
        "mode",
        "items",
        "wall s",
        "vs reference",
        "ok",
    )
    rows = []
    for pipeline in ("legacy", "rpki", "longitudinal"):
        section = extensions.get(pipeline)
        if not section:
            continue
        for mode in section["modes"]:  # type: ignore[index]
            rows.append(
                (
                    pipeline,
                    mode["mode"],
                    section["items"],  # type: ignore[index]
                    f"{mode['wall_s']:.4f}",
                    f"{mode['speedup_vs_reference']:.2f}x",
                    "yes" if mode["equivalent"] else "NO",
                )
            )
    return render_table(
        headers, rows, title=f"Extension pipelines — {size} world"
    )


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

