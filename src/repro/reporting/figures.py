"""ASCII rendering of the Fig. 3 lease timeline."""

from __future__ import annotations

from ..core.timeline import PrefixTimeline
from ..rpki.roa import AS0

__all__ = ["render_timeline"]

_MARKS = {"rpki": "r", "bgp": "b", "both": "#"}


def render_timeline(timeline: PrefixTimeline, width: int = 72) -> str:
    """Render per-ASN bars over time, Fig. 3 style.

    ``#`` marks periods where the ASN is both RPKI-authorized and the BGP
    origin, ``r`` RPKI-only, ``b`` BGP-only.  The AS0 row shows the
    deliberate do-not-originate gaps between leases.
    """
    if not timeline.periods:
        return f"{timeline.prefix}: no history"
    start = timeline.periods[0].start
    end = max(
        period.end if period.end is not None else period.start + 1
        for period in timeline.periods
    )
    span = max(1, end - start)

    def column(timestamp: int) -> int:
        return min(width - 1, (timestamp - start) * width // span)

    rows = timeline.rows()
    ordered_asns = sorted(rows, key=lambda asn: (asn == AS0, asn))
    label_width = max(len(_label(asn)) for asn in ordered_asns)
    lines = [f"Fig. 3 timeline for {timeline.prefix}"]
    for asn in ordered_asns:
        canvas = [" "] * width
        for seg_start, seg_end, tag in rows[asn]:
            first = column(seg_start)
            last = column(seg_end) if seg_end is not None else width - 1
            for index in range(first, max(first, last) + 1):
                canvas[index] = _MARKS[tag]
        lines.append(f"{_label(asn):>{label_width}} |{''.join(canvas)}|")
    lines.append(
        f"{'':>{label_width}}  {'#'} = RPKI+BGP, r = RPKI only, "
        "b = BGP only"
    )
    return "\n".join(lines)


def _label(asn: int) -> str:
    return "AS0" if asn == AS0 else f"AS{asn}"
