"""Operator dashboard: one self-contained HTML report per campaign.

``darkcrowd dashboard`` folds the observatory's persisted artifacts --
``--series-out`` JSONL, ``--health-out`` JSONL, ``--profile-out`` JSON,
plus the metrics and trace documents -- into a single static HTML file
an operator can open from a USB stick on an air-gapped box: no CDN, no
external scripts, inline CSS and SVG only.  It reads and digests each
artifact as ``darkcrowd stats`` does (:mod:`repro.obs.artifacts`).

Rendering follows the project's chart conventions:

* Every series is a **single-series sparkline** (2 px line, area wash at
  10% opacity, end-dot with a surface ring, endpoint value label) -- one
  color, so the panel title is the legend.  Hover carries per-sample
  values via native SVG ``<title>`` tooltips, and every panel ships a
  collapsible table twin so no value is gated behind hover or color.
* Health states use the reserved status palette and never color alone:
  each state renders as icon + label (``OK`` / ``! WARN`` / ``x CRIT``).
* Text wears ink tokens, never series color; grids are solid hairlines;
  dark mode is a selected palette behind ``prefers-color-scheme``, not
  an automatic inversion.
"""

from __future__ import annotations

import html
import math
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from . import artifacts
from .health import CRIT, HEALTH_KIND, OK, WARN, HealthDigest, HealthEvent, health_digest
from .profiler import PROFILE_KIND
from .timeseries import SERIES_KIND, SeriesFrame

__all__ = [
    "render_html",
    "render_dashboard",
]

#: Reference palette (validated; see DESIGN "Health observatory").
_LIGHT = {
    "surface": "#fcfcfb",
    "page": "#f9f9f7",
    "ink": "#0b0b0b",
    "ink2": "#52514e",
    "muted": "#898781",
    "grid": "#e1e0d9",
    "axis": "#c3c2b7",
    "series": "#2a78d6",
    "border": "rgba(11,11,11,0.10)",
}
_DARK = {
    "surface": "#1a1a19",
    "page": "#0d0d0d",
    "ink": "#ffffff",
    "ink2": "#c3c2b7",
    "muted": "#898781",
    "grid": "#2c2c2a",
    "axis": "#383835",
    "series": "#3987e5",
    "border": "rgba(255,255,255,0.10)",
}
#: Reserved status palette -- shipped with icon + label, never color alone.
_STATUS = {OK: "#0ca30c", WARN: "#fab219", CRIT: "#d03b3b"}
_STATUS_LABEL = {OK: "OK", WARN: "! WARN", CRIT: "x CRIT"}

_SPARK_W = 280
_SPARK_H = 48
_PAD = 6


def _fmt(value: float) -> str:
    """Compact human value: 1284 -> 1.3K, 0.000023 -> 2.3e-05."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e9:
        return f"{value / 1e9:.1f}G"
    if magnitude >= 1e6:
        return f"{value / 1e6:.1f}M"
    if magnitude >= 1e4:
        return f"{value / 1e3:.1f}K"
    if magnitude >= 1:
        return f"{value:.6g}"
    if magnitude >= 1e-3:
        return f"{value:.4g}"
    return f"{value:.2e}"


def _fmt_t(t: float, t0: float) -> str:
    """Offset from campaign start, in days when large enough to matter."""
    dt = t - t0
    if abs(dt) >= 2 * 86400:
        return f"day {dt / 86400:.1f}"
    if abs(dt) >= 7200:
        return f"{dt / 3600:.1f}h"
    return f"{dt:.0f}s"


# ---------------------------------------------------------------------------
# HTML building blocks
# ---------------------------------------------------------------------------


def _sparkline_svg(times: np.ndarray, values: np.ndarray, t0: float) -> str:
    """Inline SVG sparkline: 2px line, 10% area wash, ringed end-dot."""
    w, h, pad = _SPARK_W, _SPARK_H, _PAD
    if times.size == 0:
        return f'<svg width="{w}" height="{h}" role="img"></svg>'
    tmin, tmax = float(times[0]), float(times[-1])
    vmin, vmax = float(values.min()), float(values.max())
    tspan = (tmax - tmin) or 1.0
    vspan = (vmax - vmin) or 1.0

    def x(t: float) -> float:
        return pad + (t - tmin) / tspan * (w - 2 * pad)

    def y(v: float) -> float:
        return h - pad - (v - vmin) / vspan * (h - 2 * pad)

    pts = [(x(float(t)), y(float(v))) for t, v in zip(times, values)]
    line = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
    area = (
        f"{pts[0][0]:.1f},{h - pad} " + line + f" {pts[-1][0]:.1f},{h - pad}"
    )
    ex, ey = pts[-1]
    hover = "".join(
        f'<circle cx="{px:.1f}" cy="{py:.1f}" r="7" fill="transparent">'
        f"<title>{html.escape(_fmt_t(float(t), t0))}: "
        f"{html.escape(_fmt(float(v)))}</title></circle>"
        for (px, py), t, v in zip(pts, times, values)
    )
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" role="img">'
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" '
        f'stroke="var(--axis)" stroke-width="1"/>'
        f'<polygon points="{area}" fill="var(--series)" opacity="0.10"/>'
        f'<polyline points="{line}" fill="none" stroke="var(--series)" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="6" fill="var(--surface)"/>'
        f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" fill="var(--series)"/>'
        f"{hover}"
        f"</svg>"
    )


def _series_table(times: np.ndarray, values: np.ndarray, t0: float) -> str:
    rows = "".join(
        f"<tr><td>{html.escape(_fmt_t(float(t), t0))}</td>"
        f"<td>{html.escape(_fmt(float(v)))}</td></tr>"
        for t, v in zip(times, values)
    )
    return (
        "<details><summary>table</summary>"
        "<table><thead><tr><th>t</th><th>value</th></tr></thead>"
        f"<tbody>{rows}</tbody></table></details>"
    )


def _series_panel(name: str, times: np.ndarray, values: np.ndarray, t0: float) -> str:
    last = _fmt(float(values[-1])) if values.size else "--"
    return (
        '<div class="panel">'
        f'<div class="panel-title">{html.escape(name)}</div>'
        f'<div class="panel-value">{html.escape(last)}</div>'
        f"{_sparkline_svg(times, values, t0)}"
        f"{_series_table(times, values, t0)}"
        "</div>"
    )


def _state_chip(state: str) -> str:
    color = _STATUS[state]
    label = _STATUS_LABEL[state]
    return (
        f'<span class="chip"><span class="dot" style="background:{color}">'
        f"</span>{html.escape(label)}</span>"
    )


def _health_lane(
    rule: str,
    segments: Sequence[tuple[float, str]],
    t0: float,
    t1: float,
) -> str:
    """One horizontal state lane: colored segments + transition ticks."""
    w, h = 560, 14
    span = (t1 - t0) or 1.0
    parts: list[str] = []
    for i, (start, state) in enumerate(segments):
        seg_start = max(start, t0)
        seg_end = segments[i + 1][0] if i + 1 < len(segments) else t1
        if seg_end <= seg_start:
            continue
        x0 = (seg_start - t0) / span * w
        x1 = (seg_end - t0) / span * w
        parts.append(
            f'<rect x="{x0:.1f}" y="2" width="{max(x1 - x0, 1.0):.1f}" '
            f'height="{h - 4}" rx="2" fill="{_STATUS[state]}">'
            f"<title>{html.escape(rule)}: {html.escape(_STATUS_LABEL[state])} "
            f"from {html.escape(_fmt_t(seg_start, t0))}</title></rect>"
        )
    return (
        '<div class="lane">'
        f'<div class="lane-name">{html.escape(rule)}</div>'
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}">{"".join(parts)}</svg>'
        f"{_state_chip(segments[-1][1])}"
        "</div>"
    )


def _health_section(
    digest: HealthDigest, events: Sequence[HealthEvent], t0: float, t1: float
) -> str:
    lane_html = "".join(
        _health_lane(rule, segments, t0, t1) for rule, segments in digest.lanes.items()
    )
    rows = "".join(
        f"<tr><td>{html.escape(_fmt_t(e.t, t0))}</td>"
        f"<td>{html.escape(e.rule)}</td>"
        f"<td>{_state_chip(e.old_state)} &rarr; {_state_chip(e.new_state)}</td>"
        f"<td>{html.escape(_fmt(e.value))}</td></tr>"
        for e in events
    )
    table = (
        "<table><thead><tr><th>t</th><th>rule</th><th>transition</th>"
        f"<th>value</th></tr></thead><tbody>{rows}</tbody></table>"
        if events
        else '<p class="muted">no transitions: every rule stayed OK.</p>'
    )
    return f"<h2>Health timeline</h2>{lane_html}{table}"


def _hotspot_section(profile: dict[str, Any]) -> str:
    hotspots = profile.get("hotspots", [])
    if not hotspots:
        return "<h2>Hotspots</h2><p class='muted'>no samples captured.</p>"
    peak = max(h["self_samples"] for h in hotspots) or 1
    rows = []
    for spot in hotspots:
        frac = spot["self_samples"] / peak
        rows.append(
            f"<tr><td class='frame'>{html.escape(str(spot['frame']))}</td>"
            f"<td>{spot['self_samples']}</td><td>{spot['total_samples']}</td>"
            f"<td>{spot['self_fraction'] * 100:.1f}%</td>"
            f'<td><svg width="120" height="12"><rect x="0" y="1" '
            f'width="{max(frac * 120, 2):.0f}" height="10" rx="2" '
            f'fill="var(--series)"/></svg></td></tr>'
        )
    return (
        f"<h2>Hotspots <span class='muted'>({profile.get('n_samples', 0)} samples "
        f"@ {profile.get('interval_s', 0) * 1e3:g} ms)</span></h2>"
        "<table><thead><tr><th>frame</th><th>self</th><th>total</th>"
        f"<th>self %</th><th></th></tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _metrics_section(metrics_doc: dict[str, Any]) -> str:
    histograms = artifacts.histogram_rows(metrics_doc.get("metrics") or {})
    if not histograms:
        return ""
    rows = []
    for row in histograms:
        cells = "".join(
            f"<td>{'--' if math.isnan(p) else html.escape(_fmt(p))}</td>"
            for p in row.quantiles
        )
        label = row.name + ("{" + row.labels + "}" if row.labels else "")
        rows.append(
            f"<tr><td class='frame'>{html.escape(label)}</td>"
            f"<td>{row.count}</td>{cells}</tr>"
        )
    return (
        "<h2>Latency percentiles</h2>"
        "<table><thead><tr><th>histogram</th><th>count</th><th>p50</th>"
        f"<th>p95</th><th>p99</th></tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _trace_section(trace_doc: dict[str, Any]) -> str:
    if not trace_doc.get("traceEvents"):
        return ""
    rows = "".join(
        f"<tr><td class='frame'>{html.escape(span.name)}</td><td>{span.count}</td>"
        f"<td>{html.escape(_fmt(span.total_us / 1e6))}s</td></tr>"
        for span in artifacts.trace_digest(trace_doc)[:12]
    )
    return (
        "<h2>Trace digest</h2>"
        "<table><thead><tr><th>span</th><th>count</th><th>total</th></tr>"
        f"</thead><tbody>{rows}</tbody></table>"
    )


_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz {
  --surface: %(l_surface)s; --page: %(l_page)s; --ink: %(l_ink)s;
  --ink2: %(l_ink2)s; --muted: %(l_muted)s; --grid: %(l_grid)s;
  --axis: %(l_axis)s; --series: %(l_series)s; --border: %(l_border)s;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  .viz {
    --surface: %(d_surface)s; --page: %(d_page)s; --ink: %(d_ink)s;
    --ink2: %(d_ink2)s; --muted: %(d_muted)s; --grid: %(d_grid)s;
    --axis: %(d_axis)s; --series: %(d_series)s; --border: %(d_border)s;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--ink); }
.muted { color: var(--muted); font-weight: 400; }
.subtitle { color: var(--ink2); margin-bottom: 20px; }
.hero { display: flex; gap: 24px; align-items: baseline; margin: 18px 0; }
.hero .value { font-size: 48px; font-weight: 600; }
.hero .label { color: var(--ink2); }
.grid { display: flex; flex-wrap: wrap; gap: 12px; }
.panel {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; width: %(spark_w)spx;
}
.panel-title { color: var(--ink2); font-size: 12px; overflow-wrap: anywhere; }
.panel-value { font-size: 22px; font-weight: 600; margin: 2px 0 6px; }
.lane { display: flex; align-items: center; gap: 10px; margin: 4px 0; }
.lane-name { width: 220px; color: var(--ink2); font-size: 13px;
  overflow-wrap: anywhere; }
.chip { display: inline-flex; align-items: center; gap: 6px;
  font-size: 12px; color: var(--ink2); white-space: nowrap; }
.dot { width: 10px; height: 10px; border-radius: 50%%; display: inline-block; }
table { border-collapse: collapse; margin-top: 6px;
  font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 3px 12px 3px 0; border-bottom: 1px solid
  var(--grid); font-weight: 400; font-size: 13px; }
th { color: var(--muted); font-size: 12px; }
td.frame { font-family: ui-monospace, monospace; font-size: 12px; }
details { margin-top: 6px; }
summary { color: var(--muted); font-size: 12px; cursor: pointer; }
"""


def render_html(loaded: Mapping[str, Any], title: str) -> str:
    """The self-contained HTML report of ``load_artifact`` contents, by kind."""
    series: SeriesFrame | None = loaded.get(SERIES_KIND)
    health = loaded.get(HEALTH_KIND)
    events = health[1] if health is not None else []
    digest = health_digest(*health) if health is not None else None
    t0, t1 = 0.0, 1.0
    if series is not None and series.times:
        t0, t1 = float(series.times[0]), float(series.times[-1])
    elif events:
        ts = [e.t for e in events]
        t0, t1 = min(ts), max(ts)

    sections: list[str] = []
    n_samples = len(series) if series is not None else 0
    span_days = (t1 - t0) / 86400.0 if series is not None else 0.0
    overall = digest.overall if digest is not None else OK
    sections.append(
        '<div class="hero">'
        f'<div><div class="value">{_state_chip(overall)}</div>'
        '<div class="label">final health</div></div>'
        f'<div><div class="value">{n_samples}</div>'
        '<div class="label">samples</div></div>'
        f'<div><div class="value">{span_days:.0f}d</div>'
        '<div class="label">span</div></div>'
        f'<div><div class="value">{len(events)}</div>'
        '<div class="label">transitions</div></div>'
        "</div>"
    )
    if series is not None:
        panels = "".join(
            _series_panel(name, *series.series(name), t0) for name in series.names()
        )
        sections.append(f"<h2>Series</h2><div class='grid'>{panels}</div>")
    if digest is not None:
        sections.append(_health_section(digest, events, t0, t1))
    if PROFILE_KIND in loaded:
        sections.append(_hotspot_section(loaded[PROFILE_KIND]))
    if artifacts.METRICS_KIND in loaded:
        sections.append(_metrics_section(loaded[artifacts.METRICS_KIND]))
    if artifacts.TRACE_KIND in loaded:
        sections.append(_trace_section(loaded[artifacts.TRACE_KIND]))

    css = _CSS % {
        "spark_w": _SPARK_W,
        **{f"l_{k}": v for k, v in _LIGHT.items()},
        **{f"d_{k}": v for k, v in _DARK.items()},
    }
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(title)}</title>"
        f"<style>{css}</style></head>"
        '<body class="viz"><h1>' + html.escape(title) + "</h1>"
        '<div class="subtitle">static report rendered from observatory '
        "artifacts; safe to archive or mail.</div>"
        + "".join(sections)
        + "</body></html>\n"
    )


def render_dashboard(
    *,
    series_path: str | Path | None = None,
    health_path: str | Path | None = None,
    profile_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    trace_path: str | Path | None = None,
    title: str = "darkcrowd health observatory",
) -> str:
    """Load whichever artifacts are given and render the HTML report.

    Raises ``ValueError`` when none is given or one is not of the kind
    its argument names.
    """
    paths = {
        SERIES_KIND: series_path,
        HEALTH_KIND: health_path,
        PROFILE_KIND: profile_path,
        artifacts.METRICS_KIND: metrics_path,
        artifacts.TRACE_KIND: trace_path,
    }
    if not any(paths.values()):
        raise ValueError(
            "nothing to render: pass at least one artifact path "
            "(series, health, profile, metrics or trace)"
        )
    loaded: dict[str, Any] = {}
    for kind, path in paths.items():
        if path:
            found, loaded[kind] = artifacts.load_artifact(path)
            if found != kind:
                raise ValueError(f"{path}: expected kind {kind!r}, got {found!r}")
    return render_html(loaded, title)
