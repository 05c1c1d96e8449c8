#!/usr/bin/env python3
"""Fuse a sweep's telemetry artifacts into one self-contained HTML
observability report.

    report_html.py --out report.html \
        [--metrics metrics.json ...] \
        [--trace trace.json ...] \
        [--title "fig02 sweep"]

Inputs are what the grid binaries write: `--metrics-out` snapshots
(obs::MetricsRegistry canonical JSON) and `--trace-out` Chrome
trace-event timelines (obs::TraceRecorder). The report embeds
everything inline — no external scripts, stylesheets, or fonts — so
it can be archived as a CI artifact and opened anywhere:

- one counter table per snapshot;
- an SVG lane timeline per trace (one row per pid/tid lane, spans as
  rectangles, instants as ticks), including the explicit sweep lane.
"""

import argparse
import html
import json
import sys
from pathlib import Path


def esc(text):
    return html.escape(str(text), quote=True)


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: not readable JSON: {e}")


# ----------------------------- metrics -----------------------------

def metrics_section(path, doc):
    if doc.get("obs") != "regate-metrics":
        sys.exit(f"{path}: not a regate metrics snapshot "
                 f"(obs={doc.get('obs')!r})")
    out = [f"<h2>Metrics — {esc(path)}</h2>"]
    counters = doc.get("counters", {})
    if counters:
        out.append("<table><tr><th>name</th><th>value</th></tr>")
        for name, value in sorted(counters.items()):
            out.append(f"<tr><td>{esc(name)}</td>"
                       f"<td class=num>{value}</td></tr>")
        out.append("</table>")
    return "\n".join(out)


# ----------------------------- timeline ----------------------------

LANE_H = 22
LANE_PAD = 4
CHART_W = 960
LABEL_W = 150

SPAN_COLORS = ["#4e79a7", "#f28e2b", "#76b7b2", "#59a14f",
               "#edc948", "#b07aa1", "#ff9da7", "#9c755f"]


def timeline_svg(events):
    """SVG lane timeline: spans as rects, instants as ticks."""
    spans, instants = [], []
    for ev in events:
        lane = (ev.get("pid", 0), ev.get("tid", 0))
        ph = ev.get("ph")
        if ph == "X":
            spans.append((lane, ev["ts"], ev.get("dur", 0),
                          ev["name"]))
        elif ph == "i":
            instants.append((lane, ev["ts"], ev["name"]))
    t_end = 0
    for lane, ts, dur, name in spans:
        t_end = max(t_end, ts + dur)
    for lane, ts, name in instants:
        t_end = max(t_end, ts)
    if t_end == 0:
        t_end = 1
    lanes = sorted({s[0] for s in spans} | {i[0] for i in instants})
    lane_y = {lane: i for i, lane in enumerate(lanes)}
    height = len(lanes) * (LANE_H + LANE_PAD) + 24

    def x(ts):
        return LABEL_W + (CHART_W - LABEL_W) * ts / t_end

    def y(lane):
        return 4 + lane_y[lane] * (LANE_H + LANE_PAD)

    color = {}
    parts = [f"<svg viewBox='0 0 {CHART_W} {height}' "
             f"class=timeline role=img>"]
    for lane in lanes:
        parts.append(
            f"<text x=4 y={y(lane) + LANE_H - 6} class=lane>"
            f"{esc(f'pid {lane[0]} / lane {lane[1]}')}</text>")
    for lane, ts, dur, name in sorted(spans):
        c = color.setdefault(name,
                             SPAN_COLORS[len(color) %
                                         len(SPAN_COLORS)])
        w = max(1.0, x(ts + dur) - x(ts))
        parts.append(
            f"<rect x={x(ts):.1f} y={y(lane)} width={w:.1f} "
            f"height={LANE_H - 8} fill='{c}'>"
            f"<title>{esc(f'{name} [{ts}us +{dur}us]')}</title>"
            f"</rect>")
    for lane, ts, name in sorted(instants):
        parts.append(
            f"<line x1={x(ts):.1f} y1={y(lane)} x2={x(ts):.1f} "
            f"y2={y(lane) + LANE_H - 4} class=tick>"
            f"<title>{esc(f'{name} @{ts}us')}</title></line>")
    parts.append(f"<text x={LABEL_W} y={height - 6} class=axis>0us"
                 f"</text><text x={CHART_W - 4} y={height - 6} "
                 f"class='axis end'>{t_end}us</text>")
    parts.append("</svg>")
    legend = "".join(
        f"<span class=key><span class=swatch "
        f"style='background:{c}'></span>{esc(name)}</span>"
        for name, c in sorted(color.items()))
    return "".join(parts) + f"<div class=legend>{legend}</div>"


def trace_section(path, events):
    out = [f"<h2>Trace timeline — {esc(path)}</h2>",
           f"<p class=dim>{len(events)} events</p>",
           timeline_svg(events)]
    return "\n".join(out)


# ------------------------------- page -------------------------------

CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 1000px; color: #1a1a2e; }
h1 { border-bottom: 2px solid #4e79a7; padding-bottom: .3em; }
h2 { margin-top: 1.6em; }
table { border-collapse: collapse; margin: .6em 0; width: 100%; }
th, td { border: 1px solid #d0d4da; padding: .25em .6em;
         text-align: left; vertical-align: bottom; }
th { background: #eef1f5; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.dim { color: #777; }
svg.timeline { width: 100%; background: #fafbfc;
               border: 1px solid #d0d4da; }
svg .lane { font: 11px system-ui, sans-serif; fill: #555; }
svg .axis { font: 10px system-ui, sans-serif; fill: #999; }
svg .axis.end { text-anchor: end; }
svg .tick { stroke: #c03; stroke-width: 1.5; }
.legend { margin: .4em 0 1em; }
.key { margin-right: 1.2em; font-size: 12px; }
.swatch { display: inline-block; width: 10px; height: 10px;
          margin-right: .3em; }
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--metrics", action="append", default=[],
                    help="--metrics-out snapshot (repeatable)")
    ap.add_argument("--trace", action="append", default=[],
                    help="--trace-out timeline (repeatable)")
    ap.add_argument("--out", required=True,
                    help="HTML file to write")
    ap.add_argument("--title", default="regate observability report")
    args = ap.parse_args()
    if not (args.metrics or args.trace):
        ap.error("give at least one --metrics/--trace")

    sections = []
    for path in args.metrics:
        sections.append(metrics_section(path, load_json(path)))
    for path in args.trace:
        events = load_json(path)
        if not isinstance(events, list):
            sys.exit(f"{path}: trace top level is not an array")
        sections.append(trace_section(path, events))

    body = "\n".join(sections)
    page = (f"<!doctype html>\n<html lang=en><head>"
            f"<meta charset=utf-8>"
            f"<title>{esc(args.title)}</title>"
            f"<style>{CSS}</style></head>\n"
            f"<body><h1>{esc(args.title)}</h1>\n{body}\n"
            f"</body></html>\n")
    Path(args.out).write_text(page)
    print(f"{args.out}: {len(page)} bytes from "
          f"{len(args.metrics)} metrics and {len(args.trace)} trace "
          f"input(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
