"""Fold layer_trace's Chrome trace-event JSON into a per-span self-time
table.

A span's self time is its duration minus the part of its interval its
child spans cover. Each event names its parent in `args.parent` (the
`args.id` of the enclosing span, -1 for a root), as layer_trace writes
it.
"""


def _parents(events):
    ids = {e["args"]["id"]: i for i, e in enumerate(events)}
    return [ids.get(e["args"]["parent"]) for e in events]


def _covered(intervals, lo, hi):
    """Length of the union of @p intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold(doc):
    """Return {name: {"count", "total_us", "self_us"}} for a trace."""
    events = doc["traceEvents"]
    parents = _parents(events)
    children = [[] for _ in events]
    for i, p in enumerate(parents):
        if p is not None:
            e = events[i]
            children[p].append((e["ts"], e["ts"] + e["dur"]))
    table = {}
    for i, e in enumerate(events):
        row = table.setdefault(e["name"],
                               {"count": 0, "total_us": 0.0, "self_us": 0.0})
        lo, hi = e["ts"], e["ts"] + e["dur"]
        row["count"] += 1
        row["total_us"] += e["dur"]
        row["self_us"] += e["dur"] - _covered(children[i], lo, hi)
    return table


def format_table(table):
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_us"])
    total_self = sum(r["self_us"] for _, r in rows) or 1.0
    lines = [f"{'span':<22} {'count':>8} {'total_ms':>10} {'self_ms':>10}"
             f" {'self%':>6}"]
    for name, r in rows:
        lines.append(f"{name:<22} {r['count']:>8} {r['total_us'] / 1e3:>10.3f}"
                     f" {r['self_us'] / 1e3:>10.3f}"
                     f" {100 * r['self_us'] / total_self:>6.1f}")
    return "\n".join(lines)

