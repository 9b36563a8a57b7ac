"""Trace/metrics serialization: JSONL traces, Prometheus text, span trees.

Three consumers, three formats:

- **JSONL traces** (`write_trace_jsonl` / `read_trace_jsonl`) — one
  span per line with depth-first ids and parent pointers, so a trace
  streams to disk without building an intermediate document and the
  tree shape can be rebuilt from the rows;
- **Prometheus text** (`prometheus_text` / `write_metrics_text`) — the
  plain exposition format, counters suffixed ``_total``, names
  sanitized to the Prometheus charset under a ``repro_`` namespace;
- **span-tree summary** (`span_tree_summary`) — a human-readable
  aggregate for terminals: sibling spans grouped by name per level with
  call counts and total/average durations.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from repro.obs.metrics import parse_flat_name
from repro.obs.tracer import Span

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


# -- JSONL traces ------------------------------------------------------------


def trace_rows(tracer) -> List[Dict[str, Any]]:
    """Flatten a tracer's span forest into JSON-able rows.

    Ids are assigned depth-first (a parent's id always precedes its
    children's), ``parent`` is ``None`` for roots.
    """
    rows: List[Dict[str, Any]] = []

    def emit(span: Span, parent: Optional[int]) -> None:
        span_id = len(rows)
        rows.append(
            {
                "id": span_id,
                "parent": parent,
                "name": span.name,
                "t_start": span.t_start,
                "t_end": span.t_end,
                "duration_s": span.duration_s,
                "attributes": span.attributes,
            }
        )
        for child in span.children:
            emit(child, span_id)

    for root in tracer.roots:
        emit(root, None)
    return rows


def write_trace_jsonl(tracer, path: str) -> int:
    """Write one span per line; returns the number of spans written."""
    rows = trace_rows(tracer)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return len(rows)


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read the flat rows back (blank lines tolerated)."""
    rows: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# -- Prometheus text ---------------------------------------------------------


def _metric_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized.startswith("repro_"):
        sanitized = "repro_" + sanitized
    return sanitized + "_total"


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_LABEL_RE.sub("_", k)}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(metrics) -> str:
    """Render a registry's counters in the Prometheus exposition format."""
    lines: List[str] = []
    typed: set = set()
    for flat, value in metrics.counters().items():
        name, labels = parse_flat_name(flat)
        pname = _metric_name(name)
        if pname not in typed:
            typed.add(pname)
            lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname}{_label_str(labels)} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics_text(metrics, path: str) -> int:
    """Write the Prometheus snapshot; returns the number of lines."""
    text = prometheus_text(metrics)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")


# -- human-readable span tree ------------------------------------------------


def span_tree_summary(tracer, max_depth: int = 6) -> str:
    """Aggregate sibling spans by name into an indented summary table.

    Every level groups same-named siblings: one output line per group
    with call count, total and mean duration.  Depth is capped so a
    100k-span swarm trace summarizes to a screenful.
    """
    lines: List[str] = []

    def group(spans: List[Span], depth: int) -> None:
        if depth >= max_depth or not spans:
            return
        order: List[str] = []
        buckets: Dict[str, List[Span]] = {}
        for span in spans:
            if span.name not in buckets:
                order.append(span.name)
                buckets[span.name] = []
            buckets[span.name].append(span)
        for name in order:
            members = buckets[name]
            total = sum(s.duration_s for s in members)
            label = "  " * depth + name
            count = f"{len(members)}x"
            mean = (
                f"  (avg {total / len(members) * 1e3:.2f}ms)"
                if len(members) > 1
                else ""
            )
            lines.append(f"{label:<44} {count:>8} {total * 1e3:>10.2f}ms{mean}")
            group([c for s in members for c in s.children], depth + 1)

    group(list(tracer.roots), 0)
    if getattr(tracer, "n_dropped", 0):
        lines.append(f"... {tracer.n_dropped} spans dropped (max_spans reached)")
    return "\n".join(lines)
