"""Profiling views over a flat trace event stream.

Reconstructs the span tree from the flat JSONL events emitted by
:class:`repro.obs.tracer.Tracer` and renders the two summaries the
``repro profile`` subcommand prints:

* :func:`format_span_tree` — the indented call tree with wall/CPU time
  and the share of the run each span accounts for;
* :func:`hotspots` / :func:`format_hotspots` — per-span-name
  aggregation ranked by *self* wall time (time not attributed to child
  spans), i.e. where the run actually went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "SpanNode",
    "span_events",
    "build_span_tree",
    "format_span_tree",
    "hotspots",
    "format_hotspots",
]


@dataclass
class SpanNode:
    """One span with its children resolved."""

    event: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.event["name"])

    @property
    def wall(self) -> float:
        return float(self.event["wall_s"])

    @property
    def cpu(self) -> float:
        return float(self.event["cpu_s"])

    @property
    def self_wall(self) -> float:
        """Wall time not covered by child spans (floored at zero).

        Children timed in another process can overlap the parent (a
        supervisor attempt span and the worker's own spans measure the
        same work), which would drive the naive subtraction negative;
        flooring keeps hotspot ranking sane.
        """
        return max(0.0, self.wall - sum(child.wall for child in self.children))

    def walk(self) -> List["SpanNode"]:
        """This node and all descendants, depth-first."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes


def span_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Just the span lines of a trace event stream."""
    return [event for event in events if event.get("type") == "span"]


def build_span_tree(events: List[Dict[str, Any]]) -> List[SpanNode]:
    """Reconstruct the span forest from flat events.

    Events arrive in close order (children precede their parent within
    a stream), so linking is two-pass: index every node, then attach
    children in event order — which keeps the tree deterministic for a
    deterministic event stream.  Spans whose parent is missing from the
    stream (a truncated file) surface as extra roots rather than being
    dropped.
    """
    spans = span_events(events)
    nodes = {str(event["id"]): SpanNode(event) for event in spans}
    roots: List[SpanNode] = []
    for event in spans:
        node = nodes[str(event["id"])]
        parent_id = event.get("parent")
        parent = nodes.get(str(parent_id)) if parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def _format_node(
    node: SpanNode,
    lines: List[str],
    indent: int,
    total_wall: float,
    max_depth: Optional[int],
) -> None:
    if max_depth is not None and indent > max_depth:
        return
    share = 100.0 * node.wall / total_wall if total_wall > 0 else 0.0
    detail_parts = []
    attrs = node.event.get("attrs") or {}
    if attrs:
        rendered = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        detail_parts.append(rendered)
    counters = node.event.get("counters") or {}
    if counters:
        rendered = " ".join(f"{key}={counters[key]}" for key in sorted(counters))
        detail_parts.append(f"[{rendered}]")
    if node.event.get("status") != "ok":
        detail_parts.append(f"ERROR: {node.event.get('error', '')}")
    detail = ("  " + " ".join(detail_parts)) if detail_parts else ""
    lines.append(
        f"{'  ' * indent}{node.name:<{max(1, 36 - 2 * indent)}} "
        f"{node.wall * 1e3:>9.2f} ms  {node.cpu * 1e3:>9.2f} ms cpu "
        f"{share:>5.1f}%{detail}"
    )
    for child in node.children:
        _format_node(child, lines, indent + 1, total_wall, max_depth)


def format_span_tree(
    events: List[Dict[str, Any]], max_depth: Optional[int] = None
) -> str:
    """The indented span tree with wall/CPU timings and run share."""
    roots = build_span_tree(events)
    if not roots:
        return "trace: no spans recorded"
    total_wall = sum(root.wall for root in roots)
    lines = [
        f"{'span':<36} {'wall':>12}  {'cpu':>12}     {'share':>6}",
    ]
    for root in roots:
        _format_node(root, lines, 0, total_wall, max_depth)
    return "\n".join(lines)


def hotspots(events: List[Dict[str, Any]], top: int = 10) -> List[Dict[str, Any]]:
    """Aggregate spans by name, ranked by total *self* wall time.

    Returns dicts with ``name``, ``calls``, ``wall_s`` (inclusive),
    ``self_s`` (exclusive), ``cpu_s`` and ``share`` (self time as a
    fraction of the forest's total wall time).
    """
    roots = build_span_tree(events)
    total_wall = sum(root.wall for root in roots)
    aggregated: Dict[str, Dict[str, Any]] = {}
    for root in roots:
        for node in root.walk():
            entry = aggregated.setdefault(
                node.name,
                {"name": node.name, "calls": 0, "wall_s": 0.0,
                 "self_s": 0.0, "cpu_s": 0.0},
            )
            entry["calls"] += 1
            entry["wall_s"] += node.wall
            entry["self_s"] += node.self_wall
            entry["cpu_s"] += node.cpu
    ranked = sorted(
        aggregated.values(), key=lambda entry: (-entry["self_s"], entry["name"])
    )
    for entry in ranked:
        entry["share"] = entry["self_s"] / total_wall if total_wall > 0 else 0.0
    return ranked[:top] if top else ranked


def format_hotspots(events: List[Dict[str, Any]], top: int = 10) -> str:
    """Human-readable hotspot table."""
    entries = hotspots(events, top=top)
    if not entries:
        return "hotspots: no spans recorded"
    lines = [
        f"{'span':<28} {'calls':>6} {'self':>10} {'total':>10} "
        f"{'cpu':>10} {'share':>6}"
    ]
    for entry in entries:
        lines.append(
            f"{entry['name']:<28} {entry['calls']:>6} "
            f"{entry['self_s'] * 1e3:>8.2f}ms {entry['wall_s'] * 1e3:>8.2f}ms "
            f"{entry['cpu_s'] * 1e3:>8.2f}ms {100 * entry['share']:>5.1f}%"
        )
    return "\n".join(lines)
