#!/usr/bin/env python3
"""Print an instrumented matching table for a workspace.

For every (request, principal rule) pair the table shows whether the
condition held and how much work the matcher did, next to the
per-condition work bound ``rebac.work_bound``, read from the rule as
``len(graph) * rule.bound_factor``.

Usage::

    python3 scripts/metrics_report.py            # bundled corporate example
    python3 scripts/metrics_report.py -w ws.json # any workspace file
"""

from __future__ import annotations

import argparse
import sys

from rebac import TOP, load_workspace, make_fixture, match_path


def build_rows(workspace):
    rows = []
    for request in workspace.requests:
        for rule in workspace.system.principal_rules:
            if rule.condition is TOP:
                continue
            found, metrics = match_path(workspace.graph, request.subject, request.object, rule)
            rows.append(
                (
                    rule.text,
                    f"{request.subject} -> {request.object}",
                    "yes" if found else "no",
                    metrics.nodes_visited,
                    metrics.edges_considered,
                    metrics.queue_peak,
                    metrics.pairs_seen,
                    len(workspace.graph) * rule.bound_factor,
                )
            )
    return rows


def print_table(rows, out=sys.stdout):
    headers = ("condition", "pair", "found", "nodes", "edges", "peak", "seen", "bound")
    widths = [
        max(len(headers[i]), *(len(str(row[i])) for row in rows)) for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(line, file=out)
    print("-" * len(line), file=out)
    for row in rows:
        print("  ".join(str(v).ljust(widths[i]) for i, v in enumerate(row)), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workspace", "-w", help="workspace JSON file (default: corporate)")
    args = parser.parse_args(argv)
    workspace = load_workspace(args.workspace) if args.workspace else make_fixture("corporate")
    rows = build_rows(workspace)
    if not rows:
        print("no (request, rule) pairs to report", file=sys.stderr)
        return 1
    print_table(rows)
    print(f"\n{len(rows)} pairs over {len(workspace.graph)} entities, "
          f"{workspace.graph.edge_count} edges")
    return 0


if __name__ == "__main__":
    sys.exit(main())
