"""Command-line interface.

Subcommands::

    validate      check a workspace file, reporting every violation
    eval          evaluate one request against a workspace
    eval-batch    evaluate the workspace's request list
    match         test a single path condition between two entities
    simplify      print the simple form of a condition
    fixture       write one of the built-in workspaces
    oracle-check  differential-check the matcher against the oracle

Exit codes: eval uses 0 for Allow, 1 for Deny, 2 for errors; match uses
0 found / 1 not found / 2 error; validate and the rest use 0 for
success and 2 for errors (oracle-check exits 1 on disagreement).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .differential import check_workspace, run_differential
from .fixtures import FIXTURES
from .graph import GraphError
from .matching import PolicyError, match_path
from .paths import PathSyntaxError, parse, render, simplify
from .pdp import Request, evaluate
from .workspace import Workspace, WorkspaceError, load_workspace, save_workspace

_DEFAULT_ANNOTATIONS = {
    "default:system": " (system default)",
    "default:object": " (object default)",
    "default:subject": " (subject default)",
    "crs:FirstMatch": " (first match)",
    "crs:DenyOverride": " (deny override)",
    "crs:AllowOverride": " (allow override)",
}


def _outcome_line(trace) -> str:
    word = "ALLOW" if trace.outcome.value == "allow" else "DENY"
    return word + _DEFAULT_ANNOTATIONS.get(trace.resolution, "")


def _metrics_lines(trace) -> list[str]:
    lines = []
    for ev in trace.metrics:
        status = "yes" if ev.found else "no"
        lines.append(
            f"rule {ev.rule_number} [{ev.condition}] {ev.principal}: "
            f"found={status} n={ev.metrics.nodes_visited} e={ev.metrics.edges_considered}"
        )
    return lines


def _cmd_validate(args) -> int:
    workspace = load_workspace(args.workspace)
    print(f"{args.workspace}: ok ({len(workspace.graph)} entities, "
          f"{workspace.graph.edge_count} edges, {len(workspace.system.principal_rules)} rules)")
    return 0


def _cmd_eval(args) -> int:
    workspace = load_workspace(args.workspace)
    request = Request(args.subject, args.object, args.action)
    trace_sink = print if args.trace else None
    result = evaluate(workspace.graph, workspace.system, request, trace=trace_sink)
    print(_outcome_line(result))
    if args.metrics:
        for line in _metrics_lines(result):
            print(line)
    if args.explain:
        print(json.dumps(result.to_dict(), indent=2))
    return 0 if result.outcome.value == "allow" else 1


def _cmd_eval_batch(args) -> int:
    workspace = load_workspace(args.workspace)
    traces = []
    for request in workspace.requests:
        trace_sink = print if args.trace else None
        result = evaluate(workspace.graph, workspace.system, request, trace=trace_sink)
        print(f"{request.subject} {request.object} {request.action}: {_outcome_line(result)}")
        if args.metrics:
            for line in _metrics_lines(result):
                print(f"  {line}")
        traces.append(result.to_dict())
    if args.explain:
        print(json.dumps(traces, indent=2))
    return 0


def _cmd_match(args) -> int:
    workspace = load_workspace(args.workspace)
    condition = parse(args.path, workspace.model.labels)
    trace_sink = print if args.trace else None
    found, metrics = match_path(workspace.graph, args.source, args.target, condition, trace=trace_sink)
    print(f"found={'yes' if found else 'no'}")
    if args.metrics:
        print(f"n={metrics.nodes_visited} e={metrics.edges_considered} "
              f"queue_peak={metrics.queue_peak} pairs_seen={metrics.pairs_seen}")
    return 0 if found else 1


def _cmd_simplify(args) -> int:
    labels = None
    if args.workspace:
        labels = load_workspace(args.workspace).model.labels
    print(render(simplify(parse(args.path, labels))))
    return 0


def _cmd_fixture(args) -> int:
    workspace: Workspace = FIXTURES[args.name]()
    if args.out:
        save_workspace(workspace, args.out)
        print(f"wrote {args.out}")
    else:
        from .workspace import dumps_workspace

        sys.stdout.write(dumps_workspace(workspace))
    return 0


def _cmd_oracle_check(args) -> int:
    reports = []
    if args.workspace:
        reports.append(check_workspace(load_workspace(args.workspace)))
    if args.trials:
        reports.append(run_differential(args.seed, args.trials))
    checked = sum(report.trials for report in reports)
    agreed = sum(report.agreements for report in reports)
    print(f"{agreed}/{checked} agree")
    failures = [report.first_disagreement for report in reports if report.first_disagreement is not None]
    if failures:
        print(f"first disagreement: {failures[0]}", file=sys.stderr)
        return 1
    return 0


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, found {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebac",
        description="Relationship-based access control over typed entity graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def workspace_option(p, required=True):
        p.add_argument("--workspace", "-w", required=required, help="workspace JSON file")

    def inspection_options(p, explain=True):
        p.add_argument("--trace", action="store_true", help="print one line per matcher dequeue")
        p.add_argument("--metrics", action="store_true", help="print per-rule match metrics")
        if explain:
            p.add_argument("--explain", action="store_true", help="print the full decision trace as JSON")

    p = commands.add_parser("validate", help="check a workspace file")
    workspace_option(p)
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("eval", help="evaluate one request")
    workspace_option(p)
    p.add_argument("--subject", "-s", required=True)
    p.add_argument("--object", "-o", required=True)
    p.add_argument("--action", "-a", required=True)
    inspection_options(p)
    p.set_defaults(func=_cmd_eval)

    p = commands.add_parser("eval-batch", help="evaluate the workspace's request list")
    workspace_option(p)
    inspection_options(p)
    p.set_defaults(func=_cmd_eval_batch)

    p = commands.add_parser("match", help="test a path condition between two entities")
    workspace_option(p)
    p.add_argument("--source", "-s", required=True)
    p.add_argument("--target", "-t", required=True)
    p.add_argument("--path", "-p", required=True, help="path condition text")
    inspection_options(p, explain=False)
    p.set_defaults(func=_cmd_match)

    p = commands.add_parser("simplify", help="print a condition's simple form")
    p.add_argument("--path", "-p", required=True, help="path condition text")
    workspace_option(p, required=False)
    p.set_defaults(func=_cmd_simplify)

    p = commands.add_parser("fixture", help="write a built-in workspace")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--out", "-o", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_fixture)

    p = commands.add_parser("oracle-check", help="differential-check matcher vs oracle")
    workspace_option(p, required=False)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for random trials")
    p.add_argument("--trials", type=_count, default=1000, help="number of random trials (0 to skip)")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkspaceError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except (GraphError, PathSyntaxError, PolicyError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means deny or not found, never a crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
