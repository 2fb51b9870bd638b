"""The ``python -m repro lint`` subcommand.

Runs the simlint rule catalog (DESIGN.md 6.5) over the source tree::

    python -m repro lint                          # text report, src tree
    python -m repro lint --rules R2,R12           # subset of the catalog
    python -m repro lint --format sarif > out.sarif
    python -m repro lint --fail-on warning        # stricter gate
    python -m repro lint --quick                  # self-check + hot tree

A finding is accepted only by an inline ``# simlint: disable=<id> --
<justification>`` comment at its line (DESIGN.md 6.5).

The report goes to stdout (redirect for artifacts); the one-line
summary and any internal errors go to stderr, so ``--format sarif``
output stays a valid SARIF document.  Exit codes: 0 clean (or nothing
at/above ``--fail-on``), 1 findings at/above the threshold, 2 tool
errors (unknown rule, unparseable file, failed self-check).
"""

import sys
import time

from repro.analysis.findings import severity_rank


def add_lint_arguments(parser):
    """Attach the lint-specific flags to the __main__ parser."""
    parser.add_argument(
        "--rules", default=None, metavar="SPEC",
        help="comma-separated rule ids/names to run (default: all; "
             "e.g. R2,R12 or single-token-channel)",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "json", "sarif"),
        dest="lint_format",
        help="report format on stdout (default text)",
    )
    parser.add_argument(
        "--fail-on", default="error",
        choices=("error", "warning", "never"),
        help="lowest severity that makes the exit code non-zero "
             "(default error)",
    )
    parser.add_argument(
        "--paths", nargs="*", default=None, metavar="PATH",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="self-check every rule against its built-in fixtures, "
             "then lint only the hot simulator packages",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include inline-suppressed findings in the report",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _hot_package_paths():
    """The sim-core package directories (the --quick lint surface)."""
    import pathlib

    from repro.analysis.callgraph import HOT_PACKAGES

    package_root = pathlib.Path(__file__).resolve().parents[1]
    paths = []
    for marker in HOT_PACKAGES:
        candidate = package_root / marker.split("/", 1)[1].rstrip("/")
        if candidate.is_dir():
            paths.append(candidate)
    return paths


def run_lint(args, log=print):
    """Execute the lint subcommand; returns an exit code."""
    from repro.analysis import engine as engine_module
    from repro.analysis.emitters import EMITTERS
    from repro.analysis.rules import ALL_RULES, select_rules

    if args.list_rules:
        for rule in ALL_RULES:
            log(f"{rule.id}  {rule.name:26s} {rule.severity:7s} "
                f"{rule.summary}")
        return 0

    try:
        rules = select_rules(args.rules)
    except ValueError as error:
        log(f"simlint: {error}", file=sys.stderr)
        return 2

    started = time.monotonic()
    if args.quick:
        problems = engine_module.selfcheck(rules)
        if problems:
            for problem in problems:
                log(f"simlint: self-check FAILED: {problem}",
                    file=sys.stderr)
            return 2
        log(f"simlint: self-check OK ({len(rules)} rule(s))",
            file=sys.stderr)

    paths = args.paths
    if not paths:
        paths = _hot_package_paths() if args.quick \
            else engine_module.default_paths()
    result = engine_module.lint_paths(paths, rules=rules)

    emitter = EMITTERS[args.lint_format]
    # SARIF consumers understand the suppressions property, so that
    # format carries suppressed findings unconditionally.
    show = args.show_suppressed or args.lint_format == "sarif"
    sys.stdout.write(emitter(result, show_suppressed=show))

    elapsed = time.monotonic() - started
    counts = result.counts()
    log(
        f"simlint: {result.files_scanned} file(s), "
        f"{len(result.findings)} finding(s) "
        f"({counts.get('error', 0)} error / "
        f"{counts.get('warning', 0)} warning), "
        f"{len(result.suppressed)} suppressed "
        f"in {elapsed:.2f}s",
        file=sys.stderr,
    )
    for error in result.errors:
        log(f"simlint: error: {error}", file=sys.stderr)
    if result.errors:
        return 2
    if args.fail_on == "never":
        return 0
    worst = result.worst_rank()
    if worst is not None and worst <= severity_rank(args.fail_on):
        return 1
    return 0
