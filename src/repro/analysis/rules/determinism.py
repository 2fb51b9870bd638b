"""R1/R5: nondeterminism sources and float equality in cycle math.

The reproduction's headline invariant is that a (graph, config, seed)
point produces *bit-identical* cycle counts across engines, pooling,
telemetry, and fault replays.  Anything that lets wall-clock time,
process entropy, or hash/iteration order leak into a tick path breaks
that silently -- the run still "works", the cycle counts just stop
being comparable.  These rules fence the known leaks out of hot code.
"""

import ast

from repro.analysis.rules.base import Rule

# Dotted prefixes whose call anywhere on a hot path is nondeterministic
# (or wall-clock-dependent, which for a cycle-accurate model is the
# same disease).
_FORBIDDEN_PREFIXES = (
    "time.",
    "datetime.",
    "secrets.",
)
_FORBIDDEN_EXACT = (
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
)
_SET_BUILTINS = ("set", "frozenset")
_DICT_VIEWS = ("values", "keys", "items")


def _is_set_expression(node, assignments):
    """Does *node* evaluate to a set (literal, call, or local alias)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _SET_BUILTINS:
        return True
    if isinstance(node, ast.Name):
        for value in assignments.get(node.id, ()):
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            if isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name) \
                    and value.func.id in _SET_BUILTINS:
                return True
    return False


class NondeterminismRule(Rule):
    """R1: wall-clock, entropy, and unordered iteration in hot code."""

    id = "R1"
    name = "nondeterminism"
    severity = "error"
    summary = ("no wall-clock, unseeded randomness, or unordered-set "
               "iteration on hot paths")
    rationale = (
        "Cycle counts must be a pure function of (graph, config, seed). "
        "time.*/datetime.* make model state depend on host speed, "
        "os.urandom/uuid4/secrets and module-level random.* draw from "
        "process entropy or cross-test global state, and set iteration "
        "order is hash-randomized -- any of them feeding a cycle-ordered "
        "decision silently forks the trajectory between two runs."
    )
    hint = ("derive times from engine.now, randomness from a seeded "
            "random.Random(seed) carried by the component, and iterate "
            "sorted() views instead of raw sets")

    POSITIVE = (
        "import time\n"
        "def tick(self, engine):\n"
        "    self.started = time.monotonic()\n"
    )
    NEGATIVE = (
        "def tick(self, engine):\n"
        "    self.started = engine.now\n"
        "    for key in sorted(self.waiting):\n"
        "        self.serve(key)\n"
    )

    def check(self, source, ctx):
        for info in ctx.hot_functions(source):
            assignments = source.local_assignments(info.node)
            for node in ast.walk(info.node):
                if isinstance(node, (ast.Call, ast.For, ast.AsyncFor)) \
                        and source.enclosing_function(node) is not info.node:
                    continue  # nested def: reported under its own name
                if isinstance(node, ast.Call):
                    yield from self._check_call(source, info, node)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    yield from self._check_iteration(
                        source, info, node.iter, assignments)
                elif isinstance(node, ast.comprehension):
                    yield from self._check_iteration(
                        source, info, node.iter, assignments)

    def _check_call(self, source, info, node):
        dotted = source.resolve_call_module(node.func)
        if dotted is None:
            return
        if dotted.startswith("random."):
            # A seeded generator is the sanctioned idiom; only the
            # hidden-global-state module API is forbidden.
            if dotted == "random.Random" and node.args:
                return
            yield self.finding(
                source, node,
                f"hot function '{info.qualname}' calls '{dotted}' "
                f"(module-level RNG shares hidden global state)",
            )
            return
        if dotted in _FORBIDDEN_EXACT or any(
                dotted.startswith(prefix) for prefix in _FORBIDDEN_PREFIXES):
            yield self.finding(
                source, node,
                f"hot function '{info.qualname}' calls '{dotted}' "
                f"(nondeterministic / wall-clock dependent)",
            )

    def _check_iteration(self, source, info, iter_node, assignments):
        if _is_set_expression(iter_node, assignments):
            yield self.finding(
                source, iter_node,
                f"hot function '{info.qualname}' iterates a set "
                f"(hash-randomized order feeding cycle-ordered work)",
            )
            return
        if isinstance(iter_node, ast.Call) \
                and isinstance(iter_node.func, ast.Attribute) \
                and iter_node.func.attr in _DICT_VIEWS \
                and not iter_node.args and not iter_node.keywords:
            yield self.finding(
                source, iter_node,
                f"hot function '{info.qualname}' iterates a "
                f"'.{iter_node.func.attr}()' view; insertion order must "
                f"itself be deterministic for cycle-ordered decisions",
                severity="warning",
            )


class FloatCycleCompareRule(Rule):
    """R5: exact float equality in cycle/latency arithmetic."""

    id = "R5"
    name = "float-cycle-compare"
    severity = "warning"
    summary = "no ==/!= against float literals or true-division results"
    rationale = (
        "Cycle and latency accounting must stay in exact integer "
        "arithmetic; the moment a comparison keys on a float literal or "
        "a true-division result, platform rounding decides a branch and "
        "two hosts can disagree on a cycle count while both look "
        "'correct'."
    )
    hint = ("keep cycle math integral (//, divmod, scaled ints) or "
            "compare with an explicit tolerance")

    POSITIVE = (
        "def occupancy_ratio(used, total):\n"
        "    if used / total == 0.5:\n"
        "        return 'half'\n"
    )
    NEGATIVE = (
        "def occupancy_ratio(used, total):\n"
        "    if used * 2 == total:\n"
        "        return 'half'\n"
    )

    def check(self, source, ctx):
        if not ctx.in_hot_package(source):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            comparands = [node.left] + list(node.comparators)
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(self._float_ish(expr) for expr in comparands):
                    yield self.finding(
                        source, node,
                        "equality comparison involving float arithmetic "
                        "in cycle/latency code",
                    )
                    break

    @staticmethod
    def _float_ish(expr):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
            return True
        return False
