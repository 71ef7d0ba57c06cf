"""REP2xx — replica discipline (the wait-free system model, Section VII-A).

A replica's hooks run "based solely on the local knowledge of the
process": the only legal effects are mutating *its own* state and handing
payloads to the runtime via the send API.  Reaching around the runtime —
appending to the outbox by hand, calling a network object directly, or
mutating a delivered payload that other replicas share — breaks the model
the proofs (and the fault-injection adversaries of PR 1) rely on.

| code   | invariant                                                       |
|--------|-----------------------------------------------------------------|
| REP201 | hooks send only via ``self.send_to`` / returned payloads        |
| REP202 | hooks never mutate delivered payloads or foreign objects        |
| REP203 | the Lamport clock is restored/merged *before* the update log    |
|        | is touched (the PR-1 WAL rule: no timestamp reuse after crash)  |
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ClassInfo, Finding, ModuleInfo, register
from repro.lint.mutation import find_mutations, function_params, root_name

#: Replica hook prefixes: the runtime-invoked entry points plus their
#: conventional private helpers.
HOOK_PREFIXES = ("on_", "_on_")

#: Method names on non-self objects that reach the network directly.
NETWORK_METHODS = frozenset({"broadcast", "deliver", "transmit", "unicast", "post"})

#: Calls that append to the durable update log.
LOG_CALLS = frozenset({"load_log", "_insert"})


def _finding(module: ModuleInfo, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


def _methods(cls: ClassInfo) -> Iterator[ast.FunctionDef]:
    for node in cls.node.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def _is_hook(method: ast.FunctionDef) -> bool:
    return method.name.startswith(HOOK_PREFIXES)


@register("REP201", "hooks touch the network only via the send API")
def rep201_send_api(module: ModuleInfo) -> Iterator[Finding]:
    for cls in module.replica_classes():
        for method in _methods(cls):
            if method.name == "send_to":
                continue  # the send API itself owns the outbox
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                # self.outbox.append(...) — bypasses send_to, losing any
                # invariant the API maintains (and hiding sends from hooks).
                if (
                    isinstance(func.value, ast.Attribute)
                    and func.value.attr == "outbox"
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"
                ):
                    yield _finding(
                        module,
                        node,
                        "REP201",
                        f"{cls.node.name}.{method.name} manipulates "
                        "self.outbox directly; route every send through "
                        "self.send_to(dst, payload) (or return payloads) so "
                        "the runtime sees a single send path",
                    )
                # network.broadcast(...) etc. on anything that is not self:
                # a replica has no reference to the network in the wait-free
                # model — delivery is the runtime's job.
                elif func.attr in NETWORK_METHODS:
                    root = root_name(func.value)
                    if root is not None and root != "self":
                        yield _finding(
                            module,
                            node,
                            "REP201",
                            f"{cls.node.name}.{method.name} calls "
                            f"{ast.unparse(func)!r}: replicas must not drive "
                            "the network object directly — return payloads "
                            "or use self.send_to and let the runtime deliver",
                        )


@register("REP202", "hooks never mutate delivered payloads or foreign objects")
def rep202_foreign_mutation(module: ModuleInfo) -> Iterator[Finding]:
    """Hook parameters (``payload``, ``update``, ``src``…) are shared with
    the runtime and — under the zero-copy simulator — with every other
    receiver of the same broadcast; mutating them corrupts other replicas'
    deliveries, the precise cross-replica interference the model forbids."""
    for cls in module.replica_classes():
        for method in _methods(cls):
            if not _is_hook(method):
                continue
            params = set(function_params(method))
            if not params:
                continue
            for node, description in find_mutations(method, params):
                yield _finding(
                    module,
                    node,
                    "REP202",
                    f"{cls.node.name}.{method.name} mutates a hook argument "
                    f"({description}); delivered payloads are shared objects "
                    "— copy before changing, and never reach into another "
                    "replica's state",
                )


@register("REP203", "restore/merge the Lamport clock before touching the log")
def rep203_clock_before_log(module: ModuleInfo) -> Iterator[Finding]:
    """In any function that both restores a Lamport clock and loads/inserts
    into the update log, the clock must come first.

    The clock is a write-ahead cell (see ``repro.proto.wire``): a
    recovering process that replays log entries before raising its clock
    can stamp a fresh update with a ``(clock, pid)`` pair its pre-crash
    broadcasts already used — two different updates with one identity, and
    Algorithm 1's total order silently stops being an order.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        clock_line: int | None = None
        log_line: int | None = None
        log_node: ast.AST | None = None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                attr = sub.func.attr
                owner = sub.func.value
                if (
                    attr in ("merge", "tick")
                    and isinstance(owner, ast.Attribute)
                    and owner.attr in ("clock", "vclock")
                ):
                    if clock_line is None or sub.lineno < clock_line:
                        clock_line = sub.lineno
                elif attr in LOG_CALLS:
                    if log_line is None or sub.lineno < log_line:
                        log_line = sub.lineno
                        log_node = sub
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Attribute) and target.attr in (
                        "clock",
                        "vclock",
                    ):
                        if clock_line is None or sub.lineno < clock_line:
                            clock_line = sub.lineno
        if clock_line is not None and log_line is not None and log_line < clock_line:
            assert log_node is not None
            yield _finding(
                module,
                log_node,
                "REP203",
                f"{node.name} touches the update log (line {log_line}) "
                f"before restoring the Lamport clock (line {clock_line}); "
                "the clock is a write-ahead cell — merge it first or a "
                "recovered replica can reuse a (clock, pid) timestamp",
            )
