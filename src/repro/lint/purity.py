"""UQ0xx — purity of the sequential specification (paper Definition 1).

A UQ-ADT is a transition system ``(U, Qi, Qo, S, s0, T, G)`` whose
transition function ``T`` and output function ``G`` are *pure*: ``apply``
must return a new state without mutating its argument, ``observe`` must
not have side effects on the state, and ``s0`` must be a fresh (or
immutable) value — otherwise replaying the same update word twice gives
different results and every criterion check and Algorithm 1 replay in the
repo is silently invalid.

| code  | invariant (paper clause)                                        |
|-------|-----------------------------------------------------------------|
| UQ001 | ``T``/``G`` never store into the ``state`` argument (Def. 1)    |
| UQ002 | ``T``/``G`` never call in-place mutators on the state (Def. 1)  |
| UQ003 | ``G`` never invokes ``T`` (queries are side-effect-free, Def. 1)|
| UQ004 | update helpers construct ``Update`` values, never ``Query``     |
| UQ005 | ``initial_state`` returns a fresh or immutable ``s0`` (Def. 1)  |
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ClassInfo, Finding, ModuleInfo, register
from repro.lint.mutation import find_mutations, function_params

#: UQADT methods whose first non-self parameter is the state and must stay pure.
#: ``fold_into`` is absent on purpose: it is the one sanctioned mutator, and
#: only of the private working state ``thaw`` made (``core.adt.UQADT``).
PURE_STATE_METHODS = (
    "apply",
    "observe",
    "unapply",
    "apply_batch",
    "evaluate",
    "thaw",
    "freeze",
)

#: Calls that re-enter the transition function from inside ``observe``.
TRANSITION_CALLS = frozenset({"apply", "apply_batch", "unapply", "replay"})

#: Containers whose *display* or constructor produces a fresh mutable object —
#: module-level names bound to these must not be returned from initial_state.
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _methods(cls: ClassInfo) -> Iterator[ast.FunctionDef]:
    for node in cls.node.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def _finding(module: ModuleInfo, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


@register("UQ001", "T/G must not store into the state argument")
def uq001_state_store(module: ModuleInfo) -> Iterator[Finding]:
    for cls in module.uqadt_classes():
        for method in _methods(cls):
            if method.name not in PURE_STATE_METHODS:
                continue
            params = function_params(method)
            if not params:
                continue
            state = params[0]
            for node, description in find_mutations(method, {state}):
                if "store" in description or "augmented" in description or "del " in description:
                    yield _finding(
                        module,
                        node,
                        "UQ001",
                        f"{cls.node.name}.{method.name} mutates its state "
                        f"argument ({description}); T and G must be pure "
                        "(Def. 1) — build and return a new state instead",
                    )


@register("UQ002", "T/G must not call in-place mutators on the state")
def uq002_state_mutator(module: ModuleInfo) -> Iterator[Finding]:
    for cls in module.uqadt_classes():
        for method in _methods(cls):
            if method.name not in PURE_STATE_METHODS:
                continue
            params = function_params(method)
            if not params:
                continue
            state = params[0]
            for node, description in find_mutations(method, {state}):
                if "in-place mutator" in description:
                    yield _finding(
                        module,
                        node,
                        "UQ002",
                        f"{cls.node.name}.{method.name}: {description}; copy "
                        "the state first (the copy-on-write idiom of "
                        "repro.specs) so T and G stay pure (Def. 1)",
                    )


@register("UQ003", "observe must never invoke the transition function")
def uq003_observe_calls_apply(module: ModuleInfo) -> Iterator[Finding]:
    for cls in module.uqadt_classes():
        for method in _methods(cls):
            if method.name != "observe":
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called: str | None = None
                if isinstance(func, ast.Attribute) and func.attr in TRANSITION_CALLS:
                    # self.apply(...) — re-entering T from G.  Delegating to a
                    # *component* spec's observe (ProductSpec) is fine and
                    # never matches: ``spec.observe`` is not a transition.
                    if isinstance(func.value, ast.Name) and func.value.id == "self":
                        called = func.attr
                elif isinstance(func, ast.Name) and func.id in TRANSITION_CALLS:
                    called = func.id
                if called is not None:
                    yield _finding(
                        module,
                        node,
                        "UQ003",
                        f"{cls.node.name}.observe calls {called!r}: the output "
                        "function G must not invoke the transition function T "
                        "(queries are side-effect-free, Def. 1)",
                    )


@register("UQ004", "update helpers must construct Update values")
def uq004_update_helper_return(module: ModuleInfo) -> Iterator[Finding]:
    """Functions annotated ``-> Update`` must return ``Update(...)`` (or
    delegate); returning a ``Query`` or a bare literal breaks the U/Q split
    of Definition 1 at the API boundary."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        returns = node.returns
        annotated = _mentions_update(returns)
        if not annotated:
            continue
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            value = stmt.value
            if isinstance(value, ast.Constant) and value.value is None:
                continue
            if _is_query_call(value):
                yield Finding(
                    path=module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    code="UQ004",
                    message=(
                        f"update helper {node.name!r} is annotated to return "
                        "Update but returns a Query — updates have side "
                        "effects and no return value, queries the reverse "
                        "(Def. 1); they are not interchangeable"
                    ),
                )
            elif isinstance(value, (ast.Constant, ast.List, ast.Dict, ast.Set, ast.Tuple)):
                yield Finding(
                    path=module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    code="UQ004",
                    message=(
                        f"update helper {node.name!r} is annotated to return "
                        "Update but returns a bare literal; construct an "
                        "Update(name, args) so histories stay symbolic"
                    ),
                )


def _mentions_update(annotation: ast.expr | None) -> bool:
    """True when the annotation promises a *single* ``Update`` value.

    Only the top level counts: ``Sequence[Update]`` / ``list[Update]``
    promise a collection, where returning a tuple/list display of
    ``Update(...)`` calls is exactly right (e.g. ``probe_updates``), so
    container annotations must not trip the bare-literal check.
    ``Update | None`` and ``Optional[Update]`` still qualify.
    """
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:  # string annotation: "Update | None" — re-parse and recurse
            annotation = ast.parse(annotation.value.strip(), mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "Update"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Update"
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _mentions_update(annotation.left) or _mentions_update(
            annotation.right
        )
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else ""
        )
        if base_name == "Optional":
            return _mentions_update(annotation.slice)
        return False  # Sequence[Update] etc.: a collection, not an Update
    return False


def _is_query_call(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    return name == "Query"


@register("UQ005", "initial_state must return a fresh or immutable s0")
def uq005_initial_state_alias(module: ModuleInfo) -> Iterator[Finding]:
    """Flag ``initial_state`` returning a shared mutable object.

    Two shapes are detected: ``return self.<attr>`` (every replica would
    alias one instance attribute — any later in-place change corrupts all
    replays) and ``return NAME`` where ``NAME`` is bound at module or class
    level to a mutable display (``_EMPTY = []`` and friends).
    """
    mutable_globals = _mutable_module_names(module.tree)
    for cls in module.uqadt_classes():
        mutable_class = _mutable_class_names(cls.node)
        for method in _methods(cls):
            if method.name != "initial_state":
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Return) or stmt.value is None:
                    continue
                value = stmt.value
                if (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                ):
                    yield Finding(
                        path=module.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        code="UQ005",
                        message=(
                            f"{cls.node.name}.initial_state returns "
                            f"self.{value.attr}: s0 must be a fresh or "
                            "immutable value (Def. 1) — a shared mutable "
                            "attribute aliases every replay; return a copy "
                            "or guarantee immutability"
                        ),
                    )
                elif isinstance(value, ast.Name) and (
                    value.id in mutable_globals or value.id in mutable_class
                ):
                    yield Finding(
                        path=module.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        code="UQ005",
                        message=(
                            f"{cls.node.name}.initial_state returns the "
                            f"module/class-level mutable {value.id!r}: every "
                            "replay would share one object; return a fresh "
                            "container instead (Def. 1)"
                        ),
                    )


def _mutable_module_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, _MUTABLE_DISPLAYS):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.value, _MUTABLE_DISPLAYS
        ):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _mutable_class_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, _MUTABLE_DISPLAYS):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names
