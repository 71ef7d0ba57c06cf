"""EFX4xx — protocol effect-contract exhaustiveness (whole-program).

The sans-io refactor rests on one implicit promise: the event/effect
vocabulary of :mod:`repro.proto` is a *closed* set, and every backend
interprets all of it the same way.  A new effect added to
``repro.proto.effects`` that only one backend understands is precisely
the kind of bug the sim↔net differential test exists to catch — but the
differential test only sees workloads that happen to *emit* the effect.
These rules close the gap statically: the effect and event unions are
extracted from the project model, and every interpreter must account for
every member, so the divergence becomes a lint failure at authoring
time, not a 3 a.m. chaos-run surprise.

The contract is **declared, not guessed**: a backend module that imports
effect classes must carry two module-level tuples::

    HANDLED_EFFECTS = (Broadcast, Send)          # dispatched in this module
    IGNORED_EFFECTS = (Persist, Timer)           # deliberately not acted on

``HANDLED_EFFECTS`` entries must actually appear in dispatch code;
``IGNORED_EFFECTS`` entries document a per-backend decision (the sim
ignores ``Persist`` because its durable image is taken on demand).  The
union of the two must equal the closed effect set exactly.

| code   | invariant                                                       |
|--------|-----------------------------------------------------------------|
| EFX401 | every backend accounts for every effect type (and actually      |
|        | dispatches on what it declares handled)                         |
| EFX402 | the declared contract names only real effect types, with no     |
|        | handled/ignored overlap                                         |
| EFX403 | the core event dispatcher (``ProtocolCore.handle``) covers      |
|        | every event type in the ``Event`` union                         |
| EFX404 | backends hand the core *typed* events, never raw payloads       |
| EFX405 | every backend emits every link event (``LinkChange`` union):    |
|        | a backend that never reports a link it lost or gained leaves    |
|        | the core's completeness claims unsound                          |
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    Finding,
    ModuleInfo,
    ProjectInfo,
    register_project,
)

HANDLED_NAME = "HANDLED_EFFECTS"
IGNORED_NAME = "IGNORED_EFFECTS"
LINK_UNION = "LinkChange"


def _finding(module: ModuleInfo, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code=code,
        message=message,
    )


# -- closed-set extraction -----------------------------------------------------


def _union_assign(module: ModuleInfo, union_name: str) -> ast.Assign | None:
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if any(isinstance(t, ast.Name) and t.id == union_name for t in stmt.targets):
            if _type_names(stmt.value):
                return stmt
    return None


def _union_members(module: ModuleInfo, union_name: str) -> tuple[str, ...]:
    """Member class names of a module-level ``X = Union[...]`` (or PEP 604
    ``A | B | ...``) assignment named ``union_name``."""
    stmt = _union_assign(module, union_name)
    return _type_names(stmt.value) if stmt is not None else ()


def _type_names(expr: ast.expr) -> tuple[str, ...]:
    if isinstance(expr, ast.Subscript):  # Union[A, B, C]
        base = expr.value
        if not (
            (isinstance(base, ast.Name) and base.id == "Union")
            or (isinstance(base, ast.Attribute) and base.attr == "Union")
        ):
            return ()
        inner = expr.slice
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return tuple(n for n in (_terminal(e) for e in elts) if n)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):  # A | B
        return _type_names(expr.left) + _type_names(expr.right)
    name = _terminal(expr)
    return (name,) if name else ()


def _terminal(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _universe_for(
    project: ProjectInfo, module: ModuleInfo, union_name: str
) -> tuple[ModuleInfo, frozenset[str]] | None:
    """The closed set *this* module is bound to, and the module defining it.

    A module that defines ``union_name = Union[...]`` itself is bound to
    its own union (single-module fixture layouts); otherwise the union is
    looked up in the modules it imports names from.  Scoping the universe
    per interpreter keeps unrelated projects linted in one run (e.g. the
    fixture corpus) from shadowing each other's contracts.
    """
    members = _union_members(module, union_name)
    if members:
        return module, frozenset(members)
    seen: set[str] = set()
    for dotted in sorted(set(module.imports.values())):
        owner_name = dotted.rsplit(".", 1)[0] if "." in dotted else dotted
        if owner_name in seen:
            continue
        seen.add(owner_name)
        owner = project.module(owner_name)
        if owner is None:
            continue
        members = _union_members(owner, union_name)
        if members:
            return owner, frozenset(members)
    return None


# -- contract declarations -----------------------------------------------------


def _declaration(module: ModuleInfo, name: str) -> tuple[tuple[str, ...], ast.Assign] | None:
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
            continue
        if isinstance(stmt.value, (ast.Tuple, ast.List)):
            names = tuple(n for n in (_terminal(e) for e in stmt.value.elts) if n)
            return names, stmt
        return (), stmt
    return None


def _imported_members(module: ModuleInfo, effects_module: str, closed: frozenset[str]) -> set[str]:
    """Effect class names this module imports from the effects module."""
    prefix = effects_module + "."
    return {
        dotted[len(prefix) :]
        for dotted in module.imports.values()
        if dotted.startswith(prefix) and dotted[len(prefix) :] in closed
    }


def _loads_outside(module: ModuleInfo, name: str, excluded: list[ast.Assign]) -> int:
    """Count ``Name`` loads of ``name`` outside the declaration statements."""
    spans = [(stmt.lineno, stmt.end_lineno or stmt.lineno) for stmt in excluded]
    count = 0
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            line = node.lineno
            if not any(lo <= line <= hi for lo, hi in spans):
                count += 1
    return count


def _interpreters(
    project: ProjectInfo,
) -> Iterator[tuple[ModuleInfo, ModuleInfo, frozenset[str]]]:
    """Every ``(module, effects_module, closed_set)`` owing a contract.

    A module owes the effect contract when it imports effect classes from
    a union-defining module, or carries contract declarations itself (the
    single-module fixture layout).  Modules inside the union's own package
    are producers, not interpreters, and are exempt.
    """
    for module in project.modules:
        hit = _universe_for(project, module, "Effect")
        if hit is None:
            continue
        effects_module, closed = hit
        if module is not effects_module and "." in effects_module.name:
            package = effects_module.name.rsplit(".", 1)[0]
            if module.name == package or module.name.startswith(package + "."):
                continue  # the proto package itself produces, not interprets
        imported = _imported_members(module, effects_module.name, closed)
        declares = (
            _declaration(module, HANDLED_NAME) is not None
            or _declaration(module, IGNORED_NAME) is not None
        )
        if imported or declares:
            yield module, effects_module, closed


@register_project("EFX401", "backends account for every protocol effect type")
def efx401_effect_exhaustive(project: ProjectInfo) -> Iterator[Finding]:
    for module, effects_module, closed in _interpreters(project):
        handled_decl = _declaration(module, HANDLED_NAME)
        ignored_decl = _declaration(module, IGNORED_NAME)
        if handled_decl is None and ignored_decl is None:
            yield _finding(
                module,
                module.tree,
                "EFX401",
                f"{module.name} imports protocol effect types but declares no "
                f"effect contract: add module-level {HANDLED_NAME} / "
                f"{IGNORED_NAME} tuples covering "
                f"{{{', '.join(sorted(closed))}}} so uqlint can prove the "
                f"backend interprets the whole closed set",
            )
            continue
        handled = handled_decl[0] if handled_decl else ()
        ignored = ignored_decl[0] if ignored_decl else ()
        declared = set(handled) | set(ignored)
        missing = closed - declared
        decls = [d[1] for d in (handled_decl, ignored_decl) if d is not None]
        anchor: ast.AST = decls[0]
        for name in sorted(missing):
            yield _finding(
                module,
                anchor,
                "EFX401",
                f"effect type {name} (from {effects_module.name}) is not "
                f"accounted for by {module.name}: add a dispatch arm and list "
                f"it in {HANDLED_NAME}, or record the deliberate decision in "
                f"{IGNORED_NAME} — an uninterpreted effect silently diverges "
                f"the backends",
            )
        if module is effects_module:
            # Single-module layouts (fixtures): the union definition's own
            # member references are declarations too, not dispatch code.
            union_stmt = _union_assign(module, "Effect")
            if union_stmt is not None:
                decls.append(union_stmt)
        for name in handled:
            if name in closed and _loads_outside(module, name, decls) == 0:
                yield _finding(
                    module,
                    anchor,
                    "EFX401",
                    f"{module.name} declares {name} in {HANDLED_NAME} but "
                    f"never dispatches on it: the declaration must describe "
                    f"real interpreter code, not aspiration",
                )


@register_project("EFX402", "effect contracts name only real, disjoint types")
def efx402_contract_wellformed(project: ProjectInfo) -> Iterator[Finding]:
    for module, effects_module, closed in _interpreters(project):
        handled_decl = _declaration(module, HANDLED_NAME)
        ignored_decl = _declaration(module, IGNORED_NAME)
        handled = handled_decl[0] if handled_decl else ()
        ignored = ignored_decl[0] if ignored_decl else ()
        for name, decl in (
            *((n, handled_decl) for n in handled),
            *((n, ignored_decl) for n in ignored),
        ):
            if name not in closed and decl is not None:
                yield _finding(
                    module,
                    decl[1],
                    "EFX402",
                    f"{name} is not a member of the {effects_module.name} "
                    f"Effect union: the contract declaration is stale — "
                    f"remove it or fix the name",
                )
        for name in sorted(set(handled) & set(ignored)):
            anchor = handled_decl[1] if handled_decl else None
            if anchor is not None:
                yield _finding(
                    module,
                    anchor,
                    "EFX402",
                    f"{name} appears in both {HANDLED_NAME} and "
                    f"{IGNORED_NAME}: the contract must make one unambiguous "
                    f"claim per effect type",
                )


@register_project("EFX403", "the core event dispatcher covers every event type")
def efx403_event_exhaustive(project: ProjectInfo) -> Iterator[Finding]:
    """``ProtocolCore.handle`` is the one uniform entry point; an event
    type missing there is an event backends can construct but the core
    silently cannot consume (it would fall through to the TypeError)."""
    for module in project.modules:
        handle = module.functions.get("ProtocolCore.handle")
        if handle is None:
            continue
        hit = _universe_for(project, module, "Event")
        if hit is None:
            continue
        events_module, closed = hit
        referenced: set[str] = set()
        for node in ast.walk(handle):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                referenced.update(_type_names_or_tuple(node.args[1]))
            elif isinstance(node, ast.MatchClass):
                name = _terminal(node.cls)
                if name:
                    referenced.add(name)
        for name in sorted(closed - referenced):
            yield _finding(
                module,
                handle,
                "EFX403",
                f"event type {name} (from {events_module.name}) has no "
                f"dispatch arm in ProtocolCore.handle: backends can construct "
                f"it but the core cannot consume it",
            )


def _type_names_or_tuple(expr: ast.expr) -> tuple[str, ...]:
    if isinstance(expr, ast.Tuple):
        return tuple(n for n in (_terminal(e) for e in expr.elts) if n)
    name = _terminal(expr)
    return (name,) if name else ()


@register_project("EFX404", "backends hand the core typed events only")
def efx404_typed_events_only(project: ProjectInfo) -> Iterator[Finding]:
    """A raw payload passed to ``core.handle(...)`` bypasses the typed
    vocabulary — the core would raise (or worse, a future permissive core
    would guess), and the two backends stop speaking the same language.
    Only construct :mod:`repro.proto.events` classes.
    """
    for module in project.modules:
        if not any("proto" in dotted.split(".") for dotted in module.imports.values()):
            continue
        if "proto" in module.name.split("."):
            continue
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "handle"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, (ast.Tuple, ast.List, ast.Dict, ast.Set, ast.Constant)):
                yield _finding(
                    module,
                    node,
                    "EFX404",
                    "raw payload passed to .handle(): the core speaks typed "
                    "events only — construct the matching repro.proto.events "
                    "class so both backends keep one vocabulary",
                )


def _link_events(
    project: ProjectInfo, module: ModuleInfo, effects_module: ModuleInfo
) -> frozenset[str]:
    """The ``LinkChange`` union's members: the module's own (fixture
    layouts), else the one defined in the effects module's package."""
    own = _union_members(module, LINK_UNION)
    if own:
        return frozenset(own)
    package = effects_module.name.rsplit(".", 1)[0]
    for other in project.modules:
        if other.name.startswith(package + "."):
            members = _union_members(other, LINK_UNION)
            if members:
                return frozenset(members)
    return frozenset()


def _snake(name: str) -> str:
    """``LinkEstablished`` -> ``link_established`` (the core's method)."""
    return "".join(
        f"_{c.lower()}" if c.isupper() and i else c.lower() for i, c in enumerate(name)
    )


@register_project("EFX405", "every backend emits every link event")
def efx405_link_events_emitted(project: ProjectInfo) -> Iterator[Finding]:
    """A link epoch ends on ``LinkLost`` and opens on ``LinkEstablished``;
    a backend that emits only one of them either never lets an epoch
    complete or never ends one, and the second is the unsound half.  Each
    member of the ``LinkChange`` union must appear in every interpreter,
    as the event class or as the core's snake_case method call."""
    for module, effects_module, _closed in _interpreters(project):
        members = _link_events(project, module, effects_module)
        if not members:
            continue
        union = _union_assign(module, LINK_UNION)
        declared = set(ast.walk(union)) if union is not None else set()
        used: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name) and node not in declared:
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for name in sorted(members):
            if name not in used and _snake(name) not in used:
                yield _finding(
                    module,
                    module.tree,
                    "EFX405",
                    f"{module.name} never emits link event {name}: call "
                    f"core.{_snake(name)}(peer) (or hand the core a {name}) "
                    f"where its transport gains or loses a link, or the "
                    f"core's completeness claims go unsound",
                )
