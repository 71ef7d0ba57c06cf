"""UQ006 — declared commutativity must survive a behavioural probe.

The commutative fast path (Section VII-C, the arrival-order fold of
:mod:`repro.core.replay`) trusts a
spec's ``commutative_updates = True`` declaration and applies updates in
arrival order.  A spec that *lies* — declares commutativity but has an
order-sensitive ``apply`` — silently diverges under that path, which is
the worst failure mode a declaration-driven optimization can have.

UQ006 cross-checks the declaration behaviourally: for every UQ-ADT class
whose body sets ``commutative_updates = True``, it instantiates the spec,
takes the probe set the spec itself advertises
(:meth:`repro.core.adt.UQADT.probe_updates`), and applies every pair in
both orders from the initial state and a few derived states.  A pair with
``T(T(s,a),b) != T(T(s,b),a)`` (compared via the spec's ``canonical``) is
reported, as is a commutative declaration with *no* probes (unverifiable
— the fast path would activate on nothing but the author's word).  The
no-probes half is decided statically (a ``probe_updates`` definition is
visible in the class body or a locally defined base), so it fires even on
files the import system cannot load; the order-sensitivity half needs
the import.

This is the engine's one documented exception to "the linter never
executes the linted code": probing commutativity is a semantic property
no AST walk can decide.  The execution is tightly scoped — a module is
imported only when (a) it syntactically declares a commutative spec and
(b) :func:`importlib.util.find_spec` resolves its dotted name to the very
file being linted, i.e. only code that is importable from the current
environment anyway ever runs.  Modules outside any package, unimportable
modules and uninstantiable specs are skipped silently (other rules still
apply to them).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from typing import Any, Iterator

from repro.lint.engine import ClassInfo, Finding, ModuleInfo, register

#: Cap on derived probe states: pairs are quadratic and specs may ship
#: generous probe sets; a handful of reachable states catches the
#: pair-order conflicts the probes were designed to expose.
_MAX_DERIVED_STATES = 3


def _finding(module: ModuleInfo, node: ast.AST, message: str) -> Finding:
    return Finding(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        code="UQ006",
        message=message,
    )


def _commutative_declaration(cls: ClassInfo) -> ast.stmt | None:
    """The class-body statement setting ``commutative_updates = True``."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target.id] if isinstance(stmt.target, ast.Name) else []
            value = stmt.value
        else:
            continue
        if (
            "commutative_updates" in targets
            and isinstance(value, ast.Constant)
            and value.value is True
        ):
            return stmt
    return None


def _defines_probe_updates(module: ModuleInfo, cls: ClassInfo) -> bool:
    """Is ``probe_updates`` defined on the class or a locally defined
    base?  (An inherited definition from another module is invisible to
    the AST; such specs are probed behaviourally when importable, and a
    cross-module inheritor is exotic enough to warrant the finding.)"""
    local = {c.node.name: c for c in module.classes}
    stack = [cls.node.name]
    seen: set[str] = set()
    while stack:
        name = stack.pop()
        if name in seen or name not in local:
            continue
        seen.add(name)
        candidate = local[name]
        for stmt in candidate.node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "probe_updates"
            ):
                return True
        stack.extend(candidate.base_names)
    return False


def _dotted_module_name(path: Path) -> str | None:
    """Dotted import name of ``path``, derived from its ``__init__.py``
    chain; ``None`` when the file is not inside a package (then there is
    no name the current environment could import it under)."""
    try:
        path = path.resolve()
    except OSError:  # pragma: no cover - defensive
        return None
    if path.name == "__init__.py":
        parts = []
        parent = path.parent
    else:
        parts = [path.stem]
        parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) < 2:
        return None
    return ".".join(reversed(parts))


def _import_module_for(path: Path) -> Any | None:
    """Import the package module living at ``path`` — only if the import
    system agrees that the dotted name resolves to this exact file."""
    dotted = _dotted_module_name(path)
    if dotted is None:
        return None
    try:
        spec = importlib.util.find_spec(dotted)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None:
        return None
    try:
        if not Path(spec.origin).resolve() == path.resolve():
            return None
        return importlib.import_module(dotted)
    except Exception:  # import-time errors in linted code are not ours
        return None


def _order_sensitive_pair(spec: Any) -> tuple[Any, Any] | None:
    """A probe pair whose application order changes the state, if any."""
    probes = list(spec.probe_updates())
    states = [spec.initial_state()]
    for probe in probes[:_MAX_DERIVED_STATES]:
        states.append(spec.apply(states[-1], probe))
    for state in states:
        for i, a in enumerate(probes):
            for b in probes[i + 1 :]:
                ab = spec.canonical(spec.apply(spec.apply(state, a), b))
                ba = spec.canonical(spec.apply(spec.apply(state, b), a))
                if ab != ba:
                    return (a, b)
    return None


@register("UQ006", "declared commutativity verified on the spec's probe set")
def uq006_commutativity_probe(module: ModuleInfo) -> Iterator[Finding]:
    declared = [
        (cls, stmt)
        for cls in module.uqadt_classes()
        if (stmt := _commutative_declaration(cls)) is not None
    ]
    if not declared:
        return
    probeable: list[tuple[ClassInfo, ast.stmt]] = []
    for cls, stmt in declared:
        if _defines_probe_updates(module, cls):
            probeable.append((cls, stmt))
        else:
            yield _finding(
                module,
                stmt,
                f"{cls.node.name} declares commutative_updates=True but "
                "defines no probe_updates(); the commutative fast path "
                "will trust an unverifiable claim — return a small probe "
                "set covering the spec's conflicting update pairs",
            )
    if not probeable:
        return
    path = Path(module.path)
    if not path.is_file():
        return  # lint_source on a string: nothing importable to probe
    imported = _import_module_for(path)
    if imported is None:
        return
    for cls, stmt in probeable:
        spec_cls = getattr(imported, cls.node.name, None)
        if spec_cls is None:
            continue
        try:
            spec = spec_cls()
        except Exception:
            continue  # needs constructor arguments: cannot probe blind
        try:
            probes = list(spec.probe_updates())
        except Exception:
            continue
        if not probes:
            yield _finding(
                module,
                stmt,
                f"{cls.node.name} declares commutative_updates=True but "
                "probe_updates() returns nothing; the commutative fast "
                "path will trust an unverifiable claim — return a small "
                "probe set covering the spec's conflicting update pairs",
            )
            continue
        try:
            pair = _order_sensitive_pair(spec)
        except Exception:
            continue  # broken apply/canonical is another rule's business
        if pair is not None:
            a, b = pair
            yield _finding(
                module,
                stmt,
                f"{cls.node.name} declares commutative_updates=True but "
                f"apply is order-sensitive on its own probes: "
                f"{a} then {b} differs from {b} then {a}; the commutative "
                "fast path would diverge — fix apply or drop the "
                "declaration",
            )
