"""Static view of the stream-domain registry.

:mod:`repro.seir.seeding` enforces stream-tag uniqueness at *import* time;
this module recovers the same facts from source text alone, so the lint can
reject a clashing or unregistered tag even when the offending modules are
never imported together (the exact gap the PR 5 aliasing bug slipped
through).  A constant counts as **registered** when it is assigned directly
from one of the registration entry points::

    _MY_STREAM = register_stream_tag("my_stream", 7)
    _PURPOSE_X = register_ancillary_purpose("x", 11)
    _OTHER = STREAM_DOMAINS.register("other", 12, domain="bank")

Anything else — in particular a bare integer literal — leaves the constant
unregistered, and every use of it as a stream tag is flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Registration", "StaticRegistry", "collect_registrations",
           "is_register_call", "terminal_name"]

#: Call targets recognised as registration entry points, mapped to the
#: domain they register into (``None`` = read the ``domain=`` keyword,
#: default ``"bank"``).
_REGISTER_FUNCS: dict[str, str | None] = {
    "register_stream_tag": "bank",
    "register_ancillary_purpose": "ancillary",
    "register": None,  # STREAM_DOMAINS.register(...)
}


@dataclass(frozen=True)
class Registration:
    """One statically discovered stream-tag registration."""

    constant: str       # the assigned constant's name
    stream_name: str | None  # first argument, when it is a literal string
    tag: int | None     # second argument, when it is a literal int
    domain: str | None  # registry domain, when statically known
    path: str
    line: int


@dataclass
class StaticRegistry:
    """Registrations collected across every linted file."""

    registrations: list[Registration] = field(default_factory=list)

    @property
    def constants(self) -> set[str]:
        """Names of constants assigned from a registration call."""
        return {r.constant for r in self.registrations}

    def duplicate_tags(self) -> list[tuple[Registration, Registration]]:
        """Pairs of registrations claiming one (domain, tag) for two names.

        Only statically known integer tags participate; the import-time
        guard in :class:`~repro.seir.seeding.StreamDomainRegistry` remains
        the authority for dynamically computed tags.
        """
        seen: dict[tuple[str, int], Registration] = {}
        clashes: list[tuple[Registration, Registration]] = []
        for reg in self.registrations:
            if reg.tag is None or reg.domain is None:
                continue
            key = (reg.domain, reg.tag)
            first = seen.get(key)
            if first is None:
                seen[key] = reg
            elif first.stream_name != reg.stream_name:
                clashes.append((first, reg))
        return clashes


def terminal_name(node: ast.expr) -> str | None:
    """``f`` for ``f`` or ``x.y.f``; ``None`` for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_register_call(node: ast.AST) -> bool:
    """A call to one of the registration entry points."""
    return isinstance(node, ast.Call) and \
        terminal_name(node.func) in _REGISTER_FUNCS


def _call_domain(call: ast.Call) -> str | None:
    """The registry domain a registration call targets, if recognisable."""
    name = terminal_name(call.func)
    if name not in _REGISTER_FUNCS:
        return None
    fixed = _REGISTER_FUNCS[name]
    if fixed is not None:
        return fixed
    for kw in call.keywords:
        if kw.arg == "domain" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            return kw.value.value
    return "bank"


def collect_registrations(trees: dict[str, ast.Module]) -> StaticRegistry:
    """Scan parsed modules for stream-tag registrations.

    ``trees`` maps a display path to its parsed module.  Only simple
    single-target assignments are considered — the idiom the codebase uses
    (``_X_STREAM = register_stream_tag(...)``).
    """
    registry = StaticRegistry()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not is_register_call(node.value):
                continue
            call = node.value
            assert isinstance(call, ast.Call)
            stream_name: str | None = None
            tag: int | None = None
            if call.args and isinstance(call.args[0], ast.Constant) \
                    and isinstance(call.args[0].value, str):
                stream_name = call.args[0].value
            if len(call.args) > 1 and isinstance(call.args[1], ast.Constant) \
                    and isinstance(call.args[1].value, int):
                tag = call.args[1].value
            registry.registrations.append(Registration(
                constant=target.id, stream_name=stream_name, tag=tag,
                domain=_call_domain(call), path=path, line=node.lineno))
    return registry
