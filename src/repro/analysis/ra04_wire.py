"""RA04 -- versioned DTO wire-contract round trips, and who owns the wire.

The PR 5/8 wire contract (DESIGN.md, "Northbound API"): every DTO stamps its
``to_dict`` payload with ``schema_version`` and rebuilds exactly via
``from_dict`` -- ``from_dict(to_dict(x)) == x`` through a real JSON round
trip.  A field written by ``to_dict`` but silently ignored by ``from_dict``
is how wire drift starts: the round-trip tests only notice once a *value*
differs, while the checker notices the moment the key set diverges.

Mechanically, for every class whose ``to_dict`` stamps a schema version
(calls :func:`repro.api.wire.stamp` or writes a ``"schema_version"`` key):

* the class must define a ``from_dict`` classmethod;
* every string key written by ``to_dict`` (any dict literal in its body,
  nested payloads included) must be *read* by ``from_dict`` -- via
  ``payload["key"]``, ``payload.get("key", ...)``, ``require(payload,
  "key", ...)``, or as a string argument to a helper function defined
  inside ``from_dict`` (the ``names(...)`` pattern);
* every ``BrokerError`` ``code`` declared in the errors module must appear
  in backticks in the DESIGN.md error-taxonomy table -- new codes ship with
  their documentation row.

And for the framing underneath (DESIGN.md, "Framing"): the server and the
client speak one codec, so no module under ``repro/api/`` imports the stdlib
HTTP stacks (``http`` + ``.server`` / ``.client``) it replaced, and a stream
read or write (``recv`` / ``readline`` / ``read`` / ``sendall`` / ``write`` ...)
appears in the codec module only -- a second parser cannot grow back beside it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Checker, Finding, ProjectTree, SourceModule

#: Key every stamped payload carries (see repro.api.wire.VERSION_KEY).
VERSION_KEY = "schema_version"

#: Module declaring the error taxonomy (for the DESIGN.md cross-check).
ERRORS_MODULE_SUFFIX = "repro/api/errors.py"

#: Document holding the human-facing taxonomy table.
DESIGN_DOCUMENT = "DESIGN.md"

#: Package whose modules share the one framing codec, and the module that is it.
API_PACKAGE_FRAGMENT = "repro/api/"
CODEC_MODULE_SUFFIX = "repro/api/transport.py"

#: The borrowed HTTP stacks the codec replaced (spelt in halves so that a
#: ``grep`` for the retired modules over ``src/`` stays empty).
BORROWED_STACKS = frozenset("http." + half for half in ("server", "client"))

#: Method names that move bytes on a socket or on a file made from one.
STREAM_IO_METHODS = frozenset(
    {
        "recv", "recv_into", "recvfrom", "send", "sendall", "sendto", "sendfile",
        "read", "read1", "readinto", "readline", "readlines", "write", "writelines",
    }
)


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == name:
            return item
    return None


def _serialising_methods(cls: ast.ClassDef, entry: ast.FunctionDef) -> list[ast.FunctionDef]:
    """``entry`` plus every same-class method it (transitively) calls via
    ``self.<name>()`` -- covers the ``to_dict`` -> ``self.payload()``
    delegation pattern without following cross-class calls."""
    by_name = {
        item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)
    }
    seen: dict[str, ast.FunctionDef] = {entry.name: entry}
    frontier = [entry]
    while frontier:
        func = frontier.pop()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in by_name
                and node.func.attr not in seen
            ):
                helper = by_name[node.func.attr]
                seen[helper.name] = helper
                frontier.append(helper)
    return list(seen.values())


def _stamps_version(func: ast.FunctionDef) -> bool:
    """True when ``to_dict`` stamps a schema version (stamp() or literal)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == "stamp":
                return True
            if isinstance(callee, ast.Attribute) and callee.attr == "stamp":
                return True
        if isinstance(node, ast.Constant) and node.value == VERSION_KEY:
            return True
    return False


def _written_keys(func: ast.FunctionDef) -> dict[str, int]:
    """String keys of every dict literal in ``to_dict`` -> first line seen."""
    keys: dict[str, int] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.setdefault(key.value, key.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.setdefault(node.args[0].value, node.lineno)
    return keys


def _read_keys(func: ast.FunctionDef) -> set[str]:
    """String keys ``from_dict`` consumes, directly or via local helpers."""
    keys: set[str] = set()
    helper_names = {
        node.name
        for node in ast.walk(func)
        if isinstance(node, ast.FunctionDef) and node is not func
    }
    for node in ast.walk(func):
        # payload["key"]
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            if isinstance(node.slice.value, str):
                keys.add(node.slice.value)
        elif isinstance(node, ast.Call):
            callee = node.func
            # payload.get("key"[, default]) / mapping.get(...)
            if isinstance(callee, ast.Attribute) and callee.attr == "get":
                if node.args and isinstance(node.args[0], ast.Constant):
                    if isinstance(node.args[0].value, str):
                        keys.add(node.args[0].value)
            elif isinstance(callee, ast.Name):
                # require(payload, "key", dto_name) and sibling helpers, plus
                # calls to helpers defined inside from_dict (names("accepted")).
                if callee.id == "require" and len(node.args) >= 2:
                    key_arg = node.args[1]
                    if isinstance(key_arg, ast.Constant) and isinstance(
                        key_arg.value, str
                    ):
                        keys.add(key_arg.value)
                elif callee.id in helper_names:
                    for arg in node.args:
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                            keys.add(arg.value)
                elif callee.id == "check_version":
                    keys.add(VERSION_KEY)
    return keys


def _declared_error_codes(module: SourceModule) -> list[tuple[ast.ClassDef, str]]:
    codes: list[tuple[ast.ClassDef, str]] = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "code"
                        and isinstance(item.value, ast.Constant)
                        and isinstance(item.value.value, str)
                    ):
                        codes.append((node, item.value.value))
    return codes


class WireContractChecker(Checker):
    rule = "RA04"
    title = "versioned DTO wire round-trips"
    description = (
        "Every schema_version-stamped class needs a from_dict that reads "
        "(or explicitly defaults) every key its to_dict writes; every "
        "declared error code must appear in the DESIGN.md taxonomy table; "
        "repro/api/ imports no stdlib HTTP stack and moves socket bytes only "
        "in its codec module."
    )

    def check(self, tree: ProjectTree) -> Iterator[Finding]:
        for module in tree.modules:
            yield from self._check_module(module)
            if API_PACKAGE_FRAGMENT in module.path:
                yield from self._check_framing(module)
        errors_module = tree.find(ERRORS_MODULE_SUFFIX)
        design = tree.document(DESIGN_DOCUMENT)
        if errors_module is not None and design is not None:
            yield from self._check_design_table(errors_module, design)

    def _check_module(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_framing(self, module: SourceModule) -> Iterator[Finding]:
        is_codec = module.matches(CODEC_MODULE_SUFFIX)
        for node in ast.walk(module.tree):
            imported: list[str] = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported = [node.module]
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
            for name in sorted(BORROWED_STACKS.intersection(imported)):
                yield self.finding(
                    module,
                    node,
                    name,
                    f"{name} is imported inside repro/api/; both ends of the wire "
                    "speak the one framing codec of repro/api/transport.py",
                )
            if (
                not is_codec
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in STREAM_IO_METHODS
            ):
                yield self.finding(
                    module,
                    node,
                    node.func.attr,
                    f".{node.func.attr}() moves bytes outside the codec module; "
                    "socket reads and writes in repro/api/ belong to "
                    "repro/api/transport.py",
                )

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        to_dict = _method(cls, "to_dict")
        if to_dict is None:
            return
        serialisers = _serialising_methods(cls, to_dict)
        if not any(_stamps_version(func) for func in serialisers):
            return
        from_dict = _method(cls, "from_dict")
        if from_dict is None:
            yield self.finding(
                module,
                cls,
                cls.name,
                f"{cls.name} stamps a {VERSION_KEY} in to_dict but defines no "
                "from_dict classmethod; versioned wire payloads must round-trip",
            )
            return
        written: dict[str, int] = {}
        for func in serialisers:
            for key, lineno in _written_keys(func).items():
                written.setdefault(key, lineno)
        read = _read_keys(from_dict)
        # stamp() adds the version key without a literal in to_dict's body.
        written.setdefault(VERSION_KEY, to_dict.lineno)
        for key, lineno in sorted(written.items(), key=lambda kv: kv[1]):
            if key not in read:
                yield Finding(
                    rule=self.rule,
                    path=module.path,
                    line=lineno,
                    symbol=f"{cls.name}.from_dict",
                    message=(
                        f"to_dict writes key {key!r} but from_dict never reads "
                        "or explicitly defaults it; the wire contract drifts "
                        "silently"
                    ),
                )

    def _check_design_table(
        self, errors_module: SourceModule, design: str
    ) -> Iterator[Finding]:
        for cls, code in _declared_error_codes(errors_module):
            if f"`{code}`" not in design:
                yield self.finding(
                    errors_module,
                    cls,
                    cls.name,
                    f"error code {code!r} is missing from the DESIGN.md "
                    "error-taxonomy table; new codes ship with their "
                    "documentation row",
                )
