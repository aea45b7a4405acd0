"""The public surface holds only what the program calls.

Every name in ``smolkit.__all__`` must be read by code in the package other
than its own definition.  Imports and the ``__all__`` lists are not reads.
A read from inside the definition of another public name that is itself
unused does not count either, so a chain of wrappers that only tests call is
caught whole.  Scopes come from :mod:`symtable`, so a local variable that
shares a public name is not mistaken for a call.

Every public method, classmethod or property of a class among those names
must also be read as an attribute (``obj.name``) somewhere in the package.
"""

import ast
import inspect
import symtable
from collections import defaultdict
from pathlib import Path

import smolkit

SRC = Path(smolkit.__file__).parent

# Public names and ``Class.method`` entries allowed to have no program
# caller: a convenience constructor that only tests use.
EXCEPTIONS: set[str] = {"TruncationPolicy.cutoff"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def global_reads() -> dict[str, set[tuple[str, str]]]:
    """Name -> the (module, top-level definition) pairs whose code reads it as
    a module global; module-level code is the definition ``"<module>"``."""
    reads = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        module = f"smolkit.{path.stem}" if path.stem != "__init__" else "smolkit"
        top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
        for sym in top.get_symbols():
            if sym.is_referenced():
                reads[sym.get_name()].add((module, "<module>"))
        for child in top.get_children():
            for scope in _scopes(child):
                for sym in scope.get_symbols():
                    if sym.is_referenced() and sym.is_global():
                        reads[sym.get_name()].add((module, child.get_name()))
    return reads


def unused_public_names() -> set[str]:
    """Public names with no read outside their own and other unused definitions."""
    home = {name: (getattr(smolkit, name).__module__, name) for name in smolkit.__all__}
    reads = global_reads()
    unused: set[str] = set()
    while True:
        dead = {home[name] for name in unused}
        found = {
            name
            for name in set(smolkit.__all__) - unused
            if all(where == home[name] or where in dead for where in reads[name])
        }
        if not found:
            return unused
        unused |= found


def unused_methods() -> set[str]:
    """``Class.attr`` for each public method, classmethod or property of a
    public class that no code in the package reads as an attribute."""
    read = {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    unused = set()
    for name in smolkit.__all__:
        cls = getattr(smolkit, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            method = inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod, property))
            if method and not attr.startswith("_") and attr not in read:
                unused.add(f"{name}.{attr}")
    return unused


def test_every_public_name_has_a_program_caller():
    extra = sorted(unused_public_names() - EXCEPTIONS)
    assert not extra, f"public names that only tests call: {extra}"


def test_every_public_method_is_read_by_the_program():
    extra = sorted(unused_methods() - EXCEPTIONS)
    assert not extra, f"public methods that only tests call: {extra}"


def test_exceptions_are_still_needed():
    stale = sorted(EXCEPTIONS - unused_public_names() - unused_methods())
    assert not stale, f"no longer unused public names, drop them from EXCEPTIONS: {stale}"
