"""Every module-level name of the package is used somewhere in the package.

A function, class or assigned name defined at the top of a module in
src/xxchain must be referenced outside its own definition: as a loaded
name, an attribute or an imported name, in any module.  Names that only
tests or scripts use count as dead; the tests exercise the code the
package runs.
"""

import ast
from pathlib import Path

import xxchain

PACKAGE = Path(xxchain.__file__).resolve().parent


def defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def referenced_names(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(package):
    """(module, name) of every module-level name no other statement uses."""
    statements = [
        (path.name, stmt)
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    refs = [referenced_names(stmt) for _, stmt in statements]
    return [
        (module, name)
        for i, (module, stmt) in enumerate(statements)
        for name in defined_names(stmt)
        if not any(name in r for j, r in enumerate(refs) if j != i)
    ]


def test_every_module_level_name_is_referenced():
    assert unreferenced(PACKAGE) == []
