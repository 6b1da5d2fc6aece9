"""Every module-level name of the package is used somewhere in the package.

A function, class or assigned name defined at the top of a module in
src/xxchain must be referenced outside its own definition: as a loaded
name, an attribute or an imported name, in any module but __init__.py.
Names that only tests or scripts use count as dead, and so do names that
only __init__.py re-exports; the tests exercise the code the package runs.
EXEMPT lists the few names kept for a reader outside the package.

A module-level import must be loaded by its own module.  __init__.py is
exempt, since its imports are the package's re-exports, and so is
`from __future__`.

Every parameter of a function must be loaded by the function's body,
except self, cls and names that start with "_", which a caller's calling
convention may force on a function that does not read them.
"""

import ast
from pathlib import Path

import xxchain

PACKAGE = Path(xxchain.__file__).resolve().parent

# (module, name) of the public names that no module reads, each with its reader
EXEMPT = {
    # perfbench/workloads.py checks the exact average against this compact form
    ("fidelity.py", "fidelity_from_edge_amplitudes"),
    # the dense oracle's fidelity of one input, which the tests compare against
    ("sector_oracle.py", "state_fidelity"),
    # the paper's truncated mirror amplitude, which README.md documents
    ("protocol.py", "re_f_truncated"),
}


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
    """(module, name) of every module-level name no other statement uses.

    A statement of __init__.py is no use: its imports are re-exports.
    """
    statements = [
        (path.name, stmt)
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    refs = [
        set() if module == "__init__.py" else referenced_names(stmt)
        for module, stmt in statements
    ]
    return [
        (module, name)
        for i, (module, stmt) in enumerate(statements)
        for name in defined_names(stmt)
        if not any(name in r for j, r in enumerate(refs) if j != i)
    ]


def test_every_module_level_name_is_referenced():
    assert [name for name in unreferenced(PACKAGE) if name not in EXEMPT] == []


def test_every_exempt_name_is_otherwise_unreferenced():
    # an exemption whose name the package reads again is stale
    assert EXEMPT <= set(unreferenced(PACKAGE))


def imported_names(stmt):
    """The names a module-level import binds; none for `from __future__`."""
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def unused_imports(package):
    """(module, name) of every module-level import its own module never loads."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            (path.name, name)
            for stmt in tree.body
            for name in imported_names(stmt)
            if name not in loaded
        ]
    return unused


def test_every_module_level_import_is_used():
    assert unused_imports(PACKAGE) == []


def unused_parameters(package):
    """(module, function, parameter) of every parameter its body never loads."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            loaded = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unused += [
                (path.name, node.name, p.arg)
                for p in params
                if p is not None
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
                and p.arg not in loaded
            ]
    return unused


def test_every_parameter_is_used():
    assert unused_parameters(PACKAGE) == []
