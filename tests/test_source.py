"""Dead code in src/boole, read off the syntax trees with the standard
library's ``ast``: an import no line of its module uses, and a private
top-level function, class or assigned name no module names.  Deleting a
caller then fails here until what only it used goes too."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "boole"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SOURCE.glob("*.py"))}


def names_in(node: ast.AST) -> set[str]:
    # Every name a node reads: bare names, attributes and names imported
    # from a module.
    found = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            found.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            found.add(inner.attr)
        elif isinstance(inner, ast.ImportFrom):
            found.update(alias.name for alias in inner.names)
    return found


def exported(tree: ast.Module) -> set[str]:
    # The strings of the module's __all__, if it has one.
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
        ):
            return set(ast.literal_eval(statement.value))
    return set()


def test_every_source_module_is_read():
    assert {"polynomial", "development", "terms", "r01", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used_or_exported(module):
    tree = MODULES[module]
    used = exported(tree)
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            used |= names_in(statement)
    unused = []
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(f"{module}.py:{statement.lineno} {bound}")
    assert unused == []


def test_every_private_definition_is_named_somewhere():
    # A private top-level def or class is dead when no top-level statement
    # but its own, in any module, names it.  The CLI's _cmd_* handlers are
    # found by name, so they are exempt.
    statements = [(module, statement) for module, tree in MODULES.items() for statement in tree.body]
    reads = [names_in(statement) for _, statement in statements]
    dead = []
    for module, definition in statements:
        if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = definition.name
        if not name.startswith("_") or name.startswith("__") or name.startswith("_cmd_"):
            continue
        if not any(name in read for (_, statement), read in zip(statements, reads) if statement is not definition):
            dead.append(f"{module}.py:{definition.lineno} {name}")
    assert dead == []


def test_every_private_assigned_name_is_read_somewhere():
    # The same rule for a private name bound by a top-level assignment,
    # such as a module constant.
    statements = [(module, statement) for module, tree in MODULES.items() for statement in tree.body]
    reads = [names_in(statement) for _, statement in statements]
    dead = []
    for module, assignment in statements:
        if isinstance(assignment, ast.Assign):
            targets = assignment.targets
        elif isinstance(assignment, ast.AnnAssign):
            targets = [assignment.target]
        else:
            continue
        for name in [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]:
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in read for (_, statement), read in zip(statements, reads) if statement is not assignment):
                dead.append(f"{module}.py:{assignment.lineno} {name}")
    assert dead == []
