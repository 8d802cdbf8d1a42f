"""Every module-level function and class of the package has a caller, and
every module-level constant a reader.

A name counts as called when some module under ``src/pilot_borrow`` refers
to it (as a name, an attribute or an import) or when the package exports it
in ``__all__``. An UPPER_CASE constant counts as read when some module loads
it (as a name or an attribute) or when the package exports it. Code that
nothing reaches is deleted, not kept for later.
"""

import ast
from pathlib import Path

import pilot_borrow

PACKAGE = Path(pilot_borrow.__file__).parent

# Names kept without a caller in the package, each with its reason.
ALLOWED = {
    # perfbench/spans.py wraps it for its decision.nodes span; it goes when
    # the benchmark drops that span.
    "decision._gl_nodes": "wrapped by the benchmark",
}


def module_trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def referred_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def read_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def unread_constants(trees):
    reached = read_names(trees) | set(pilot_borrow.__all__)
    return [
        f"{module}.{target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper() and target.id not in reached
    ]


def uncalled(trees):
    reached = referred_names(trees) | set(pilot_borrow.__all__)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in reached
    ]


def test_every_definition_has_a_caller():
    assert sorted(set(uncalled(module_trees())) - set(ALLOWED)) == []


def test_allowlist_holds_only_uncalled_names():
    assert set(ALLOWED) <= set(uncalled(module_trees()))


def test_check_flags_a_definition_without_a_caller():
    trees = module_trees()
    trees["orphan"] = ast.parse("def orphan_helper():\n    return 1\n")
    assert "orphan.orphan_helper" in uncalled(trees)


def test_every_constant_is_read():
    assert unread_constants(module_trees()) == []


def test_check_flags_a_constant_nothing_reads():
    trees = module_trees()
    trees["orphan"] = ast.parse(
        "_READ_CAP = 1 << 20\n_STALE_CAP = 1 << 20\n\ndef size():\n    return _READ_CAP\n"
    )
    assert unread_constants(trees) == ["orphan._STALE_CAP"]
