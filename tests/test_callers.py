"""Every module-level function and class of the package has a caller.

A name counts as called when some module under ``src/pilot_borrow`` refers
to it (as a name, an attribute or an import) or when the package exports it
in ``__all__``. Code that nothing reaches is deleted, not kept for later.
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
