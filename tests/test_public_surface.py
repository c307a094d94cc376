"""Every public name of the package has a caller outside the tests, and
the package holds no assert statement."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ppbij"
# the package itself, the benchmark and the kernel loads it times
CALLERS = (PACKAGE, ROOT / "perfbench", ROOT / "benchmarks")

# Reference implementations that tests compare other code against.
TEST_REFERENCES = {
    "schur_combinatorial": "content-tally Schur polynomial that tests "
                           "compare schur_specialized with",
    "g_combinatorial": "per-shape dual Grothendieck polynomial that tests "
                       "compare g_jacobi_trudi, schur_specialized and "
                       "check_gl's tally of fillings with",
    "g_jacobi_trudi": "Jacobi-Trudi determinant that tests compare "
                      "g_combinatorial with",
    "g_refined": "per-shape two-alphabet polynomial that tests compare "
                 "check_cauchy_type's tally of fillings with",
    "max_downright_path_weight": "path weights that tests compare the row "
                                 "lengths of phi_inverse images with",
}


def parse_callers() -> dict:
    """path -> syntax tree of every non-test source file of CALLERS."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for root in CALLERS for path in sorted(root.rglob("*.py"))
            if not path.name.startswith("test_")}


def public_definitions(trees: dict):
    """(qualified name, definition node, is a method) for each public
    module-level function and class of the package and each public
    method of its classes.
    """
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = path.relative_to(PACKAGE).with_suffix("").as_posix()
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item, True


def references(trees: dict) -> dict:
    """(node type, name) -> the definitions enclosing each reference to
    the name as a Name, an Attribute or a string constant, one frozenset
    per reference.  Imports and __all__ lists only re-export a name and
    do not count.
    """
    found: dict = {}

    def visit(node, enclosing):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return
        if isinstance(node, ast.Name):
            found.setdefault((ast.Name, node.id), []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            found.setdefault((ast.Attribute, node.attr), []).append(enclosing)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.setdefault((ast.Constant, node.value), []).append(enclosing)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees.values():
        visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_outside_tests():
    trees = parse_callers()
    found = references(trees)
    unused = []
    for qualified, node, method in public_definitions(trees):
        if node.name in TEST_REFERENCES:
            continue
        # a method is reached only as an attribute or through getattr
        kinds = (ast.Attribute, ast.Constant) if method \
            else (ast.Name, ast.Attribute, ast.Constant)
        if all(node in enclosing for kind in kinds
               for enclosing in found.get((kind, node.name), ())):
            unused.append(qualified)
    assert unused == []


def test_test_references_are_defined():
    names = {node.name for _, node, _ in public_definitions(parse_callers())}
    assert set(TEST_REFERENCES) <= names


def test_package_holds_no_assert_statement():
    # python -O strips assert statements, so no check may rest on one
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
