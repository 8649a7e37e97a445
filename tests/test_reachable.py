"""Every public name in src/, constants included, is reached by the library,
a script or the benchmark: a name that only tests reach belongs in the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacobitrees"


def public_definitions(tree: ast.Module):
    """Top-level functions, classes and assigned names, and the methods of
    those classes, whose names do not start with "_"; methods as
    Class.method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, name.id
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def references(tree: ast.Module):
    """Names a module reads, imports or gives as identifier strings (the
    benchmark's tracer patches functions named by strings); assigning a
    name does not read it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_public_name_in_src_is_reached():
    sources = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
          if not p.name.startswith("test_")),
    ]
    reached = set()
    for path in sources:
        reached.update(references(ast.parse(path.read_text(), str(path))))
    unreached = [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in public_definitions(ast.parse(path.read_text()))
        if name not in reached
    ]
    assert not unreached, f"public names that nothing outside tests reaches: {unreached}"
