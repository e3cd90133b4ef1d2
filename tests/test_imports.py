import ast
import builtins
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bquiver"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names the module's import statements bind, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def reads_environment(node) -> bool:
    """Whether the node is ``os.environ``, ``os.getenv`` or the like, or
    imports one of them from ``os``."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in _ENVIRONMENT
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in _ENVIRONMENT for alias in node.names)
    return False


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # a report depends only on the document and the command line
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree) if reads_environment(node)]
    assert not reads, f"{path.name} reads the environment on lines {reads}"


README = PACKAGE.parent.parent / "README.md"


def library_use_spans():
    """The code of the README's "Library use" section: its Python block
    and its inline code spans."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```.*?```|`[^`]*`", section, re.S)


def library_use_names():
    """The identifiers in the code of the README's "Library use" section."""
    return {name for span in library_use_spans() for name in re.findall(r"\w+", span)}


def defined_names(tree):
    """Every function, class and method a module defines, and its
    module-level constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_call_in_the_readme_library_use_is_defined():
    # a stale call in the README (an API since removed) is a broken example
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {name for tree in trees for name in defined_names(tree)}
    called = {name for span in library_use_spans() for name in re.findall(r"(\w+)\(", span)}
    stale = sorted(name for name in called if name not in defined and not hasattr(builtins, name))
    assert len(called) > 30  # the spans were found
    assert not stale, f"the README's Library use calls names src/bquiver does not define: {', '.join(stale)}"


def public_definitions(tree):
    """(qualified name, short name, line) of each public top-level function
    and class of a module, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, sub.lineno


def test_every_public_definition_is_used_or_documented():
    # a name counts as used when some name or attribute in the package
    # spells it (an import in __init__ is neither, and neither is its own
    # definition); the check is by name, not by binding
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    documented = library_use_names()
    dead = [
        f"{module}:{line} {qualified}"
        for module, tree in trees.items()
        for qualified, name, line in public_definitions(tree)
        if name not in used and name not in documented
    ]
    assert not dead, f"defined but never used in src/bquiver nor named in the README's Library use: {', '.join(dead)}"


def is_exception_class(node) -> bool:
    """Does the class derive from a built-in exception (the package's own
    exceptions all do)?"""
    bases = (getattr(builtins, b.id, None) for b in node.bases if isinstance(b, ast.Name))
    return any(isinstance(b, type) and issubclass(b, BaseException) for b in bases)


def test_every_attribute_set_on_self_is_read():
    # an attribute assigned on self that no expression in the package reads
    # is dead state; an exception's attributes are payloads for its callers
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    read |= {node.target.attr for node in nodes if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)}
    dead = [
        f"{cls.name}.{t.attr} (line {t.lineno})"
        for cls in nodes if isinstance(cls, ast.ClassDef) and not is_exception_class(cls)
        for node in ast.walk(cls) if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self" and t.attr not in read
    ]
    assert not dead, f"attributes assigned on self and never read in src/bquiver: {', '.join(dead)}"


def imported_modules(tree):
    """The top-level names of the modules a module's imports load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_argparse_or_dataclasses(path):
    # both cost more to import than a command line or a record needs, and
    # every CLI call pays the import once
    heavy = sorted({"argparse", "dataclasses"} & set(imported_modules(ast.parse(path.read_text(encoding="utf-8")))))
    assert not heavy, f"{path.name} imports {', '.join(heavy)}"
