"""Every name a module of the package, the tests or the demos imports is
used in that module, every class, function and method of the package is
named somewhere else, the package's imports sit at module level unless
they have a reason not to, and no module of it holds an assert statement.

The package's ``__init__.py`` imports names only to re-export them, so it
is exempt from the first check.  For the second, a definition counts as
used when its name is referred to outside the definition itself in the
package, the demos or the benchmark.  Neither a reference from the tests
nor a re-export from an ``__init__.py`` counts: code that only the tests
call belongs in the tests, and a re-export calls nothing.  For the third,
LOCAL_IMPORTS names the functions allowed an import in their body.  The
fourth holds because ``python -O`` strips assert statements, and the
exit-code contract needs errors that are raised under every flag.
"""

import ast
import functools
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mdeg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the folders whose references make a definition of the package used
REFERRING = [SRC, ROOT / "demos", ROOT / "mdegbench"]
# the files whose imports must all be used
IMPORTING = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def module_id(path):
    """A module of the package by its file name, any other file by its
    path from the root of the checkout."""
    return path.name if path.parent == SRC else path.relative_to(ROOT).as_posix()


def unused_imports(source):
    """Names bound by import statements in `source` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport sys\nfrom .a import b, c as d\nprint(sys.argv, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", IMPORTING, ids=module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# (module, function) pairs whose body may hold an import statement
LOCAL_IMPORTS = {
    # keeps mdeg.determinantal out of `import mdeg.cli`
    ("cli.py", "cmd_det"),
    # mdeg.hilbert imports mdeg.monomial at module level
    ("monomial.py", "length_at_minimal_prime"),
}


def function_level_imports(source):
    """(line, innermost enclosing function) of each import statement that
    sits inside a function or method of `source`."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if func and isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append((child.lineno, func))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, func)

    visit(ast.parse(source), None)
    return sorted(out)


def test_function_level_imports_are_found():
    source = (
        "import os\n"
        "def f():\n"
        "    import sys\n"
        "    def g():\n"
        "        from . import a\n"
        "class C:\n"
        "    from . import b\n"
        "    def m(self):\n"
        "        if self:\n"
        "            import re\n"
    )
    assert function_level_imports(source) == [(3, "f"), (5, "g"), (10, "m")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    found = function_level_imports(path.read_text())
    assert [(line, f) for line, f in found if (path.name, f) not in LOCAL_IMPORTS] == []


def referenced_names(tree):
    """How often the syntax tree refers to each name: as a variable, an
    attribute, an imported name, or a word of a string constant that is
    not a docstring (mdegbench/tracing.py names the functions it wraps in
    strings)."""
    docstrings = {
        id(n.value)
        for n in ast.walk(tree)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            out.update(re.findall(r"\w+", node.value))
    return out


def unused_definitions(source, references):
    """(line, name) of each class, function and method of `source`, dunders
    aside, that `references` (referenced_names summed over every referring
    file, this one included) names only inside the definition itself."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if references[name] <= referenced_names(node)[name]:
            out.append((node.lineno, name))
    return sorted(out)


def folder_references(folders):
    """referenced_names summed over the Python files of `folders`, each
    folder's ``__init__.py`` aside."""
    out = Counter()
    for folder in folders:
        for path in folder.glob("*.py"):
            if path.name != "__init__.py":
                out += referenced_names(ast.parse(path.read_text()))
    return out


@functools.cache
def all_references():
    return folder_references(REFERRING)


def test_unused_definitions_are_found():
    source = (
        "class A:\n"
        "    def used(self):\n"
        "        return TABLE\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def __eq__(self, other):\n"
        "        return False\n"
        "def dead():\n"
        '    """dead is named in its docstring only."""\n'
        "def named_in_a_string():\n"
        "    pass\n"
        "A().used()\n"
        'TABLE = [("A", "named_in_a_string")]\n'
    )
    refs = referenced_names(ast.parse(source))
    assert unused_definitions(source, refs) == [(4, "recursive"), (8, "dead")]


def test_definitions_named_only_outside_the_referring_folders_are_found(tmp_path):
    package, demos, tests = (tmp_path / d for d in ("package", "demos", "tests"))
    for folder in (package, demos, tests):
        folder.mkdir()
    source = "def shown():\n    pass\ndef tested():\n    pass\n"
    (package / "mod.py").write_text(source)
    (demos / "demo.py").write_text("from package.mod import shown\nshown()\n")
    (tests / "test_mod.py").write_text("from package.mod import tested\ntested()\n")
    refs = folder_references([package, demos])
    assert unused_definitions(source, refs) == [(3, "tested")]
    refs = folder_references([package, demos, tests])
    assert unused_definitions(source, refs) == []


def test_definitions_only_re_exported_by_an_init_are_found(tmp_path):
    package, tests = tmp_path / "package", tmp_path / "tests"
    for folder in (package, tests):
        folder.mkdir()
    source = "def called():\n    pass\ndef exported():\n    pass\ncalled()\n"
    (package / "mod.py").write_text(source)
    (package / "__init__.py").write_text("from .mod import called, exported\n")
    (tests / "test_mod.py").write_text("from package import exported\nexported()\n")
    refs = folder_references([package])
    assert unused_definitions(source, refs) == [(3, "exported")]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_definitions(path):
    assert unused_definitions(path.read_text(), all_references()) == []


def assert_statements(source):
    """Line of each assert statement in `source`."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_assert_statements_are_found():
    source = (
        "assert x\n"
        "def f():\n"
        "    assert y, 'message'\n"
        "TEXT = 'assert z'\n"
        "class C:\n"
        "    def m(self):\n"
        "        if self:\n"
        "            assert self.ok\n"
    )
    assert assert_statements(source) == [1, 3, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []
