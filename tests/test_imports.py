"""Every name a module of the package, the tests or the demos imports is
used in that module, the package's imports sit at module level unless
they have a reason not to, every function and method of the package is
executed by a command, demo or README example, no module of the
package holds an assert statement, and every error class is raised.

The package's ``__init__.py`` imports names only to re-export them, so it
is exempt from the first check.  For the second, LOCAL_IMPORTS names the
functions allowed an import in their body.  The third runs every golden
CLI transcript of tests/test_cli.py, each demo and the README's python
block under sys.setprofile, and names each function, method and nested
function of ``src/mdeg`` that none of them calls: code that only the
tests call belongs in the tests.  Dunder methods are exempt, as are the
functions the benchmark looks up by name (mdegbench/run.py and
mdegbench/tracing.py).  The fourth holds because ``python -O`` strips
assert statements, and the exit-code contract needs errors that are
raised under every flag.  The fifth names each class of ``errors.py``
that no raise statement of the package names, leaving out the classes
another one derives from (MdegError, BadArgument): an error that nothing
raises is an error no caller can meet.
"""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mdeg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
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


def definitions(path):
    """(first line, qualified name) of each function, method and nested
    function of the module at `path`, dunder methods aside.  The first
    line is that of the first decorator, if any, as in co_firstlineno; a
    nested function's name runs through ``<locals>``, as in __qualname__."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((first, prefix + name))
                visit(child, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return sorted(out)


def executed(run):
    """(file, first line) of the code of every Python function that run()
    calls, directly or not: the key that `definitions` gives a definition
    (co_qualname, which would name it, is new in Python 3.11)."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(pathlib.Path(f).resolve()), line) for f, line in seen}


def unexecuted(paths, seen):
    """(file name, line, qualified name) of each definition of the modules
    at `paths` whose key is not in `seen`."""
    return [
        (path.name, line, name)
        for path in paths
        for line, name in definitions(path)
        if (str(path.resolve()), line) not in seen
    ]


def test_definitions_that_do_not_run_are_found(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(
        "import functools\n"
        "def called():\n"
        "    def inner_called():\n"
        "        pass\n"
        "    def inner_dead():\n"
        "        pass\n"
        "    inner_called()\n"
        "class C:\n"
        "    def __repr__(self):\n"
        "        return 'C'\n"
        "    @staticmethod\n"
        "    def dead_method():\n"
        "        pass\n"
        "    @functools.lru_cache\n"
        "    @staticmethod\n"
        "    def cached():\n"
        "        pass\n"
        "def dead():\n"
        "    called()\n"
    )
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        module.called()
        module.C.cached()

    assert unexecuted([path], executed(run)) == [
        ("synthetic.py", 5, "called.<locals>.inner_dead"),
        ("synthetic.py", 11, "C.dead_method"),
        ("synthetic.py", 18, "dead"),
    ]


def run_commands_demos_and_readme():
    """Every golden CLI transcript of tests/test_cli.py, pipes included,
    each demo as __main__ and the README's python block, their output
    discarded."""
    test_cli = importlib.import_module("test_cli")
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        for name in test_cli.GOLDEN_CASES:
            test_cli.golden_transcript(name, work)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        exec(example, {"__name__": "__main__"})


def benchmark_names():
    """module.qualified name of each function that mdegbench/ looks up by
    name: run.LAYER_FUNCTIONS, tracing.METHODS and tracing.COUNTED."""
    out = set()
    for file, names in (("run.py", {"LAYER_FUNCTIONS"}), ("tracing.py", {"METHODS", "COUNTED"})):
        for node in ast.parse((ROOT / "mdegbench" / file).read_text()).body:
            if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & names:
                for item in ast.literal_eval(node.value):
                    out.add(item if isinstance(item, str) else ".".join(item))
    return out


@functools.cache
def executed_by_the_program():
    """The keys of the functions that run_commands_demos_and_readme calls,
    collected once, in a fresh interpreter: cli._parser and ring._packing
    are lru_cached, so a call made by an earlier test would hide a miss."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("MDEG_SEED", None)
    with tempfile.TemporaryDirectory() as work:
        out = pathlib.Path(work) / "executed.json"
        done = subprocess.run(
            [sys.executable, __file__, str(out)], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        return {tuple(key) for key in json.loads(out.read_text())}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_definitions(path):
    exempt = benchmark_names()
    dead = [
        f"{file}:{line} {name}"
        for file, line, name in unexecuted([path], executed_by_the_program())
        # a function nested in an exempt one is exempt with it
        if f"{file[:-3]}.{name}".split(".<locals>.")[0] not in exempt
    ]
    assert not dead, "never executed:\n" + "\n".join(dead)


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


def unraised_errors(errors_source, sources):
    """Names of the classes of `errors_source` that no raise statement of
    `sources` names, bare (``raise E``), called (``raise E(...)``) or as
    an attribute (``raise errors.E(...)``), the classes another class of
    `errors_source` derives from aside."""
    classes = [n for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    bases = {b.id for c in classes for b in c.bases if isinstance(b, ast.Name)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return [c.name for c in classes if c.name not in raised | bases]


def test_unraised_errors_are_found():
    errors = (
        "class Base(Exception):\n"
        "    pass\n"
        "class Bare(Base):\n"
        "    pass\n"
        "class Called(Base):\n"
        "    pass\n"
        "class Qualified(Base):\n"
        "    pass\n"
        "class Named(Base):\n"
        "    pass\n"
        "class Parent(Base):\n"
        "    pass\n"
        "class Child(Parent):\n"
        "    pass\n"
    )
    source = (
        "from . import errors\n"
        "from .errors import Bare, Called, Named\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise Called('message') from None\n"
        "    if x is None:\n"
        "        raise errors.Qualified()\n"
        "    try:\n"
        "        raise Bare\n"
        "    except Named:\n"
        "        raise\n"
    )
    assert unraised_errors(errors, [source]) == ["Named", "Child"]


def test_every_error_class_is_raised():
    sources = [path.read_text() for path in MODULES]
    assert unraised_errors((SRC / "errors.py").read_text(), sources) == []


if __name__ == "__main__":
    # the collection of executed_by_the_program: write the keys of the
    # executed functions, as JSON, to the file named by the one argument
    pathlib.Path(sys.argv[1]).write_text(json.dumps(sorted(executed(run_commands_demos_and_readme))))
