"""Every name a module of the package, the tests or the demos imports is
used in that module, the package's imports sit at module level unless
they have a reason not to, every function and method of the package is
executed by a command, demo or README example, and so is every statement
that KEPT_UNREACHED does not name, no module of the package holds an
assert statement, every error class is raised, and no module of the
package imports a private name from another one but ring.py.

The package's ``__init__.py`` imports names only to re-export them, so it
is exempt from the first check.  For the second, LOCAL_IMPORTS names the
functions allowed an import in their body.  The third and fourth share
one collection: every golden CLI transcript of tests/test_cli.py, each
demo and the README's python block run under sys.settrace, which records
each function called and each line run in ``src/mdeg``.  The third names
each function, method and nested function of ``src/mdeg`` that none of
them calls: code that only the tests call belongs in the tests.  Dunder
methods are exempt, as are the functions the benchmark looks up by name
(mdegbench/run.py and mdegbench/tracing.py).  The fourth names each
statement in a function of ``src/mdeg`` whose first line never runs,
leaving out raise statements, except bodies, nonlocal and global
declarations and the bodies of the dunder methods that nothing calls: an
input path that no golden transcript pins, or dead weight.  Each
statement kept on purpose is in KEPT_UNREACHED with its reason, and an
entry whose statement runs or is gone fails the check too.  The fifth holds because ``python -O`` strips assert statements, and
the exit-code contract needs errors that are raised under every flag.
The sixth names each class of ``errors.py`` that no raise statement of
the package names, leaving out the classes another one derives from
(MdegError, BadArgument): an error that nothing raises is an error no
caller can meet.  The seventh keeps each module's private names its own,
those of ring.py aside: its term kernel and exponent packing are shared.
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


def private_imports(source):
    """(line, module, name) of each private name, one with a single
    leading underscore, that `source` imports from a module of its own
    package (``from .module import _name``; module None for ``from .``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    out.append((node.lineno, node.module, alias.name))
    return sorted(out)


def test_private_imports_are_found():
    source = (
        "from .ring import Polynomial, _add_mul\n"
        "from .monomial import (\n"
        "    MonomialIdeal,\n"
        "    _has_divisor,\n"
        ")\n"
        "from . import _kernel, __version__\n"
        "from os import _exit\n"
        "def f():\n"
        "    from .groebner import _packed\n"
    )
    assert private_imports(source) == [
        (1, "ring", "_add_mul"),
        (2, "monomial", "_has_divisor"),
        (6, None, "_kernel"),
        (9, "groebner", "_packed"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_imported_only_from_ring(path):
    """ring.py's term kernel and exponent packing are shared by the
    package; every other module's private names stay inside it, so that
    only its own module knows, for one, how a MonomialIdeal packs its
    generators."""
    found = private_imports(path.read_text())
    assert [(line, module, name) for line, module, name in found if module != "ring"] == []


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


def executed(run, directory):
    """What run() executes, as two sets of (resolved file, line) keys.
    The first holds the first line of the code of every Python function
    that run() calls, directly or not: the key that `definitions` gives a
    definition (co_qualname, which would name it, is new in Python 3.11).
    The second holds every line event in the code of the modules in
    `directory`."""
    calls, lines = set(), set()

    @functools.cache
    def inside(filename):
        return pathlib.Path(filename).resolve().parent == directory

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        calls.add((code.co_filename, code.co_firstlineno))
        return trace_lines if inside(code.co_filename) else None

    sys.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return tuple({(str(pathlib.Path(f).resolve()), n) for f, n in keys} for keys in (calls, lines))


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

    assert unexecuted([path], executed(run, tmp_path.resolve())[0]) == [
        ("synthetic.py", 5, "called.<locals>.inner_dead"),
        ("synthetic.py", 11, "C.dead_method"),
        ("synthetic.py", 18, "dead"),
    ]


def statements(path):
    """(first line, enclosing function, text of the first line) of each
    statement in a function of the module at `path`, the function named
    as in `definitions`.  A statement runs when its first line, that of
    its first decorator if it has one, has a line event.  Left out: raise
    statements and except bodies, which run when something fails; nonlocal
    and global declarations, which make no line event; and docstrings,
    which are not code.  The bodies of dunder methods are in."""
    text = path.read_text().splitlines()
    out = []

    def visit(node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ExceptHandler, ast.Raise, ast.Nonlocal, ast.Global)):
                continue
            docstring = (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is node.body[0]
                and isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Constant)
                and isinstance(child.value.value, str)
            )
            if function and isinstance(child, ast.stmt) and not docstring:
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                out.append((first, function, text[first - 1].strip()))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.<locals>.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, function)

    visit(ast.parse(path.read_text()), "", None)
    return out


def unreached(paths, lines):
    """(file name, line, enclosing function, text) of each statement of
    the modules at `paths` whose first line has no event in `lines`.  A
    dunder method none of whose statements runs is one that nothing calls,
    such as a repr, which the function-level check exempts too; its
    statements are left out."""
    out = []
    for path in paths:
        key = str(path.resolve())
        found = [(line, function, text, (key, line) in lines) for line, function, text in statements(path)]
        called = {function for _, function, _, ran in found if ran}
        out += [
            (path.name, line, function, text)
            for line, function, text, ran in found
            if not ran and (function in called or not re.fullmatch(r"__\w+__", function.rsplit(".", 1)[-1]))
        ]
    return out


def unnamed_and_stale(found, kept):
    """The statements of `found` (from `unreached`) whose key, (file name,
    enclosing function, text), `kept` does not hold; and the keys of
    `kept` that no statement of `found` has, because the statement now
    runs or is gone."""
    keys = {(file, function, text) for file, _, function, text in found}
    unnamed = [s for s in found if (s[0], s[2], s[3]) not in kept]
    return unnamed, sorted(set(kept) - keys)


def test_statements_that_do_not_run_are_found(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(
        "import functools\n"
        "COUNT = 0\n"
        "def f(x):\n"
        "    'Docstring.'\n"
        "    global COUNT\n"
        "    total = 0\n"
        "    def inner():\n"
        "        nonlocal total\n"
        "        total += 1\n"
        "    if x:\n"
        "        inner()\n"
        "    else:\n"
        "        total = -1\n"
        "    try:\n"
        "        int(x)\n"
        "    except TypeError:\n"
        "        total = -2\n"
        "    if total > 1:\n"
        "        raise ValueError(total)\n"
        "    @functools.cache\n"
        "    def cached():\n"
        "        return 0\n"
        "    return total\n"
        "class C:\n"
        "    def __repr__(self):\n"
        "        return 'C'\n"
        "    def kept(self):\n"
        "        return 1\n"
        "    def __init__(self, x=0):\n"
        "        if x:\n"
        "            self.x = x\n"
    )
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        module.f(1)
        module.C()

    found = unreached([path], executed(run, tmp_path.resolve())[1])
    missed = [
        ("synthetic.py", 13, "f", "total = -1"),
        ("synthetic.py", 22, "f.<locals>.cached", "return 0"),
    ]
    dunder = ("synthetic.py", 31, "C.__init__", "self.x = x")
    assert found == missed + [("synthetic.py", 28, "C.kept", "return 1"), dunder]
    kept = {
        ("synthetic.py", "C.kept", "return 1"): "named",
        ("synthetic.py", "f", "total = 0"): "runs",
        ("synthetic.py", "f", "gone()"): "is gone",
    }
    assert unnamed_and_stale(found, kept) == (
        missed + [dunder],
        [("synthetic.py", "f", "gone()"), ("synthetic.py", "f", "total = 0")],
    )


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
    """The keys of `executed` for run_commands_demos_and_readme and the
    package: the functions it calls and the lines it runs, collected
    once, in a fresh interpreter: cli._parser and ring._packing are
    lru_cached, so a call made by an earlier test would hide a miss."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with tempfile.TemporaryDirectory() as work:
        out = pathlib.Path(work) / "executed.json"
        done = subprocess.run(
            [sys.executable, __file__, str(out)], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        return tuple({tuple(key) for key in keys} for keys in json.loads(out.read_text()))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_definitions(path):
    exempt = benchmark_names()
    dead = [
        f"{file}:{line} {name}"
        for file, line, name in unexecuted([path], executed_by_the_program()[0])
        # a function nested in an exempt one is exempt with it
        if f"{file[:-3]}.{name}".split(".<locals>.")[0] not in exempt
    ]
    assert not dead, "never executed:\n" + "\n".join(dead)


# Statements of src/mdeg that no command, demo or README example runs,
# kept on purpose, keyed by (file name, enclosing function, text of the
# statement's first line) and mapped to the reason.
KEPT_UNREACHED = {
    ("cli.py", "cmd_standardize", "return EXIT_CHECK_FAILED"): (
        "a failed standardize --verify: standardization keeps every checked "
        "invariant, so only a wrong program fails a clause"
    ),
    (
        "genin.py",
        "gin",
        "I = Ideal._of(ring, [Polynomial._of(ring, {g: ring.field.one}) for g in I.gens])",
    ): (
        "gin of a MonomialIdeal: the commands pass Ideals, but gin, like "
        "k_polynomial and multidegree_C, takes either kind, and so does the "
        "gin of a non-CS CsVerdict of a MonomialIdeal"
    ),
    ("groebner.py", "Ideal.groebner_basis", "order = grevlex(self.ring)"): (
        "the default order of a library call; every call in the package passes an order"
    ),
    ("groebner.py", "Ideal.__init__", "continue"): (
        "a zero generator passed to Ideal: only library callers pass one, and "
        "every command builds its ideals with Ideal._of"
    ),
    ("monomial.py", "MonomialIdeal._plus_packed", "return self"): (
        "I + (m) for an m in I: add_monomial takes any monomial, while the "
        "commands add only monomials outside I (a pivot variable, a proper "
        "factor of a minimal generator, a new leading term)"
    ),
    ("monomial.py", "borel_fixed_check", "return False"): (
        "every gin is Borel-fixed, so only a wrong gin fails"
    ),
    ("monomial.py", "borel_prime_exponent", "return None"): (
        "every associated prime of a gin is a block segment, so only a wrong gin fails"
    ),
    (
        "standardize.py",
        "standardize_ideal",
        "return MonomialIdeal(std_map.target, [std_map.phi_exponents(g) for g in I.gens])",
    ): (
        "standardize_ideal of a MonomialIdeal: no command passes one, but "
        "acceptance criterion 7 verifies monomial ideals"
    ),
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_statement_runs(path):
    kept = {key for key in KEPT_UNREACHED if key[0] == path.name}
    unnamed, stale = unnamed_and_stale(unreached([path], executed_by_the_program()[1]), kept)
    assert not unnamed and not stale, "\n".join(
        [f"never run: {file}:{line} {function}: {text}" for file, line, function, text in unnamed]
        + [f"KEPT_UNREACHED names a statement that runs or is gone: {key}" for key in stale]
    )


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
    # called functions and of the run lines, as JSON, to the file named by
    # the one argument
    keys = executed(run_commands_demos_and_readme, SRC.resolve())
    pathlib.Path(sys.argv[1]).write_text(json.dumps([sorted(k) for k in keys]))
