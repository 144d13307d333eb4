"""The package's design rules, checked on the syntax tree, and the README's
command-line block, run as written.

``RULES`` states each rule once: its name, the files it reads and its
check.  A check takes one parsed ``Module`` and yields each violation as a
(line, what) pair.  Names are resolved through the module's imports, so
``import gc as g; g.collect()`` is ``gc.collect``, ``from numpy import
random`` is ``numpy.random``, ``getattr(np, "random")`` is the attribute
``numpy.random`` and ``importlib.import_module("numpy.random")`` imports
it.  String annotations are parsed as code; comments and docstrings are
never read.  ``test_check_on_snippet`` runs each check on snippets that
break its rule, which it must flag, and on code that keeps it, which it
must pass, so a check that matches nothing cannot pass.
"""

import ast
import builtins
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cryoreadout

PKG = Path(cryoreadout.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


class _StringAnnotations(ast.NodeTransformer):
    """Replaces each string in an annotation by the expression it holds,
    placed on the string's line."""

    def visit_Constant(self, node):
        if not isinstance(node.value, str):
            return node
        try:
            expr = ast.parse(node.value, mode="eval").body
        except SyntaxError:   # a string that is not code, as in Literal["a b"]
            return node
        ast.increment_lineno(expr, node.lineno - 1)
        return self.visit(expr)


class _ParseAnnotations(ast.NodeTransformer):
    def _annotation(self, node, field):
        self.generic_visit(node)
        annotation = getattr(node, field)
        if annotation is not None:
            setattr(node, field, _StringAnnotations().visit(annotation))
        return node

    def visit_arg(self, node):
        return self._annotation(node, "annotation")

    def visit_AnnAssign(self, node):
        return self._annotation(node, "annotation")

    def visit_FunctionDef(self, node):
        return self._annotation(node, "returns")

    visit_AsyncFunctionDef = visit_FunctionDef


class Module:
    """One parsed file: its tree with string annotations parsed, the dotted
    name each imported alias stands for, and the enclosing node of each
    node.  ``name`` is the module's dotted name; ``namespace()`` returns
    its globals, importing the package module or running a snippet."""

    def __init__(self, name, source, path, namespace):
        self.name, self.path, self.namespace = name, path, namespace
        self.tree = _ParseAnnotations().visit(ast.parse(source, str(path)))
        self.parent = {child: node for node in ast.walk(self.tree)
                       for child in ast.iter_child_nodes(node)}
        self.aliases = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    # ``import numpy.random`` binds ``numpy``
                    bound = a.asname or a.name.partition(".")[0]
                    self.aliases[bound] = a.name if a.asname else bound
            elif isinstance(node, ast.ImportFrom):
                base = _from(node)
                for a in node.names:
                    self.aliases[a.asname or a.name] = f"{base}.{a.name}"

    def inside(self, node, kinds=(ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
        while node in self.parent:
            node = self.parent[node]
            if isinstance(node, kinds):
                return True
        return False

    def dotted(self, node):
        """The dotted name a Name, an attribute chain or ``getattr(x,
        "name")`` refers to, with its imports resolved; an attribute of an
        expression with no name is ``?.attr``."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            return f"{self.dotted(node.value) or '?'}.{node.attr}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and _string(node.args[1])):
            return f"{self.dotted(node.args[0]) or '?'}.{node.args[1].value}"
        return None

    def imports(self):
        """(node, module name) for every import statement, and for every
        ``importlib.import_module`` or ``__import__`` call with a constant
        name.  ``from a import b`` imports both ``a`` and ``a.b``."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    yield node, a.name
            elif isinstance(node, ast.ImportFrom):
                base = _from(node)
                yield node, base
                for a in node.names:
                    yield node, f"{base}.{a.name}"
            elif (isinstance(node, ast.Call) and node.args
                  and _string(node.args[0])
                  and self.dotted(node.func) in ("importlib.import_module",
                                                 "__import__")):
                yield node, node.args[0].value

    def references(self):
        """(node, dotted name) for every import and every name, attribute
        and ``getattr`` with a constant name."""
        yield from self.imports()
        for node in ast.walk(self.tree):
            name = self.dotted(node)
            if name is not None:
                yield node, name


def _from(node):
    """The module of ``from ... import``; a relative one keeps its dots."""
    return "." * node.level + (node.module or "")


def _string(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _within(name, root):
    return name == root or name.startswith(root + ".")


def _last(name):
    return (name or "").rpartition(".")[2]


def _scipy_in_lockin_functions(mod):
    """scipy is imported only inside a function body of lockin.py: no
    command runs the time-domain oracle, so none loads scipy."""
    for node, name in mod.imports():
        if _within(name, "scipy") and not (mod.name == "cryoreadout.lockin"
                                           and mod.inside(node)):
            yield node.lineno, f"imports {name}"


def _no_numpy_generators(mod):
    """No numpy.random or default_rng is reached: every noisy number comes
    from cli.NormalStream, and no command loads numpy's generators."""
    for node, name in mod.references():
        if _within(name, "numpy.random") or "default_rng" in name.split("."):
            yield node.lineno, name


def _streams_built_in_cli(mod):
    """NormalStream( is called only in cli.py, which builds every stream
    from [run] seed and passes it in."""
    if mod.name == "cryoreadout.cli":
        return
    for node in ast.walk(mod.tree):
        if (isinstance(node, ast.Call)
                and _last(mod.dotted(node.func)) == "NormalStream"):
            yield node.lineno, "NormalStream("


def _rng(node):
    return ((isinstance(node, ast.Name) and node.id == "rng")
            or (isinstance(node, ast.Attribute) and node.attr == "rng"))


def _no_optional_stream(mod):
    """Every noise argument is a stream: no rng=None, no rng is (not) None
    and no rng annotation with None or Optional."""
    def optional(annotation):
        return any(_none(n) or _last(mod.dotted(n)) == "Optional"
                   for n in ast.walk(annotation))

    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = [*zip(positional[len(positional) - len(a.defaults):],
                             a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
            for arg, default in defaults:
                if arg.arg == "rng" and _none(default):
                    yield default.lineno, "rng=None"
        elif isinstance(node, ast.keyword):
            if node.arg == "rng" and _none(node.value):
                yield node.value.lineno, "rng=None"
        elif isinstance(node, ast.Assign):
            if any(map(_rng, node.targets)) and _none(node.value):
                yield node.lineno, "rng = None"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                if (_rng(left) and _none(right)) or (_none(left)
                                                     and _rng(right)):
                    yield node.lineno, "rng compared with None"
        elif isinstance(node, ast.arg):
            if node.arg == "rng" and node.annotation is not None \
                    and optional(node.annotation):
                yield node.lineno, "optional rng annotation"
        elif isinstance(node, ast.AnnAssign):
            if _rng(node.target) and optional(node.annotation):
                yield node.lineno, "optional rng annotation"


def _one_csv_writer(mod):
    """Every CSV goes through ivfit.write_csv, which sets the format in one
    place: no csv.writer, DictWriter or writerow(s)."""
    for node, name in mod.references():
        if name == "csv.writer" or _last(name) in ("DictWriter", "writerow",
                                                   "writerows"):
            yield node.lineno, name


_GC_STATE = {f"gc.{f}" for f in ("freeze", "unfreeze", "disable", "enable",
                                 "set_threshold", "collect")}


def _gc_state_in_cli(mod):
    """gc.freeze, unfreeze, disable, enable, set_threshold and collect are
    called only in cli.py: cli.run, the process entry, freezes the
    import-time heap, and every other function leaves the collector as its
    caller set it."""
    if mod.name == "cryoreadout.cli":
        return
    for node, name in mod.references():
        if name in _GC_STATE:
            yield node.lineno, name


def _escapes_main(obj):
    return (isinstance(obj, type) and issubclass(obj, BaseException)
            and not issubclass(obj, (ValueError, ArithmeticError)))


def _exceptions_map_to_exit_codes(mod):
    """Every exception class the package defines derives from ValueError
    (exit 2) or ArithmeticError (exit 3): cli.main catches those two bases,
    and any other class would escape it as a traceback.  A class bound in
    the module is read from the imported module; one nested in a function
    or a class is read from its bases, resolved in the module."""
    namespace = mod.namespace()
    lines = {node.name: node.lineno for node in ast.walk(mod.tree)
             if isinstance(node, ast.ClassDef)}
    for name, obj in namespace.items():
        if _escapes_main(obj) and obj.__module__ == namespace["__name__"]:
            bases = ", ".join(b.__name__ for b in obj.__bases__)
            yield lines.get(name, 0), f"class {name}({bases})"

    def resolve(base):
        head, *rest = ast.unparse(base).split(".")
        obj = namespace.get(head, getattr(builtins, head, None))
        for attr in rest:
            obj = getattr(obj, attr, None)
        return obj

    for node in ast.walk(mod.tree):
        if (isinstance(node, ast.ClassDef)
                and mod.inside(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                and any(_escapes_main(resolve(b)) for b in node.bases)):
            bases = ", ".join(map(ast.unparse, node.bases))
            yield node.lineno, f"class {node.name}({bases})"


def _no_errstate_around_main(mod):
    """No test calls main inside ``with ...errstate(...)``: cli.main turns
    a numpy float error into exit 3, and silencing numpy around it would
    hide a command that warns instead.  A test may still silence numpy
    around a library call."""
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                isinstance(item.context_expr, ast.Call)
                and _last(mod.dotted(item.context_expr.func)) == "errstate"
                for item in node.items):
            for inner in (n for stmt in node.body for n in ast.walk(stmt)):
                if (isinstance(inner, ast.Call)
                        and _last(mod.dotted(inner.func)) == "main"):
                    yield inner.lineno, f"main( in errstate ({node.lineno})"


# rule: (the files it reads, its check); each check's docstring states it
RULES = {
    "scipy": ("src", _scipy_in_lockin_functions),
    "numpy-generators": ("src", _no_numpy_generators),
    "noise-streams": ("src", _streams_built_in_cli),
    "no-optional-stream": ("src", _no_optional_stream),
    "one-csv-writer": ("src", _one_csv_writer),
    "gc-state": ("src", _gc_state_in_cli),
    "exception-bases": ("src", _exceptions_map_to_exit_codes),
    "no-errstate-around-main": ("tests", _no_errstate_around_main),
}


def _modules(scope):
    root = PKG if scope == "src" else TESTS
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield Module(name, path.read_text(encoding="utf-8"), path,
                     lambda name=name: vars(importlib.import_module(name)))


@pytest.mark.parametrize("rule", RULES)
def test_package_rule(rule):
    scope, check = RULES[rule]
    found = [f"{mod.path.relative_to(README.parent)}:{line}: {what}"
             for mod in _modules(scope)
             for line, what in sorted(set(check(mod)))]
    assert not found, f"{check.__doc__}\n" + "\n".join(found)


def _snippet(module, source):
    """A snippet parsed as the package module ``module`` (or as a test
    file); its namespace is the snippet run as that module."""
    name = module if module.startswith("tests.") else f"cryoreadout.{module}"

    def namespace():
        ns = {"__name__": name}
        exec(compile(source, f"<{module}>", "exec"), ns)
        return ns

    return Module(name, source, f"<{module}>", namespace)


ERRSTATE_FIVE_LINES_UP = """\
def test_wrapped(tmp_path):
    with np.errstate(all="ignore"):
        argv = ["--out", str(tmp_path), "sweep",
                "--grid", "11:12:3"]
        # main( is five lines below the errstate
        if argv:
            code = cli.main(argv)
"""

# (rule, module the snippet stands in, snippet, whether the rule flags it):
# snippets that break each rule, then code that names its subject but
# keeps it
SNIPPETS = [
    ("scipy", "chain", "from scipy.stats import linregress", True),
    ("scipy", "ivfit", "import scipy", True),
    ("scipy", "ivfit", "import numpy as np, scipy.stats", True),
    ("scipy", "ivfit", "def fit():\n    from scipy import stats", True),
    ("scipy", "ivfit", "import scipy.signal as ss", True),
    ("scipy", "lockin", "import scipy.signal", True),
    ("scipy", "lockin", "from scipy.signal import lfilter", True),
    ("scipy", "lockin",
     "import importlib\nsignal = importlib.import_module('scipy.signal')",
     True),
    ("numpy-generators", "ivfit",
     "import numpy as np\ndef synth(rng: np.random.Generator): pass", True),
    ("numpy-generators", "ivfit",
     "import numpy as np\ndef synth(rng: 'np.random.Generator'): pass", True),
    ("numpy-generators", "lockin",
     "import numpy as np\nrandom = getattr(np, 'random')", True),
    ("numpy-generators", "lockin", "from numpy import random", True),
    ("numpy-generators", "lockin",
     "import importlib\nrandom = importlib.import_module('numpy.random')",
     True),
    ("numpy-generators", "lockin", "random = __import__('numpy.random')",
     True),
    ("numpy-generators", "lockin", "from numpy.random import default_rng",
     True),
    ("noise-streams", "lockin", "from .cli import NormalStream\n"
                                "rng = NormalStream(0)", True),
    ("noise-streams", "lockin", "from . import cli\n"
                                "rng = cli.NormalStream(0)", True),
    ("no-optional-stream", "ivfit", "def synth(rng=None): pass", True),
    ("no-optional-stream", "ivfit", "def synth(*, rng=None): pass", True),
    ("no-optional-stream", "ivfit", "synth(0.0, rng=None)", True),
    ("no-optional-stream", "ivfit",
     "def synth(rng):\n    if rng is None:\n        pass", True),
    ("no-optional-stream", "ivfit",
     "def synth(rng):\n    return rng is not None", True),
    ("no-optional-stream", "ivfit", "def synth(rng: int | None): pass", True),
    ("no-optional-stream", "ivfit",
     "def synth(rng: 'NormalStream | None'): pass", True),
    ("no-optional-stream", "ivfit",
     "from typing import Optional\ndef synth(rng: Optional[int]): pass", True),
    ("one-csv-writer", "cli", "import csv\ncsv.writer(fh).writerow(['a'])",
     True),
    ("one-csv-writer", "ivfit", "import csv\nw = csv.DictWriter(fh, ['a'])",
     True),
    ("one-csv-writer", "ivfit", "from csv import writer as w", True),
    ("one-csv-writer", "ivfit", "def save(out, rows):\n"
                                "    out.writerows(rows)", True),
    ("gc-state", "lockin", "import gc\ngc.collect()", True),
    ("gc-state", "lockin", "import gc as g\ng.collect()", True),
    ("gc-state", "lockin", "from gc import disable\ndisable()", True),
    ("exception-bases", "device", "class Bad(RuntimeError): pass", True),
    ("exception-bases", "device", "class Bad(Exception): pass", True),
    ("exception-bases", "device", "class Bad(KeyError): pass", True),
    ("exception-bases", "device",
     "def f():\n    class Bad(RuntimeError): pass", True),
    ("exception-bases", "device",
     "class Outer:\n    class Bad(KeyError): pass", True),
    ("no-errstate-around-main", "tests.test_config_cli",
     ERRSTATE_FIVE_LINES_UP, True),
    ("no-errstate-around-main", "tests.test_config_cli",
     "def test_wrapped():\n"
     "    with np.errstate(all='ignore'), pytest.raises(SystemExit):\n"
     "        main(['opp'])", True),
    ("scipy", "ivfit", "import scipyx", False),
    ("numpy-generators", "cli",
     "import numpy as np\nx = np.fft.rfft  # not np.random", False),
    ("no-optional-stream", "ivfit",
     "def synth(rng, seed=None):\n    return seed is None", False),
    ("exception-bases", "device",
     "class Bad(ValueError): pass\nclass Worse(FloatingPointError): pass",
     False),
    ("exception-bases", "device",
     "def f():\n    class Fine(ValueError): pass", False),
    ("no-errstate-around-main", "tests.test_lockin",
     "def test_quiet():\n    with np.errstate(all='ignore'):\n"
     "        sweep_vbc()\n    main(['opp'])", False),
]


@pytest.mark.parametrize("rule, module, source, flagged", SNIPPETS)
def test_check_on_snippet(rule, module, source, flagged):
    found = list(RULES[rule][1](_snippet(module, source)))
    assert bool(found) == flagged, found


def _readme_command_block():
    """The first ```sh block after the ``## Command line`` heading."""
    block, state = [], "heading"
    for line in README.read_text(encoding="utf-8").splitlines():
        if state == "heading":
            state = "fence" if line.startswith("## Command line") else state
        elif state == "fence":
            state = "block" if line.startswith("```sh") else state
        elif line.startswith("```"):
            return "\n".join(block) + "\n"
        else:
            block.append(line)
    raise AssertionError("README has no ```sh block under ## Command line")


def test_readme_command_line(tmp_path):
    """The README's command-line block runs as written, under ``bash -e``
    in an empty directory: a command that fails, or that raises a numpy
    overflow or invalid-value warning (made an error), fails the test.
    ``cryoreadout`` is a shim that runs ``python -m cryoreadout.cli`` on
    this source tree."""
    script = tmp_path / "readme_cli.sh"
    script.write_text(_readme_command_block(), encoding="utf-8")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), env.get("PYTHONPATH")) if p)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "cryoreadout"
    shim.write_text("#!/bin/sh\nexec "
                    f"{shlex.quote(sys.executable)} -m cryoreadout.cli "
                    '"$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env["PATH"] = os.pathsep.join(
        p for p in (str(bin_dir), env.get("PATH")) if p)
    work = tmp_path / "work"
    work.mkdir()
    proc = subprocess.run(["bash", "-e", str(script)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
