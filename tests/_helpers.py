"""Shared generators for the test suite."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

from minaff import polyring
from minaff.verify import affine_edges
from _ring_oracle import CharElem

SRC = Path(__file__).resolve().parent.parent / "src"
BENCHMARK_DIGESTS = SRC.parent / "perfbench" / "expected.json"


def rand_key(n, rng, span=2):
    """A key (a_1, ..., a_n, level, 2 delta): coordinates in -span..span, a
    level in 0..2 and a delta in -1..1."""
    finite = tuple(rng.randint(-span, span) for _ in range(n))
    return finite + (rng.randint(0, 2), 2 * rng.randint(-1, 1))


def rand_char(n, rng, maxterms=50):
    terms = {}
    for _ in range(rng.randint(1, maxterms)):
        terms[rand_key(n, rng)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return CharElem(n, terms)


def seeded(seed):
    return random.Random(seed)


def braid_variant(word, n, rng):
    """Another word of the same element: up to 40 random commutation
    (ab -> ba, a and b not joined in the affine diagram) and braid
    (aba -> bab, a and b joined) moves."""
    joined = {frozenset(e) for e in affine_edges(n)}
    w = list(word)
    for _ in range(40):
        if len(w) < 2:
            break
        i = rng.randrange(len(w) - 1)
        a, b = w[i], w[i + 1]
        if a == b:
            continue
        if frozenset((a, b)) not in joined:
            w[i], w[i + 1] = b, a
        elif i + 2 < len(w) and w[i + 2] == a:
            w[i], w[i + 1], w[i + 2] = b, a, b
    return tuple(w)


def break_longest_word(monkeypatch):
    """Make ``polyring._w0_letters`` repeat the last letter of w0's word, so
    the composite behind the nested formula cancels and comes out short,
    which ``verify --suite weyl`` reports as a failed length additivity."""
    real = polyring._w0_letters
    monkeypatch.setattr(polyring, "_w0_letters", lambda n: real(n) + real(n)[-1:])


def source_mutant(module, name, old, new):
    """The function ``name`` of ``module`` with ``old`` replaced by ``new``
    in its source; ``old`` must occur there exactly once."""
    source = inspect.getsource(getattr(module, name))
    if source.count(old) != 1:
        raise ValueError(f"{old!r} occurs {source.count(old)} times in {name}")
    scope = {}
    exec(source.replace(old, new), vars(module), scope)
    return scope[name]


def minaff_imports(module):
    """Names of the minaff modules a module imports, anywhere in its body.
    ``from . import X`` counts X only when it is a submodule, not a name
    defined in the package root such as an exception type."""
    package = Path(module.__file__).parent
    out = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "minaff" and not name.startswith("minaff."):
                    continue
                name = name[len("minaff.") :]
            if name:
                out.add(name.split(".")[0])
            else:
                out.update(a.name for a in node.names if (package / f"{a.name}.py").is_file())
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("minaff."))
    return out


def imported_names(module, source):
    """Names that ``module`` imports from the minaff module ``source``."""
    return {
        a.name
        for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
        for a in node.names
    }


def fresh_argv(*args):
    """The interpreter command line for ``args``, at this process's
    optimization level."""
    return [sys.executable, *["-O"] * sys.flags.optimize, *args]


def fresh_env():
    """This process's environment, with minaff importable from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_fresh(*args):
    """Run the interpreter on ``args`` in a fresh process, with minaff from
    ``src`` and this process's optimization level; returns the completed
    process, output as text."""
    return subprocess.run(
        fresh_argv(*args), capture_output=True, text=True, env=fresh_env(), timeout=300
    )


def benchmark_lines():
    """The argument lists of the benchmark's 12 table cases."""
    return [key.split(" ") for key in json.loads(BENCHMARK_DIGESTS.read_text())["cli"]]


# A fresh process runs command lines through cli.run under a profiler and
# prints the (first line, name) of every code object of one minaff module
# that was called.
CODE_CALLED = """
import contextlib, importlib, io, json, sys
from minaff import cli
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))
sys.setprofile(profile)
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.run(argv) != 0:
            sys.exit(1)
sys.setprofile(None)
path = importlib.import_module("minaff." + sys.argv[1]).__file__
print(json.dumps(sorted([line, name] for file, line, name in called if file == path)))
"""


def code_objects(code, qualname=""):
    """Every code object nested in ``code``, with its qualified name."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = f"{qualname}.<locals>.{const.co_name}" if qualname else const.co_name
            yield name, const
            yield from code_objects(const, name)


def uncalled_code(module, argvs):
    """Qualified names of the code objects of the minaff ``module`` (nested
    functions and comprehensions included) that a fresh process running
    every command line of ``argvs`` never calls."""
    name = module.__name__.rpartition(".")[2]
    proc = run_fresh("-c", CODE_CALLED, name, json.dumps(argvs))
    if proc.returncode:
        raise RuntimeError(proc.stderr)
    called = {tuple(entry) for entry in json.loads(proc.stdout)}
    with open(module.__file__) as f:
        compiled = compile(f.read(), module.__file__, "exec")
    return {
        name
        for name, code in code_objects(compiled)
        if (code.co_firstlineno, code.co_name) not in called
    }
