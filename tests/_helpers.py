"""Shared generators for the test suite."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

from minaff import affinization, weyl
from minaff.weyl import affine_edges
from _ring_oracle import CharElem

SRC = Path(__file__).resolve().parent.parent / "src"


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


def rand_dominant(n, rng, span=3):
    return tuple(rng.randint(0, span) for _ in range(n))


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
    """Make ``weyl.longest_word`` repeat the last letter of w0's word, so
    the composite behind the nested formula cancels and comes out short;
    clears the cached nesting check so it runs again."""
    real = weyl.longest_word

    def repeated_last_letter(n):
        w = real(n)
        return weyl.ExtendedWeylWord(n, w.tau, w.word + w.word[-1:])

    monkeypatch.setattr(weyl, "longest_word", repeated_last_letter)
    affinization._assert_nesting_legal.cache_clear()


def minaff_imports(module):
    """Names of the minaff modules a module imports, anywhere in its body."""
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
                out.update(a.name for a in node.names)
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


def run_fresh(*args):
    """Run the interpreter on ``args`` in a fresh process, with minaff from
    ``src`` and this process's optimization level; returns the completed
    process, output as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    argv = [sys.executable, *["-O"] * sys.flags.optimize, *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
