"""The package surface: lazily resolved exports and the immutable records."""

import ast
import sys
import types
from pathlib import Path

import pytest

import minaff
from minaff import InputError
from minaff.affinization import XiSequence, _lambda_keys, xi_sequence
from minaff.cli_extra import drinfeld

# The documented surface: the README's library example, what the command
# line prints from and the three exceptions.
SURFACE = {
    "CharacterError", "InputError", "VerificationError", "XiSequence", "character",
    "compare_affinization", "dim_irr", "drinfeld", "is_regular", "multiplicity_table",
    "partition_of", "resolve_family", "sam_table", "varpi", "xi_sequence",
}
# The Weyl group as words: the tests keep it in _weyl_oracle, verify runs
# on (prefix, letters) pairs, and the package exports none of it.
WORD_API = (
    "ExtendedWeylWord act bilinear compose from_word inverse length longest_word "
    "reduce_word same_element sigma_word simple tau_01 tau_fork"
).split()
# Wrappers that nothing in the package called; the tests use their cores.
REMOVED = {
    "lambda_sequence": "affinization", "straighten": "affinization", "dominates": "weyl",
    "is_dominant": "weyl", "identity": "weyl", "iota": "spbranch",
    "lr_coefficient": "spbranch", "sp_dim_irr": "spbranch", "sp_branch": "spbranch",
    "schur_dim": "spbranch", "_check_partition": "spbranch", "support": "cartan",
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from minaff import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(minaff.__all__)
    assert minaff.__all__ == sorted(SURFACE)


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_wrappers_stay_gone(name):
    assert not hasattr(getattr(minaff, REMOVED[name]), name)
    with pytest.raises(AttributeError):
        getattr(minaff, name)


def test_the_word_api_is_gone():
    assert len(minaff.__all__) == 15
    for name in [*WORD_API, "words"]:
        with pytest.raises(AttributeError):
            getattr(minaff, name)
    assert not (Path(minaff.__file__).parent / "words.py").exists()


EXCEPTIONS = ("CharacterError", "InputError", "VerificationError")


def test_each_export_is_the_attribute_of_its_defining_module():
    for name in minaff.__all__:
        value = getattr(minaff, name)
        if name in EXCEPTIONS:
            assert value.__module__ == "minaff", name
            assert name in vars(minaff) and name not in minaff._EXPORTS, name
            continue
        assert value.__module__.startswith("minaff."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert not hasattr(minaff, "errors")
    assert not (Path(minaff.__file__).parent / "errors.py").exists()
    assert minaff.dim_irr is minaff.cartan.dim_irr
    assert minaff.resolve_family is minaff.affinization.resolve_family
    assert minaff.character is minaff.polyring.character


@pytest.mark.parametrize(
    "directory, pattern",
    [
        pytest.param(Path(minaff.__file__).parent, "*.py", id="runtime"),
        pytest.param(Path(__file__).resolve().parent, "_*.py", id="oracle"),
    ],
)
def test_no_assert_statement_in_runtime_or_oracle_code(directory, pattern):
    # invariants raise typed errors, which ``python -O`` keeps; a plain
    # assert there would be stripped.  Test modules may assert: pytest
    # rewrites theirs.
    files = list(directory.glob(pattern))
    assert len(files) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_dir_submodules_and_unknown_names():
    assert set(dir(minaff)) >= set(minaff.__all__)
    assert isinstance(minaff.weyl, types.ModuleType)
    assert minaff.weyl is sys.modules["minaff.weyl"]
    # no export comes from the key kernel, so it is listed as a submodule
    assert "weyl" in minaff._SUBMODULES and "weyl" not in minaff._EXPORTS.values()
    assert isinstance(minaff.verify, types.ModuleType)
    assert minaff.verify is sys.modules["minaff.verify"]
    assert minaff.cli is sys.modules["minaff.cli"]
    with pytest.raises(AttributeError):
        minaff.nope
    with pytest.raises(ImportError):
        exec("from minaff import nope", {})


def test_records_refuse_assignment():
    n, lam = 5, (1, 1, 0, 2, 0)
    xs = xi_sequence(n, lam, "n")
    records = (xs, _lambda_keys(n, xs.keys), drinfeld(n, lam, "n"))
    for record in records:
        with pytest.raises(AttributeError):
            record.n = 0
        with pytest.raises(AttributeError):
            record.extra = 0


def test_xi_sequence_bookkeeping_defaults_to_none():
    xs = XiSequence(5, 5, (1, 1, 0, 2, 0), ())
    assert (xs.m, xs.m_prime, xs.cut, xs.lambda_bar) == (None, None, None, None)


# Bad data for every exported function that takes a rank, a weight, a node,
# a family label or a multiplicity: a bool, a float, a short or long tuple,
# rank 3, a node out of range, a multiplicity that is not an int or is
# negative, a weight that is not dominant, a label that names no family.
# Each is refused with InputError, not a TypeError or IndexError from deeper
# down, and not run.  The exports that reach the cores of the removed
# wrappers (``dim_irr`` for the dominance order, ``compare_affinization``
# for straightening, ``partition_of`` and ``sam_table`` for the symplectic
# fold and branching, ``xi_sequence`` for the lambda keys) carry those
# wrappers' cases.
BAD_INPUT = {
    "character": [(4, (0, 1, 0, 0.0), 1), (4, (0, 1, 0), 1), (3, (0, 1, 0), 1),
                  (4, (0, 1, 0, 0), True)],
    "compare_affinization": [(4, {(1, 0, 0, 0): 1.5}, {(1, 0, 0, 0): 1}),
                             (4, {(1, 0, 0, 0): 1}, {(1, 0, 0, 0): True}),
                             (4, {(1, 0, 0, 0): 1}, {(1, 0, 0, 0, 0): 1}),
                             (3, {(1, 0, 0): 1}, {(1, 0, 0): 1}),
                             (4, {(0, 0, 0, 0): 2.0}, {(0, 0, 0, 0): 1}),
                             (4, {(True, 0, 0, 0): 1}, {(0, 0, 0, 0): 1}),
                             (4, {(0, 0, 0, 0): 1}, {(0, 0, 0.0, 0): 1}),
                             (4, {(0, 0, 0, 0, 0, 0): 1}, {(0, 0, 0, 0): 1}),
                             (4, {(1, 0, 0): 1}, {(1, 0, 0, 0): 1}),
                             (4, {(0, 1, 0, 0): 1, (0, 0, 0, 0): -1}, {(0, 1, 0, 0): 1}),
                             (4, {(1, 0, 0, 0): 1, (-1, 0, 0, 0): 1}, {(1, 0, 0, 0): 1})],
    "dim_irr": [(4, (1, 0, 0, True)), (4, (1, 0, 0)), (3, (0, 0, 0)), (4, (1, 0, 0, 0, 99)),
                (4, (1.0, 0, 0, 0))],
    "drinfeld": [(4, (1, 1, 0, 0), 1, 1.0), (4, (1, 1, 0, 0.0), 1), (4, (1, 1, 0, 0), True),
                 (3, (1, 1, 0), 1)],
    "is_regular": [(4, (1, 0, 0, 0.5)), (4, (1, 0, 0, 0, 0)), (3, (1, 0, 0))],
    "multiplicity_table": [(4, (0, 1, 0, 0.0), 1), (4, (0, 1, 0, 0, 0), 1), (3, (0, 1, 0), 1),
                           (4, (0, 1, 0, 0), 1.0)],
    "partition_of": [((1.0, 0),), ((True,),), ((0, 0, True),), ((-1, 0),)],
    "resolve_family": [(4, True), (4, 1.0), (4, 2), (3, 1)],
    "sam_table": [(4, (0, 0, 1, 1.0)), (4, (0, 0, 1)), (3, (0, 1, 1)), (4, (1, 0, 0, 0.5)),
                  (4, (0, 0, -1, 0))],
    "varpi": [(4, 1.0), (4, True), (4, 5), (3, 1)],
    "xi_sequence": [(5, (1, 1, 0, 2, 0.5), 5), (5, (1, 1, 0, 2, 0, 0), 5), (3, (1, 1, 0), 1),
                    (5, (1, 1, 0, 2, 0.0), 5), (5, (1, 1, 0, 2), 5), (5, (1, 1, 0, 2, 0), 2),
                    (4, (1, 0, -1, 0), 1)],
}
# A record that checks nothing (``xi_sequence`` builds it from checked input).
NO_RAW_INPUT = {"XiSequence"}


def test_the_boundary_cases_cover_every_export():
    exported = set(minaff.__all__) - set(EXCEPTIONS)
    assert set(BAD_INPUT) == exported - NO_RAW_INPUT


@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param(name, args, id=f"{name}-{k}")
        for name, cases in BAD_INPUT.items()
        for k, args in enumerate(cases)
    ],
)
def test_every_export_refuses_bad_input(name, args):
    with pytest.raises(InputError):
        getattr(minaff, name)(*args)
