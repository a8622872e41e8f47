"""The package surface: lazily resolved exports and the immutable records."""

import sys
import types

import pytest

import minaff
from minaff import InputError
from minaff.affinization import XiSequence, lambda_sequence, xi_sequence
from minaff.cli_extra import drinfeld
from minaff.weyl import ExtendedWeylWord, identity


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from minaff import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(minaff.__all__)
    assert len(minaff.__all__) == 39
    assert not {"positive_roots", "delta_plus_s", "sam_mult"} & set(minaff.__all__)
    assert not {"AffineWeight", "lambda0", "pairing"} & set(minaff.__all__)
    assert not {"DecompositionTable", "decompose", "irr_character"} & set(minaff.__all__)
    assert "CharElem" not in minaff.__all__
    assert not {"LambdaSequence", "DrinfeldSpec"} & set(minaff.__all__)
    assert "character_mass" not in minaff.__all__
    assert "orbit_size" not in minaff.__all__


def test_each_export_is_the_attribute_of_its_defining_module():
    for name in minaff.__all__:
        value = getattr(minaff, name)
        assert value.__module__.startswith("minaff."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert minaff.dim_irr is minaff.cartan.dim_irr
    assert minaff.resolve_family is minaff.affinization.resolve_family
    assert minaff.character is minaff.polyring.character


def test_dir_submodules_and_unknown_names():
    assert set(dir(minaff)) >= set(minaff.__all__)
    assert isinstance(minaff.weyl, types.ModuleType)
    assert minaff.weyl is sys.modules["minaff.weyl"]
    assert minaff.cli is sys.modules["minaff.cli"]
    with pytest.raises(AttributeError):
        minaff.nope
    with pytest.raises(ImportError):
        exec("from minaff import nope", {})


def test_records_refuse_assignment():
    n, lam = 5, (1, 1, 0, 2, 0)
    records = (
        identity(4),
        xi_sequence(n, lam, "n"),
        lambda_sequence(n, lam, "n"),
        drinfeld(n, lam, "n"),
    )
    for record in records:
        with pytest.raises(AttributeError):
            record.n = 0
        with pytest.raises(AttributeError):
            record.extra = 0


def test_xi_sequence_bookkeeping_defaults_to_none():
    xs = XiSequence(5, 5, (1, 1, 0, 2, 0), ())
    assert (xs.m, xs.m_prime, xs.cut, xs.lambda_bar) == (None, None, None, None)


def test_extended_weyl_word_checks_every_construction():
    bad = (0, 2, 1, 3, 4)
    with pytest.raises(InputError):
        ExtendedWeylWord(4, bad, ())
    with pytest.raises(InputError):
        ExtendedWeylWord(n=4, tau=bad, word=())
    with pytest.raises(InputError):
        ExtendedWeylWord(n=4, tau=tuple(range(5)), word=(5,))
    with pytest.raises(InputError):
        identity(4)._replace(tau=bad)
    assert identity(4)._replace(word=(1, 2)) == ExtendedWeylWord(4, tuple(range(5)), (1, 2))
    assert repr(identity(4)) == "ExtendedWeylWord(n=4, tau=(0, 1, 2, 3, 4), word=())"
