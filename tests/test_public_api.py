"""The public list: ``oufar.__all__`` names each export once, and a star import binds it."""

import inspect

import oufar


def test_every_public_name_resolves_once():
    assert len(set(oufar.__all__)) == len(oufar.__all__)
    missing = [name for name in oufar.__all__ if not hasattr(oufar, name)]
    assert missing == []


def test_star_import_binds_exactly_the_list():
    namespace = {}
    exec("from oufar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(oufar.__all__)


def test_rho_power_is_a_function_of_rate_power_and_segment():
    assert list(inspect.signature(oufar.apply_rho_power).parameters) == ["theta", "k", "x"]
    assert list(inspect.signature(oufar.h_norm).parameters) == ["seg"]
    assert not any(hasattr(oufar.functional, name) for name in ("RhoOperator", "apply_rho"))
