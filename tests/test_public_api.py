"""The public list: ``oufar.__all__`` names each export once, and a star import binds it.

A block of a path is a path on its own ``TimeGrid``: ``FunctionalSegment`` is ``SamplePath``.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oufar
from oufar import DomainError, FunctionalSegment, OuParams, SamplePath, TimeGrid


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


def test_segment_grid_is_gone():
    assert "SegmentGrid" not in oufar.__all__
    assert not hasattr(oufar.functional, "SegmentGrid")


def test_a_block_is_a_sample_path():
    assert oufar.FunctionalSegment is oufar.SamplePath
    assert oufar.functional.FunctionalSegment is oufar.ou_process.SamplePath
    assert not hasattr(oufar.ou_process, "grid_values")


def test_a_sample_path_is_its_grid_and_values():
    assert [f.name for f in dataclasses.fields(SamplePath)] == ["grid", "values"]
    path = oufar.sample_euler(OuParams(theta=1.0), TimeGrid(1.0, 0.5), np.random.default_rng(3))
    assert type(path) is SamplePath and path.end_value == path.values[-1]


def test_blocks_are_on_a_time_grid():
    grid = TimeGrid(t_end=10.0, dt=0.02)
    path = oufar.sample_exact(OuParams(theta=1.0), grid, np.random.default_rng(3))
    for h, m in ((0.02, 1), (0.5, 25), (1.0, 50), (10.0, 500)):
        blocks = oufar.segment_path(path, h)
        assert len(blocks) == grid.n_steps // m
        for block in blocks:
            assert type(block.grid) is TimeGrid
            assert (block.grid.t_end, block.grid.n_steps, block.grid.dt) == (h, m, h / m)


@settings(max_examples=200)
@given(h=st.floats(1e-300, 1e300), m=st.integers(1, 10**6))
@example(h=1.0, m=3)
def test_block_grid_nodes_are_multiples_of_the_step(h, m):
    grid = TimeGrid(t_end=h, dt=h / m)
    assert grid.n_steps == m
    assert grid.times().tobytes() == (np.arange(m + 1) * (h / m)).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_raise_domain_error(bad):
    values = np.zeros(5)
    values[2] = bad
    grid = TimeGrid(t_end=1.0, dt=0.25)
    with pytest.raises(DomainError, match="path values must be finite"):
        FunctionalSegment(grid=grid, values=values)
    with pytest.raises(DomainError, match="path values must be finite"):
        SamplePath(grid=grid, values=values)
