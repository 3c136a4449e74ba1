import os
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from scipy import ndimage

from meancurv import ShapeSpec, make_grid, msolve, sample_function
from meancurv.field import DomainMask


# CI runs the property tests under this profile (HYPOTHESIS_PROFILE=ci):
# no per-example deadline on a slow runner, and a reproduction blob on failure
settings.register_profile("ci", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def cone_formula(p):
    if p.shape[1] == 1:
        return np.abs(p[:, 0])
    return np.hypot(p[:, 0], p[:, 1])


def hemisphere_formula(R):
    def hemi(p):
        return -np.sqrt(R * R - (p ** 2).sum(axis=1))
    return hemi


@contextmanager
def plan_builds():
    """Count the Newton plans built in the block: ``built()`` is the count."""
    built = []
    init = msolve._NewtonPlan.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    with mock.patch.object(msolve._NewtonPlan, "__init__", counted):
        yield lambda: len(built)


@contextmanager
def calls_to(name):
    """Count the calls of ``msolve.<name>`` in the block: ``count()`` is the count."""
    fn, calls = getattr(msolve, name), []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    with mock.patch.object(msolve, name, counted):
        yield lambda: len(calls)


def traced_peak(fn):
    """``fn()`` and the peak of its traced allocations (numpy's data
    included) above those live at the call, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def unit_disk_64():
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
    return grid, mask


@pytest.fixture(scope="session")
def face_layer_disk_64(unit_disk_64):
    """The unit disk with only the face-adjacent boundary layer.

    make_grid's boundary is the full 8-adjacent layer, which holds the ring
    of every ball; with this thinner layer a ball reaching the domain
    boundary has ring cells that carry no data.
    """
    grid, mask = unit_disk_64
    faces = ndimage.binary_dilation(mask.interior) & ~mask.interior
    return grid, DomainMask(grid=grid, shape=mask.shape, interior=mask.interior,
                            boundary=faces)


@pytest.fixture(scope="session")
def cone_64(unit_disk_64):
    grid, mask = unit_disk_64
    return sample_function(cone_formula, grid, mask)


@pytest.fixture(scope="session")
def interval_100():
    grid, mask = make_grid(ShapeSpec.interval(-1.0, 1.0), 100)
    return grid, mask
