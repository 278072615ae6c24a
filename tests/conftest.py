import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcapa
from lcapa.quadrature import build_grid, channel_matrix, gram_pair
from lcapa.scene import sample_scene


@pytest.fixture(scope="session")
def seed1_scene():
    return sample_scene(seed=1, num_users=4)


@pytest.fixture(scope="session")
def seed1_grid256(seed1_scene):
    return build_grid(seed1_scene.aperture, 256)


@pytest.fixture(scope="session")
def seed1_channels(seed1_scene, seed1_grid256):
    return channel_matrix(seed1_scene, seed1_grid256)


@pytest.fixture(scope="session")
def seed1_grams(seed1_channels, seed1_grid256):
    return gram_pair(seed1_channels.h, seed1_grid256.cell_area)


def random_weights(rng, num_users, scale=1.0):
    return scale * (rng.standard_normal((num_users, num_users))
                    + 1j * rng.standard_normal((num_users, num_users)))


def all_permutations(k):
    import itertools

    mats = []
    for perm in itertools.permutations(range(k)):
        p = np.zeros((k, k))
        p[list(perm), range(k)] = 1.0
        mats.append(p)
    return mats


def cpu_umath():
    """numpy's compiled umath module, which reports the CPU dispatch targets."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        try:
            from numpy.core import _multiarray_umath
        except ImportError:
            return None
    return _multiarray_umath


def cpu_dispatch_targets():
    """Every CPU feature numpy can dispatch to; NPY_DISABLE_CPU_FEATURES takes them."""
    return list(getattr(cpu_umath(), "__cpu_dispatch__", None) or [])


def assert_passes_without_dispatch(module, call):
    """Run ``module.call`` in a fresh interpreter with every dispatch target off.

    ``module`` is a test module in this directory and ``call`` an expression
    on it, such as ``"_check()"``; it must finish without raising.
    """
    disabled = " ".join(cpu_dispatch_targets())
    tests_dir = str(Path(__file__).resolve().parent)
    src = str(Path(lcapa.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = (f"import sys; sys.path.insert(0, {tests_dir!r}); "
              f"import {module}; {module}.{call}")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, (
        f"with NPY_DISABLE_CPU_FEATURES={disabled!r}:\n{run.stderr}")
