import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
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


def traced_peak_bytes(fn):
    """The peak bytes that ``tracemalloc`` traces while ``fn()`` runs, above
    what was traced when it started; numpy reports its array buffers to it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


_TESTS_DIR = str(Path(__file__).resolve().parent)


def _child_env(**overrides):
    """The environment of a child interpreter that imports ``lcapa`` from the
    same source tree as this one."""
    src = str(Path(lcapa.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_in_fresh_interpreter(module, call):
    """Evaluate ``module.call`` in a fresh interpreter; return the finished run.

    ``module`` is a test module in this directory and ``call`` an expression
    on it, such as ``"_check()"``.
    """
    script = (f"import sys; sys.path.insert(0, {_TESTS_DIR!r}); "
              f"import {module}; {module}.{call}")
    return subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True)


# The worker of the ``no_dispatch`` fixture: it runs one check per request
# line ({"module": ..., "call": ...}) and answers one JSON line per check.
# Anything a check prints goes to stderr, so it cannot garble the replies.
_NO_DISPATCH_WORKER = """
import json, sys, traceback
sys.path.insert(0, {tests_dir!r})
replies, sys.stdout = sys.stdout, sys.stderr
for line in sys.stdin:
    request = json.loads(line)
    try:
        module = __import__(request["module"])
        value = eval(request["module"] + "." + request["call"],
                     {{request["module"]: module}})
        reply = {{"ok": True, "value": None if value is None else str(value)}}
    except Exception:
        reply = {{"ok": False, "error": traceback.format_exc()}}
    replies.write(json.dumps(reply) + "\\n")
    replies.flush()
"""


class NoDispatchWorker:
    """One interpreter, with every numpy SIMD dispatch target disabled, that
    runs test checks on request, so the interpreter start and the imports
    are paid once for all of them."""

    def __init__(self):
        self.disabled = " ".join(cpu_dispatch_targets())
        self._stderr = tempfile.TemporaryFile()
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _NO_DISPATCH_WORKER.format(tests_dir=_TESTS_DIR)],
            env=_child_env(NPY_DISABLE_CPU_FEATURES=self.disabled),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True)

    def __call__(self, module, call):
        """Evaluate ``module.call`` there; return ``str`` of its value (None
        for None), or fail with its traceback."""
        self._proc.stdin.write(json.dumps({"module": module, "call": call}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            self._stderr.seek(0)
            raise AssertionError(f"the no-dispatch worker died:\n"
                                 f"{self._stderr.read().decode(errors='replace')}")
        reply = json.loads(line)
        assert reply["ok"], (f"with NPY_DISABLE_CPU_FEATURES={self.disabled!r}:\n"
                             f"{reply['error']}")
        return reply["value"]

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()


@pytest.fixture(scope="session")
def no_dispatch():
    """Runs ``no_dispatch(module, call)`` checks in one shared interpreter
    with every SIMD dispatch target disabled (see :class:`NoDispatchWorker`)."""
    worker = NoDispatchWorker()
    yield worker
    worker.close()
