"""Multi-user current-distribution learning on continuous-aperture arrays.

The aperture integrals reduce to one K x K coupling Gram per scene; powers,
couplings, the spectral efficiency and the policy loss are all functions of
the user positions, that Gram and the weight matrix.  The package provides,
in layers:

* :mod:`lcapa.scene` -- problem instances: aperture geometry, user placement,
  physical constants, and the line-of-sight channel response.
* :mod:`lcapa.quadrature` -- midpoint discretization of the aperture, sampled
  channel matrices, the coupling Gram, and the powers and couplings it
  gives.
* :mod:`lcapa.objective` -- SINR and spectral efficiency, for one scene or
  a stack, the policy loss and its gradient, and power projection.
* :mod:`lcapa.wmmse` -- the discretized WMMSE precoding baseline, run on the
  coupling Gram, with current weights in closed form.
* :mod:`lcapa.gnn` -- the permutation-equivariant vertex+edge graph network
  with exact reverse-mode gradients.
* :mod:`lcapa.heads` -- its PolicyNet / ProjNet / ValueNet instantiations:
  feature packing, output scaling, and the gradients through them.
* :mod:`lcapa.optim` -- the Adam optimizer.
* :mod:`lcapa.training` -- scene pools and stacked supervised datasets, one
  epoch loop that fits the two surrogates supervised and then the policy
  unsupervised through one policy chain, whose surrogate and analytic modes
  differ only in its two integral maps (ProjNet and ValueNet, or the exact
  Gram forms), exact policy evaluation, checkpoints.
* :mod:`lcapa.experiments` -- paired sweep/timing experiment runner with
  reproducible CSV outputs.
* :mod:`lcapa.cli` -- the ``lcapa`` command-line front end.

The package namespace re-exports the scene, quadrature and objective layers
(``__all__``); import the other modules directly.  The test oracles (the
pointwise integrals, the continuous current reconstruction and the
in-subspace dominance check) live with the tests, in ``tests/oracles.py``.

Importing the package sets one process-wide allocator policy.  On glibc it
raises ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD`` to 32 MiB (glibc's own
64-bit ceiling for its dynamic mmap threshold) through ``mallopt``.  Without
it, glibc hands every freed block of a few hundred KiB back to the kernel,
so each GNN forward and backward call page-faults its full-size edge, cache
and gradient arrays in afresh (about a thousand minor faults a call at
N=64, K=4, H=64); with it, a freed block stays in the heap and the next call
reuses it.  The largest per-call GNN array (8 MiB at K=16, N=64, H=64) stays
below the threshold.  Other C libraries are left alone.  The policy decides
only where memory comes from, so it changes no result.
"""

__version__ = "0.1.0"

from .scene import (
    ApertureSpec,
    PhysicalConstants,
    Scene,
    SceneGeometryError,
    channel_response,
    noise_variance,
    sample_scene,
    spherical_to_cartesian,
    square_aperture,
)
from .quadrature import (
    ApertureGrid,
    ChannelMatrix,
    GramPair,
    build_grid,
    channel_matrix,
    gram_pair,
    integral_couplings,
    integral_power,
)
from .objective import (
    DegenerateProjectionError,
    SeReport,
    project_weights,
    sinr_vector,
    sum_se,
)

__all__ = [
    "ApertureSpec",
    "PhysicalConstants",
    "Scene",
    "SceneGeometryError",
    "channel_response",
    "noise_variance",
    "sample_scene",
    "spherical_to_cartesian",
    "square_aperture",
    "ApertureGrid",
    "ChannelMatrix",
    "GramPair",
    "build_grid",
    "channel_matrix",
    "gram_pair",
    "integral_couplings",
    "integral_power",
    "DegenerateProjectionError",
    "SeReport",
    "project_weights",
    "sinr_vector",
    "sum_se",
    "__version__",
]


def _keep_freed_blocks_in_heap() -> None:
    """Stop glibc returning freed blocks below 32 MiB to the kernel."""
    import ctypes
    import os

    if os.name != "posix":
        return
    libc = ctypes.CDLL(None)
    # the parameter numbers below are glibc's; other libcs number them apart
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    threshold = 32 * 1024 * 1024
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(m_mmap_threshold, threshold)
    mallopt(m_trim_threshold, threshold)


_keep_freed_blocks_in_heap()
