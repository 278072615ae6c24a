"""Multi-user current-distribution learning on continuous-aperture arrays.

The aperture integrals reduce to one K x K coupling Gram per scene; powers,
couplings, the spectral efficiency and the policy loss are all functions of
the user positions, that Gram and the weight matrix.  The package provides,
in layers:

* :mod:`lcapa.scene` -- problem instances: aperture geometry, user placement,
  physical constants, and the line-of-sight channel response.
* :mod:`lcapa.quadrature` -- midpoint discretization of the aperture, sampled
  channel matrices, the coupling Gram, and the Gram / pointwise integral
  oracles.
* :mod:`lcapa.objective` -- SINR and spectral-efficiency evaluation, power
  projection, current reconstruction, and the in-subspace dominance check.
* :mod:`lcapa.wmmse` -- the discretized WMMSE precoding baseline and the
  least-squares lift back onto the channel subspace.
* :mod:`lcapa.gnn` -- the permutation-equivariant vertex+edge graph network
  with exact reverse-mode gradients.
* :mod:`lcapa.heads` -- its PolicyNet / ProjNet / ValueNet instantiations:
  feature packing, output scaling, and the gradients through them.
* :mod:`lcapa.optim` -- the Adam optimizer.
* :mod:`lcapa.training` -- scene pools and supervised datasets, surrogate
  training, unsupervised policy training (surrogate and analytic chains),
  exact policy evaluation, gradient checking, checkpoints.
* :mod:`lcapa.experiments` -- paired sweep/timing experiment runner with
  reproducible CSV outputs.
* :mod:`lcapa.cli` -- the ``lcapa`` command-line front end.

The package namespace re-exports the scene, quadrature and objective layers
(``__all__``); import the other modules directly.

Three of those exports are test oracles, not pipeline stages: no training,
baseline, experiment or CLI path calls them.  Each reaches a result by a
route independent of the Gram-domain code, so the tests can check it:

* :func:`~lcapa.quadrature.direct_integral_check` -- powers and couplings
  summed pointwise over the grid, against the Gram route;
* :func:`~lcapa.objective.reconstruct_current` -- the continuous current
  distributions V_k(r) = sum_j a_jk H_j(r) of a weight matrix;
* :func:`~lcapa.objective.subspace_improvement_check` -- the SE of a
  solution with an out-of-subspace component against its rescaled
  in-subspace part, which must score higher.
"""

__version__ = "0.1.0"

from .scene import (
    ApertureSpec,
    PhysicalConstants,
    Scene,
    SceneGeometryError,
    Region,
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
    direct_integral_check,
    gram_pair,
    integral_couplings,
    integral_power,
    quadrature_convergence,
)
from .objective import (
    DegenerateProjectionError,
    SeReport,
    project_weights,
    reconstruct_current,
    sinr_vector,
    subspace_improvement_check,
    sum_se,
)

__all__ = [
    "ApertureSpec",
    "PhysicalConstants",
    "Scene",
    "SceneGeometryError",
    "Region",
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
    "direct_integral_check",
    "gram_pair",
    "integral_couplings",
    "integral_power",
    "quadrature_convergence",
    "DegenerateProjectionError",
    "SeReport",
    "project_weights",
    "reconstruct_current",
    "sinr_vector",
    "subspace_improvement_check",
    "sum_se",
    "__version__",
]
