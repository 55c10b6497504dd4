"""The product of unit spheres: the d = 1 names of the frame geometry.

Points are n x k matrices with unit rows; the objective is the quadratic
form <sigma, A sigma>.  Tangent vectors have each row orthogonal to the
matching row of the base point, and the retraction normalizes the rows of
sigma + t*u.  Every operation is the d = 1 case of ``stiefel``, which runs
the row kernels and the unit-row tolerance there; this module only keeps
the MaxCut names.  Like the Orthogonal-Cut names at d = 1, these accept a
matrix with any block structure; ``HessianOperator`` is ``OcHessianOperator``.
"""

from __future__ import annotations

from .stiefel import (
    OcHessianOperator as HessianOperator,
    StiefelConfig as SphereConfig,
    StiefelTangent as TangentField,
    oc_gradient as gradient,
    oc_objective as objective,
    oc_project_tangent as project_tangent,
    oc_random_config,
    oc_random_tangent as random_tangent,
    oc_retract as retract,
    read_config,
    write_config,
)

__all__ = [
    "SphereConfig",
    "TangentField",
    "HessianOperator",
    "project_tangent",
    "retract",
    "gradient",
    "hessian_apply",
    "rayleigh",
    "random_config",
    "random_tangent",
    "objective",
    "save_config",
    "load_config",
]


hessian_apply = HessianOperator.apply
rayleigh = HessianOperator.rayleigh


def random_config(n: int, k: int, seed) -> SphereConfig:
    """Rows drawn uniformly on the sphere (normalized Gaussians); deterministic per seed."""
    return oc_random_config(n, 1, k, seed)


def save_config(config: SphereConfig, path) -> None:
    write_config(config, path, "config")


def load_config(path) -> SphereConfig:
    return read_config(path, ("config",))
