"""The product of unit spheres: the d = 1 names of the frame geometry.

Points are n x k matrices with unit rows; the objective is the quadratic
form <sigma, A sigma>.  Tangent vectors have each row orthogonal to the
matching row of the base point, and the retraction normalizes the rows of
sigma + t*u.  Every operation is the d = 1 case of ``stiefel``, which runs
the row kernels and the unit-row tolerance there; this module only keeps
the MaxCut names.  Unlike the Orthogonal-Cut names, these accept a matrix
with any block structure.
"""

from __future__ import annotations

from .stiefel import (
    OcHessianOperator,
    StiefelConfig as SphereConfig,
    StiefelTangent as TangentField,
    oc_objective as objective,
    oc_project_tangent as project_tangent,
    oc_random_config,
    oc_random_tangent as random_tangent,
    oc_retract as retract,
    read_config,
    write_config,
)
from .symmat import SymmetricMatrix

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


class HessianOperator(OcHessianOperator):
    """Hessian at a point of the sphere product; the matrix needs no block structure."""

    @staticmethod
    def _check(A: SymmetricMatrix, config: SphereConfig) -> None:
        if A.n != config.n:
            raise ValueError("dimension mismatch between matrix and configuration")
        if config.d != 1:
            raise ValueError("the sphere product needs a d = 1 configuration")


def gradient(A: SymmetricMatrix, config: SphereConfig) -> TangentField:
    """Riemannian gradient 2(A - Lambda) sigma, Lambda = ddiag(A sigma sigma^T)."""
    return HessianOperator(A, config).gradient()


def hessian_apply(H: HessianOperator, u: TangentField) -> TangentField:
    return H.apply(u)


def rayleigh(H: HessianOperator, u: TangentField) -> float:
    return H.rayleigh(u)


def random_config(n: int, k: int, seed) -> SphereConfig:
    """Rows drawn uniformly on the sphere (normalized Gaussians); deterministic per seed."""
    return oc_random_config(n, 1, k, seed)


def save_config(config: SphereConfig, path) -> None:
    write_config(config, path, "config")


def load_config(path) -> SphereConfig:
    return read_config(path, ("config",))
