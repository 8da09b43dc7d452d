"""findim: exact homological invariants of finite-dimensional path algebras.

Computes minimal projective resolutions, perfect complexes, derived
Hom-supports and amplitudes, small finitistic dimension estimates, and
machine-checkable certificates of thick-subcategory generation levels,
all over GF(p) or the rationals with exact arithmetic.
"""

__version__ = "0.1.0"

from .linalg import GF, QQ, Field, Matrix, kernel_basis, rank, rref, solve
from .algebras import FDAlgebra, NotFiniteDimensionalError, Quiver, Relation, build_algebra
from .modules import (
    Module,
    ModuleMap,
    PdResult,
    ResolutionReport,
    hom_space,
    inj_dim,
    minimal_resolution,
    proj_dim,
    projective_cover,
    syzygy,
)
from .complexes import (
    ChainMap,
    Complex,
    HomComplex,
    Homotopy,
    cone,
    direct_sum,
    null_homotopy,
    shift,
    stalk_complex,
    stupid_truncate,
)
from .invariants import (
    HomSupport,
    amplitude,
    h_value,
    hom_support,
    in_hom_p,
    random_chain_map,
    random_module,
    random_perfect_complex,
    resolve_to_perfect,
)
from .certificates import (
    BudgetExceededError,
    FinDimReport,
    ThickCertificate,
    certificate_for_hom_p,
    certificate_from_resolution,
    enumerate_modules,
    findim_estimate,
    finitistic_generator,
    ghost_maps,
    ghost_pd_oracle,
    regularity_check,
    verify_certificate,
)
