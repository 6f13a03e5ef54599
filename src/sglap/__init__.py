"""Laplacian eigenfunctions and harmonic tangents on the Sierpinski gasket.

Layers, bottom up: address (words, vertex keys, level graphs), harmonic
(1-5-5 extension), decimation (eigenvalue sequences, Dirichlet series),
special (psi/upsilon tail products), tangent (closed-form harmonic tangents
and normal derivatives), oracle (independent brute-force checks), cli.
"""
from .address import (
    EventuallyConstantWord,
    LevelGraph,
    apply_ifs,
    build_level_graph,
    canonical_address,
    resolve_addresses,
    vertex_key,
    word_from_string,
)
from .decimation import (
    Branch,
    EigenvalueSequence,
    SpectralEigenfunction,
    SpectrumLine,
    dirichlet_eigenfunction,
    eigen_matrix,
    enumerate_dirichlet_spectrum,
    extend_eigen,
    lambda_next,
    sequence_from_limit,
    six_series_element,
)
from .errors import (
    ConvergenceError,
    DomainError,
    LevelCapError,
    SglapError,
    SingularLevelError,
    UsageError,
)
from .harmonic import (
    extend_harmonic,
    harmonic_extension,
    harmonic_matrix,
    harmonic_normal_derivative,
    normal_derivative_limit,
)
from .oracle import (
    DenseSpectrum,
    dense_dirichlet_spectrum,
    direct_tangent_limit,
    interval_tangent,
    sorted_pairing_gap,
)
from .special import ConvergenceConfig, psi, psi_limit, psi_m, tau, upsilon
from .tangent import (
    TangentSeed,
    TangentTriple,
    dirichlet_tangent_seed,
    gradient_at,
    limit_action,
    m0_matrix,
    normal_derivative,
    tangent_at,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
