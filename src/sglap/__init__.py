"""Laplacian eigenfunctions and harmonic tangents on the Sierpinski gasket.

Layers, bottom up: special (Psi/Upsilon grids and tau), decimation (level
cap, eigenvalue sequences, Dirichlet spectrum; no numpy), address (words,
vertex keys, level graphs), harmonic (1-5-5 extension and eigenfunctions),
tangent (closed-form harmonic tangents and normal derivatives), oracle
(independent brute-force checks), cli.
Import names from these modules; the package itself re-exports none.
"""

__version__ = "0.1.0"
