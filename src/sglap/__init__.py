"""Laplacian eigenfunctions and harmonic tangents on the Sierpinski gasket.

Layers, bottom up: special (Psi, Upsilon, tau and Phi), decimation (level
cap, eigenvalue sequences, Dirichlet spectrum), address (words, vertex
indices, the glue rule), harmonic (1-5-5 extension and eigenfunctions), mesh
(a level's values, addresses, points and cells, cell by cell), tangent
(closed-form harmonic tangents and normal derivatives), oracle (independent
brute-force checks), cli.
Import names from these modules; the package itself re-exports none.
"""

__version__ = "0.1.0"
