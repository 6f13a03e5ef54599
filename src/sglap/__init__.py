"""Laplacian eigenfunctions and harmonic tangents on the Sierpinski gasket.

Layers, bottom up: address (words, vertex keys, level graphs), harmonic
(1-5-5 extension), decimation (eigenvalue sequences, Dirichlet series),
special (psi/upsilon tail products), tangent (closed-form harmonic tangents
and normal derivatives), oracle (independent brute-force checks), cli.
Import names from these modules; the package itself re-exports none.
"""

__version__ = "0.1.0"
