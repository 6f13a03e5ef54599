"""Closed forms proven in exact arithmetic: sympy numbers run through the src
functions themselves, so that an identity holds for the formula as written,
not at sampled float points.

eigen_matrices and harmonic_inverses take any number type with integer
arithmetic (the oracle runs them on Decimals), a sympy symbol included, and
matvec and matmul sum from the integer 0, so sympy Integers and Rationals
come out exact."""
from sympy import Integer, Rational, cancel, expand, symbols

from sglap.address import vertex_index
from sglap.harmonic import IDENTITY, eigen_matrices, harmonic_inverses, matmul, matvec
from sglap.mesh import cells

# the 1-5-5 extension matrices A_0, A_1, A_2: the eigen-extension at lambda = 0
HARMONIC = eigen_matrices(Integer(0))


def test_harmonic_inverses_invert_the_extension_matrices():
    for inverse, extension in zip(harmonic_inverses(Integer(3)), HARMONIC, strict=True):
        assert matmul(inverse, extension) == IDENTITY
        assert matmul(extension, inverse) == IDENTITY


def test_normal_derivative_renormalizes_by_five_thirds():
    # (5/3) (2e_i - e_j - e_k) A_i = 2e_i - e_j - e_k: restricting a harmonic
    # function to F_i scales its normal derivative at q_i by 3/5, so the
    # renormalized quotient (5/3)^M (2u(q_i) - u(F_i^M q_j) - u(F_i^M q_k))
    # is the normal derivative 2t_i - t_j - t_k of the tangent at every M
    for i, extension in enumerate(HARMONIC):
        row = tuple(Integer(2) if j == i else Integer(-1) for j in range(3))
        # row A_i is A_i^T row, a matvec on the transpose
        assert tuple(Rational(5, 3) * x for x in matvec(tuple(zip(*extension)), row)) == row


def test_eigen_matrices_solve_the_level_one_eigen_equation():
    # at each midpoint x of V_1, sum over its four neighbours of u(y) equals
    # (4 - lambda) u(x), with u extended from symbolic corner values by
    # eigen_matrices(lambda).  Each entry is (affine in lambda) / ((5 - lambda)
    # (2 - lambda)), so each residual times (5 - lambda)(2 - lambda) is a
    # polynomial of degree at most 2 in lambda, with coefficients linear in
    # the corner values: zero at the four lambdas below, outside {2, 5}, it
    # is zero at every lambda
    for lam in (Rational(1, 3), Rational(-7, 2), Integer(3), Rational(41, 10)):
        for residual in _level_one_residuals(lam):
            assert expand(residual) == 0, lam


def test_eigen_matrices_solve_the_level_one_eigen_equation_at_every_lambda():
    # the same residuals at a symbolic lambda: rational functions of lambda
    # that cancel to 0, which proves the equation for every lambda but the
    # poles 2 and 5 at once
    for residual in _level_one_residuals(symbols("lambda")):
        assert cancel(residual) == 0


def _level_one_residuals(lam):
    """The level-1 eigen-equation's residuals at lam, with u extended from
    symbolic corner values by eigen_matrices(lam): first the difference of
    the two cells' values at each midpoint (a midpoint is a corner of two
    cells, which must agree on it), then sum over its four neighbours of
    u(y) - (4 - lam) u(x) at each midpoint x."""
    corners = symbols("u0 u1 u2")
    (faces,) = cells(1)
    neighbours = {v: set() for v in faces}
    for i in range(0, len(faces), 3):
        triangle = set(faces[i:i + 3])
        for v in triangle:
            neighbours[v] |= triangle - {v}
    midpoints = sorted(v for v in neighbours if v >= 3)
    assert len(midpoints) == 3 and all(len(neighbours[v]) == 4 for v in midpoints)
    u = dict(enumerate(corners))
    for letter, extension in enumerate(eigen_matrices(lam)):
        for corner, value in enumerate(matvec(extension, corners)):
            v = vertex_index((letter,), corner, 1)
            yield u.setdefault(v, value) - value
    for v in midpoints:
        yield sum(u[y] for y in neighbours[v]) - (4 - lam) * u[v]
