"""Numerical toolkit for Brascamp-Lieb data.

Subpackages cover the exterior-algebra quantities of linear maps
(computed by determinant identities), the linear Brascamp-Lieb
constant for direct-sum data, quadrature of the multilinear functional,
the buffered scale decomposition for nonlinear submersions, a
quantitative implicit function theorem, and the downstream singular
convolution / Fourier extension checks.
"""

__version__ = "0.1.0"
