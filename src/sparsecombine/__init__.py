"""Sparse-grid combination technique with multivariate extrapolation.

Solves the d-dimensional Poisson problem with homogeneous Dirichlet data by
second-order finite differences on anisotropic tensor grids, combines the
grid solutions with exact rational weights (classical and higher-order
plans), and ships a CLI harness for convergence studies plus exact checks of
the weight identities. The API lives in the modules ``grid``, ``pde``,
``combine`` and ``verify``; importing the package loads none of them.
"""

__version__ = "0.1.0"
