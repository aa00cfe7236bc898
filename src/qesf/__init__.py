"""Workbench for exactly and quasi-exactly solvable 1-D Schrodinger models.

Two polynomials define a model: Q (squared coordinate velocity) and P (the
ground-state driver W0' z'), optionally decorated with boundary singularity
exponents. The package classifies the model, builds the closed-form
coordinate and prepotential, solves the Bethe ansatz equations for the
polynomial-factor roots, assembles the potential and energy, and certifies
every (potential, energy, eigenfunction) triple independently with
finite-difference and orthogonal-polynomial oracles.
"""

from .bae import (BetheBranch, branch_energy, enumerate_branches, jacobian,
                  residual, solve)
from .catalog import expected_energies, instantiate
from .coords import CoordinateMap, build
from .errors import (CollisionError, ConvergenceError, DomainError, GridError,
                     ModelError)
from .model import (Diagnostic, ModelSpec, Singularity, SolvabilityClass,
                    classify, validate)
from .poly import Poly, Tridiag, hermite_zeros, laguerre_zeros, tridiag_eigenvalues
from .potential import (PFE, PotentialProfile, check_residues, delta_v_pfe,
                        identity_check, split_energy, v0_pfe)
from .prepot import Prepotential, integrate_w0, phi_value, wn_value
from .verify import (Grid, VerificationReport, fd_spectrum, make_grid,
                     node_count, normalizability_check, residual_check,
                     schrodinger_residual, verify_branch)

__version__ = "0.1.0"

__all__ = [
    "BetheBranch", "CollisionError", "ConvergenceError", "CoordinateMap",
    "Diagnostic", "DomainError", "Grid", "GridError", "ModelError",
    "ModelSpec", "PFE", "Poly", "PotentialProfile", "Prepotential",
    "Singularity", "SolvabilityClass", "Tridiag", "VerificationReport",
    "branch_energy", "build", "check_residues", "classify", "delta_v_pfe",
    "enumerate_branches", "expected_energies", "fd_spectrum", "hermite_zeros",
    "identity_check", "instantiate", "integrate_w0", "jacobian",
    "laguerre_zeros", "make_grid", "node_count", "normalizability_check",
    "phi_value", "residual", "residual_check", "schrodinger_residual", "solve",
    "split_energy", "tridiag_eigenvalues", "v0_pfe", "validate",
    "verify_branch", "wn_value",
]
