"""Workbench for exactly and quasi-exactly solvable 1-D Schrodinger models.

Two polynomials define a model: Q (squared coordinate velocity) and P (the
ground-state driver W0' z'), optionally decorated with boundary singularity
exponents. The package classifies the model, builds the closed-form
coordinate and prepotential, solves the Bethe ansatz equations for the
polynomial-factor roots, assembles the potential and energy, and certifies
every (potential, energy, eigenfunction) triple with independent checks:
Schrodinger residual, finite-difference spectrum, node count and
normalizability.
"""

from .bae import (BetheBranch, branch_energy, enumerate_branches, jacobian,
                  residual, residuals, solve, solve_many)
from .catalog import expected_energies, instantiate
from .coords import CoordinateMap, build
from .errors import (CollisionError, ConvergenceError, DomainError, GridError,
                     ModelError)
from .model import (Diagnostic, ModelSpec, Singularity, SolvabilityClass,
                    classify, validate)
from .poly import Poly, Tridiag, tridiag_eigenvalues
from .potential import (PFE, PotentialProfile, check_residues, delta_v_pfe,
                        split_energy, v0_pfe)
from .prepot import Prepotential, integrate_w0, phi_log_sign, unbound_ends
from .verify import (Grid, VerificationReport, branch_setups, fd_spectrum,
                     make_grid, node_count, normalizability_check,
                     normalizability_checks, schrodinger_residual, verify_branch,
                     verify_branches)

__version__ = "0.1.0"

__all__ = [
    "BetheBranch", "CollisionError", "ConvergenceError", "CoordinateMap",
    "Diagnostic", "DomainError", "Grid", "GridError", "ModelError",
    "ModelSpec", "PFE", "Poly", "PotentialProfile", "Prepotential",
    "Singularity", "SolvabilityClass", "Tridiag", "VerificationReport",
    "branch_energy", "branch_setups", "build", "check_residues", "classify",
    "delta_v_pfe", "enumerate_branches", "expected_energies", "fd_spectrum",
    "instantiate", "integrate_w0", "jacobian", "make_grid",
    "node_count", "normalizability_check", "normalizability_checks",
    "phi_log_sign", "residual", "residuals", "schrodinger_residual", "solve",
    "solve_many", "split_energy",
    "tridiag_eigenvalues", "unbound_ends", "v0_pfe", "validate", "verify_branch",
    "verify_branches",
]
