"""Workbench for exactly and quasi-exactly solvable 1-D Schrodinger models.

Two polynomials define a model: Q (squared coordinate velocity) and P (the
ground-state driver W0' z'), optionally decorated with boundary singularity
exponents. The package classifies the model, builds the closed-form
coordinate and prepotential, solves the Bethe ansatz equations for the
polynomial-factor roots, assembles the potential and energy, and certifies
every (potential, energy, eigenfunction) triple with independent checks:
Schrodinger residual, spectrum (sinc DVR, or a Gauss-Jacobi wall basis),
node count and normalizability.

`import qesf` loads no submodule and no numpy. Each name of __all__ is
imported from the submodule that owns it (_EXPORTS) on first access, and
so is a submodule named bare (qesf.bae). Classifying a model by its two
degrees needs only errors, poly and model, which load no numpy; the
construction, the solver and verify load numpy when first used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bae": ("BetheBranch", "branch_energies", "branch_energy", "enumerate_branches", "jacobian",
            "residual", "residuals", "solve", "solve_many"),
    "catalog": ("expected_energies", "instantiate"),
    "coords": ("CoordinateMap", "build"),
    "errors": ("CollisionError", "ConvergenceError", "DomainError", "GridError", "ModelError"),
    "model": ("Diagnostic", "ModelSpec", "Singularity", "SolvabilityClass", "classify",
              "validate"),
    "poly": ("Poly", "Tridiag", "tridiag_eigenvalues"),
    "potential": ("PFE", "PotentialProfile", "split_energies", "split_energy", "v0_pfe"),
    "prepot": ("Prepotential", "integrate_w0", "phi_log_sign", "unbound_ends"),
    "verify": ("BranchTable", "Grid", "VerificationReport", "branch_setups", "fd_spectrum",
               "node_count", "normalizability_check", "schrodinger_residual", "verify_branch",
               "verify_branches"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER.get(name, name)}", __name__)
    globals()[name] = value = getattr(module, name) if name in _OWNER else module
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
