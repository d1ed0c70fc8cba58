"""Numerical laboratory for port-based teleportation under pure dephasing."""

# No submodule is imported here, so the CLI starts without the oracles it does not run.
__all__ = ["closedform", "ensemble", "fidelity", "linops", "povm", "quadrature", "spinboson"]

__version__ = "0.1.0"
