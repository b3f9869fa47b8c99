"""Langevin dynamics in a reproducing kernel Hilbert space via spectral Galerkin truncation."""

__version__ = "0.1.0"
