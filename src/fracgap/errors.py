"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["DomainError", "WitnessSearchError"]


class DomainError(ValueError):
    """A parameter lies outside the documented domain of an operation."""


class WitnessSearchError(RuntimeError):
    """The certificate recursion exceeded its depth cap without terminating."""
