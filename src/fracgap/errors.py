"""Exception types shared across the package, and the domain checks that
every interval (a, b), alpha range, count and time goes through."""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "WitnessSearchError"]


class DomainError(ValueError):
    """A parameter lies outside the documented domain of an operation."""


class WitnessSearchError(RuntimeError):
    """The certificate recursion exceeded its depth cap without terminating."""


def _require_interval(a, b) -> tuple[float, float]:
    """(a, b) as floats; refused unless a and b are finite, b > a and the
    length b - a is finite. 0 < b - a < inf says all of that at once: an
    infinite or nan end makes the length inf or nan, and a finite b > a
    never rounds it to 0."""
    a, b = float(a), float(b)
    if not 0.0 < b - a < float("inf"):
        raise DomainError(f"interval must be finite with b > a and a finite length, "
                          f"got ({a}, {b})")
    return a, b


def _require_open(value, low: float, high: float, name: str) -> float:
    """value as a float; refused unless it lies in the open (low, high)."""
    if not low < value < high:
        raise DomainError(f"{name} must lie in ({low:g}, {high:g}), got {value}")
    return float(value)


def _require_count(value, least: int, name: str) -> int:
    """value as an int; refused unless it is an int or a numpy integer, not
    a bool, and at least least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return int(value)
