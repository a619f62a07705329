"""Geometric interpretation of robot pointing for pick-and-place tasks."""

__version__ = "0.1.0"
