"""Kernel ridge regression dynamic programming for Bermudan option pricing."""

__version__ = "0.1.0"
