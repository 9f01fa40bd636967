"""Unipotent periods of the thrice-punctured projective line.

Iterated integrals and truncated path signatures on C \\ {0,1}, the
exact truncated group-ring algebra behind them, the rank-3 period
domain with its nilpotent-orbit boundary chart, and the degree-two
Albanese map connecting the two sides.
"""

__version__ = "0.1.0"
