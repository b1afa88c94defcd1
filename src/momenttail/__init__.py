"""Moment-tail inequality toolkit.

A non-negative random variable with unit mean and second moment a > 1
exceeds a with positive probability, and the squared values above any cutoff
b < a carry mass at least a - b.  This package checks that statement exactly
on finite distributions and explores it in three settings: moments of
|zeta(1/2+it)| over windows, determinants of random skew-symmetric +-1
matrices, and irreducible character degrees of the symmetric group.
Each lives in its own module (moments, zeta, skewdet, symchar; shared helpers
in numutil), and `mtl` is momenttail.cli.
"""

__version__ = "0.1.0"
