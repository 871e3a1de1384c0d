"""Exact arithmetic on the Bruhat-Tits tree of GL2(Q_p): congruence-subgroup
orbits on the projective line as p-adic discs, counting and containment
certificates, and an exact finite model of the associated chain complex."""

__version__ = "0.1.0"
