"""theta-lab: exact recomputation toolkit for a six-point base-locus count.

Modules by theme: exact scalars (exact), polynomial and field
plumbing (polys, fields), Verlinde numbers (verlinde), Hilbert
polynomial fitting (hilbert), fixed-point splittings (lefschetz),
genus-2 Jacobian arithmetic (hyperelliptic), bundle bookkeeping
(bundles), and the self-checking report plus CLI (report, cli).
Import from the modules; the package root exports only __version__.
"""

__version__ = "0.1.0"
