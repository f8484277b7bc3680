"""Size limits for exhaustive computations.

All exhaustive operations check their input against these limits and raise
SizeCapExceeded instead of silently grinding. Callers can pass a custom Caps
to any operation that enumerates.

The arity n has no limit of its own: `core.check_arity` and the forms
bound it by the tables they build from it, against max_tabulate.
"""

from dataclasses import dataclass

from .errors import SizeCapExceeded


@dataclass(frozen=True)
class Caps:
    max_table_order: int = 64        # full-table binary groups
    max_power_order: int = 10 ** 6   # hom searches, the maps and subsets
                                     # the oracles try
    max_tabulate: int = 2 * 10 ** 6  # flat n-ary tables (|G|^n), a derived
                                     # group's theta powers and step tables
                                     # (about n |G|^2), cover tables, relator
                                     # rotations, flattened skews,
                                     # coordinate-group entries (|H| * points)
    max_axiom_tuples: int = 10 ** 7  # exhaustive associativity (|G|^(2n-1)),
                                     # the n-tuples an oracle scans (|G|^n)
    max_points: int = 10 ** 6        # space solve searches, term-function grids (|G|^m)
    max_closure_algebra: int = 50_000  # generated term-function algebras
    max_irreducible_points: int = 15   # subsets of Y enumerated, 2^|Y|
    default_coset_cap: int = 10_000    # coset enumeration budget


DEFAULT = Caps()


def check(caps, what, size, limit):
    if size > limit:
        raise SizeCapExceeded(what, size, limit)
