"""Size limits for exhaustive computations.

All exhaustive operations check their input against these limits and raise
SizeCapExceeded instead of silently grinding. Callers can pass a custom Caps
to any operation that enumerates.

There is one field per kind of work: the entries a structure holds
(max_tabulate), the tuples or rows a scan reads (max_axiom_tuples) and
the candidates an exhaustive search tries (max_points).

A Caps is an argument, never object state: `tabulate(p, caps)` builds a
derived group's table under the caps of that call.

Neither a group's order N nor the arity n has a limit of its own: a
binary table's N**2 entries, and the tables `core.check_arity` and the
forms build from n, are checked against max_tabulate. The coset budget
is `cover.coset_enumerate`'s `cap` argument (CLI --cap).
"""

from dataclasses import dataclass

from .errors import SizeCapExceeded


@dataclass(frozen=True)
class Caps:
    # entries a structure holds: binary (N^2) and flat n-ary (|G|^n)
    # tables, presented groups, a derived group's theta powers and step
    # tables (about n |G|^2), cover tables, relator rotations, flattened
    # skews, coordinate-group and term-function tuples (|H| * points)
    max_tabulate: int = 2 * 10 ** 6
    # tuples or rows a scan reads: associativity scans (|G|^(2n-1), N^3),
    # oracle n-tuples (|G|^n), the elements a subgroup lattice adds and
    # its translates, the functions an irreducibility test reads
    max_axiom_tuples: int = 10 ** 7
    # candidates an exhaustive search tries: the space solve searches,
    # term-function grids (|G|^m), hom and isomorphism searches, the maps
    # and subsets the oracles try
    max_points: int = 10 ** 6


DEFAULT = Caps()


def check(caps, what, size, limit):
    if size > limit:
        raise SizeCapExceeded(what, size, limit)
