"""The enumeration and bijection inner loops, on plain tuples.

There is one backend, the pure-Python one in ppbij.kernels._pure; this
package re-exports it.  BACKEND names it for the run headers.
"""

from ._pure import BACKEND, lis_tail, lis_tails, matrices_weighted, \
    phi_inverse_rows, pp_box, pp_shape, row_candidates, strict_rows, \
    word_tableau_rows

__all__ = [
    "BACKEND",
    "lis_tail",
    "lis_tails",
    "matrices_weighted",
    "phi_inverse_rows",
    "pp_box",
    "pp_shape",
    "row_candidates",
    "strict_rows",
    "word_tableau_rows",
]
