"""perimere: periodic merge trees, periodic 0-th barcodes, and alternating
1-Wasserstein distances for periodic filtered graphs given as finite quotient
complexes with integer shift vectors."""

from .lattice import (BudgetExceeded, IntMatrix, RealBasis, SublatticeBasis,
                      coset_reps, count_cosets_in_ball, hnf_reduce,
                      lattice_sum, member, unit_ball_volume, volume)
from .pgraph import (GraphError, PeriodicGraph, cellular_l1, max_shift_magnitude,
                     parse, serialize, unroll)
from .mergetree import Event, PeriodicMergeTree, build, canonical_form, splinters
from .barcode import PeriodicBarcode, equals, extract
from .transport import barcode_distance, multiplicity_bound, w1, w1_alt

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "Event", "GraphError",
    "IntMatrix", "PeriodicBarcode", "PeriodicGraph", "PeriodicMergeTree",
    "RealBasis", "SublatticeBasis",
    "barcode_distance", "build", "canonical_form", "cellular_l1",
    "coset_reps", "count_cosets_in_ball", "equals", "extract", "hnf_reduce",
    "lattice_sum", "max_shift_magnitude", "member", "multiplicity_bound",
    "parse", "serialize", "splinters", "unit_ball_volume", "unroll",
    "volume", "w1", "w1_alt",
]
