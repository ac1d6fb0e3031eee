"""Triangle designs over GF(2).

Construction, search, expansion and independent verification of
triangle designs and group-divisible triangle designs: partitions of
the 2-dimensional subspaces of GF(2)^n into triples of subspaces with
pairwise 1-dimensional intersections.
"""

from .construct import (GddStream, balanced_extension, fill_groups, gdd_6k_6,
                        product, product_census, trivial_design)
from .datasets import (EmbeddedDataset, as_certificate, dataset_names,
                       expand_special, load_dataset)
from .designs import (BalanceReport, CoverReport, Design, Gdd, charge_ledger,
                      coverage_counts, expected_triangle_count, verify_balanced,
                      verify_design, verify_gdd)
from .gf2n import DEFAULT_POLYS, FieldCtx, build_field, embed_subfield
from .lines import (PlaneBasis, desarguesian_spread, enumerate_ext_planes,
                    ext_plane_count, line_count, validate_spread)
from .orbits import (FrobeniusCertificate, OrbitCertificate, expand_certificate,
                     gamma_rows)
from .search import (InfeasibleStratumError, SearchLimitExceeded,
                     SearchUnsatisfiable, frobenius_strata, search_frobenius,
                     search_singer)
from .xcover import (CoverSolution, LimitExceeded, Unsatisfiable,
                     XCoverInstance, check_solution, solve)

__version__ = "0.1.0"
