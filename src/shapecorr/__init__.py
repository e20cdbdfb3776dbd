"""Dense correspondence between near-isometric triangle meshes.

The pipeline recovers a vertex-to-vertex map from unordered, independently
detected surface regions: both shapes get a low-frequency Laplace-Beltrami
basis, stable eigenfunction level-set regions provide unordered landmark
functions, an alternating solve recovers a sparse coefficient-space
transport together with the region pairing while writing off spurious
regions, and closest-point iteration in coefficient space densifies the
result into a full point map.
"""

from .assignment import (Assignment, AssignmentInfeasibleError, build_profit,
                         prune, solve_assignment)
from .evaluate import (DEFAULT_THRESHOLDS, ErrorCurve, correspondence_error,
                       error_curve, export_colored_ply, save_error_curve)
from .matcher import MatchResult, match, write_match_report
from .mesh import (Mesh, MeshParseError, MeshValidationError,
                   geodesic_distance_matrix, load_mesh, save_mesh, shape_diameter)
from .pursuit import (PursuitResult, SolverOptions, default_weights, prox_l21_rows,
                      prox_weighted_l1, resolve_penalties,
                      solve_robust_sparse_coding, step_size)
from .refine import (PointMap, RefineResult, load_point_map, nearest_rows,
                     orthogonal_procrustes, point_map_from_functional,
                     refine_icp, save_point_map)
from .regions import (DetectorParams, RegionSet, detect_stable_regions,
                      load_regions, region_coefficients, regions_from_members,
                      save_regions)
from .spectral import (DEFAULT_BASIS_SIZE, SpectralBasis, cotangent_laplacian,
                       eigenbasis, load_basis, project, save_basis)

__version__ = "0.1.0"
