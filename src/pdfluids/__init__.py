"""Grid-based incompressible fluid solver whose pressure stage generalizes
to a proximal-splitting optimizer, with guided smoke and separating-wall
liquid applications."""

from .fields import (CellFlags, CellType, GridDims, ScalarField, VelocityField,
                     advect_semi_lagrangian, divergence, upsample)
from .blur import blur_obstacle_aware
from .pressure import (BcTable, CgConfig, DivergenceProjector, FaceTag,
                       PoissonConvergenceError, project, subtract_gradient)
from .optim import (AdmmParams, ConvergenceLog, PdParams, ProxOperator, SolverCarry,
                    admm_solve, moreau_transform, pd_solve, stop_check)
from .guiding import (GuidingConfig, GuidingProx, GuidingProxExact,
                      GuidingQuadratic, default_guiding_params,
                      direct_least_squares, guide_step, guiding_objective)
from .separating import (BcState, BoundaryFaces, WallProx,
                         solve_separating_accelerated, solve_separating_standard)
from .scenes import (SceneSpec, SceneState, build_scene, liquid_step,
                     smoke_step)
from .fileio import read_grid, render_pgm, write_convergence_csv, write_grid
from .config import RunConfig

__version__ = "0.1.0"
