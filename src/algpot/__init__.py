"""Non-integrability obstructions for algebraic potentials on varieties.

The package decides, numerically but with exact final arithmetic, whether a
potential that is algebraic over the position coordinates passes the
degree/eigenvalue admissibility test for meromorphic integrability:
Darboux points are located on the defining variety, the variety-intrinsic
Hessian spectrum is taken, eigenvalues are reconstructed as rationals, and
Kimura's theorem decides, exactly, whether each degree/eigenvalue pair can
have an abelian variational Galois group.
Supporting machinery covers constrained dynamics, homothetic orbits, and
the hypergeometric variational equation with its monodromy.
"""

from .calculus import (CriticalPointError, Homogeneity, PointCalculus,
                       ValidationReport, detect_homogeneity, validate)
from .darboux import DarbouxReport, DarbouxResult, solve_darboux
from .dynamics import (CriticalSetError, Trajectory, TrajectoryState,
                       homothetic_orbit, integrate)
from .expr import ExprError, PoleError, RatExpr, ZeroDenominatorError
from .admissibility import (Certificate, TableError, TableVerdict, Witness, certify,
                            check_pair_exact, check_pair_numeric)
from .nbody import (NBodyConfig, build as build_nbody, central_config_seeds,
                    pinning_conditions, split_gauge_spectrum)
from .parsing import AlgebraicSetup, ParseError, load_problem, parse_problem
from .pipeline import TOOL_VERSION as __version__
from .pipeline import AnalysisOptions, analyze, report_json
from .spectrum import EigenCluster, Spectrum, eigen, rationalize
from .varode import HypergeomVE, MonodromyReport, build_ve, monodromy_report
