"""Combinatorics of random closed curves on surfaces.

Free-group word arithmetic, ribbon-graph surfaces and their finite covers,
geometric (self-)intersection numbers, simple lifting degrees, trace
coordinates for the once-punctured torus, and a reproducible Monte Carlo
harness for the scaling laws these quantities obey for random curves.
"""

__version__ = "0.1.0"

from .words import (BallSpec, CyclicWord, InvariantViolation, Word,  # noqa: F401
                    WordError, ball_size, conjugates_in_ball, cyclic,
                    cyclic_reduce, reduce, satisfies_no_cancellation,
                    sphere_size, word)
from .ribbon import (PermRep, RibbonGraph, SurfaceSignature, cover,  # noqa: F401
                     elevations, pair_of_pants, punctured_torus, signature,
                     surface)
from .intersect import (EdgePath, brute_min_crossings,  # noqa: F401
                        intersection, self_intersection, spiraling)
from .covers import (DegreeSearchResult, hall_count, hook_degree,  # noqa: F401
                     mednykh_count, partitions, simple_lifting_degree,
                     transitive_reps)
from .fricke import (FrickePoint, collar_width, distance_proxy,  # noqa: F401
                     geodesic_length, holonomy, minimize_length,
                     rose_minimizer)
from .stats import (ExperimentConfig, ExperimentTable, WalkDistribution,  # noqa: F401
                    drift_estimate, fit_log_law, fit_power_law, random_walk,
                    run_experiment, sample_ball_uniform)
