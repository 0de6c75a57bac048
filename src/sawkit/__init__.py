"""sawkit: exact self-avoiding-walk enumeration on vertex-transitive
graphs, quotient multigraphs, pattern-event counting, and finite-time
certificates bounding the quotient's growth constant strictly below the
base graph's.

Everything exact is integer or algebraic-number arithmetic; everything
floating-point is outward-rounded interval arithmetic.  See the module
docstrings for the individual engines:

- :mod:`sawkit.graphs`     graph handles, catalog, spec files, augmentation
- :mod:`sawkit.quotient`   group actions, directed quotient multigraphs
- :mod:`sawkit.counting`   exact SAW / walk counts, deterministic parallelism
- :mod:`sawkit.events`     cycle families and event-constrained counts
- :mod:`sawkit.bounds`     bridge and degree lower bounds b_n
- :mod:`sawkit.certificate` ratio certificates and replay verification
- :mod:`sawkit.balls`      radius-ball witnesses (transitivity, isomorphism)
- :mod:`sawkit.cli`        the `saw` command
"""

from .exact import Interval, Radical, float_repr, log_of_count_root
from .graphs import (CATALOG_NAMES, GraphError, GraphHandle, PeriodicLattice,
                     augment, ball, catalog, dump_spec_file, load_spec_file)
from .quotient import (QuotientError, QuotientGraph, SubgroupAction,
                       TypeReport, build_quotient,
                       check_representative_independence, check_symmetry,
                       classify_type, derive_undirected, lift,
                       project, sublattice_action, tree_action)
from .counting import (WalkCounts, count_directed_saws, count_directed_walks,
                       count_saws, count_walks, resolve_workers)
from .events import (CycleFamily, EventError, EventParameterError,
                     EventProfile, build_cycle_family, build_event_profile,
                     count_with_events, event_free_series, event_series,
                     lambda_upper)
from .bounds import (BoundError, LowerBoundSequence, bound_rows,
                     bridge_bounds, bridge_counts, degree_bound,
                     lower_bounds, monotone_regularize)
from .certificate import (CertificateError, CheckRecord, NoContractionError,
                          RatioCertificate, SearchOutcome, VerifyReport,
                          certify_ratio, compute_R, compute_S, find_epsilon_m,
                          verify_certificate)
from .balls import ball_sizes_uniform, balls_isomorphic, induced_ball_edges

__version__ = "0.1.0"

__all__ = [
    "Interval", "Radical", "float_repr", "log_of_count_root",
    "CATALOG_NAMES", "GraphError", "GraphHandle", "PeriodicLattice",
    "augment", "ball", "catalog", "dump_spec_file", "load_spec_file",
    "QuotientError", "QuotientGraph", "SubgroupAction", "TypeReport",
    "build_quotient", "check_representative_independence", "check_symmetry",
    "classify_type", "derive_undirected", "lift",
    "project", "sublattice_action", "tree_action",
    "WalkCounts", "count_directed_saws",
    "count_directed_walks", "count_saws", "count_walks", "resolve_workers",
    "CycleFamily", "EventError", "EventParameterError", "EventProfile",
    "build_cycle_family", "build_event_profile", "count_with_events",
    "event_free_series", "event_series", "lambda_upper",
    "BoundError", "LowerBoundSequence", "bound_rows", "bridge_bounds",
    "bridge_counts", "degree_bound", "lower_bounds", "monotone_regularize",
    "CertificateError", "CheckRecord", "NoContractionError",
    "RatioCertificate", "SearchOutcome", "VerifyReport", "certify_ratio",
    "compute_R", "compute_S", "find_epsilon_m", "verify_certificate",
    "ball_sizes_uniform", "balls_isomorphic", "induced_ball_edges",
    "__version__",
]
