"""Cycle statistics of products of conjugation-invariant random permutations.

A laboratory in seven layers: exact permutation combinatorics (perms),
batched samplers for invariant laws (samplers), the directed-graph
machinery that encodes how a product cycle reads its factors
(cyclegraphs), a rational-arithmetic oracle over small symmetric groups
(oracle), Monte Carlo estimators against Poisson reference laws (stats),
exhaustive verification suites (sweeps), and a command-line front end
(cli).
"""

from permprod.cyclegraphs import (
    DirectedGraph,
    TraversalRecord,
    enumerate_B,
    membership,
    traversal,
)
from permprod.oracle import (
    ExactDistribution,
    exact_joint_cycle_prob,
    exact_moment,
    verify_bounds,
)
from permprod.perms import (
    CycleCounts,
    Permutation,
    compose,
    conjugate,
    cycle_counts,
    cycle_of,
    inverse,
    trace_power,
)
from permprod.samplers import RngStream, SamplerSpec
from permprod.stats import (
    Functional,
    JointPmf,
    MomentEstimate,
    convergence_scan,
    empirical_joint_pmf,
    eta_joint_pmf,
    moment_estimates,
    tv_distance,
)
from permprod.sweeps import SweepSummary, run_all

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "CycleCounts",
    "compose",
    "inverse",
    "conjugate",
    "cycle_of",
    "cycle_counts",
    "trace_power",
    "RngStream",
    "SamplerSpec",
    "DirectedGraph",
    "TraversalRecord",
    "traversal",
    "membership",
    "enumerate_B",
    "ExactDistribution",
    "exact_moment",
    "exact_joint_cycle_prob",
    "verify_bounds",
    "JointPmf",
    "MomentEstimate",
    "Functional",
    "eta_joint_pmf",
    "empirical_joint_pmf",
    "tv_distance",
    "moment_estimates",
    "convergence_scan",
    "SweepSummary",
    "run_all",
    "__version__",
]
