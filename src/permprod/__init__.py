"""Cycle statistics of products of conjugation-invariant random permutations.

A laboratory in seven layers: the permutation type and the listing of
a symmetric group (perms), batched samplers for invariant laws
(samplers), the directed-graph machinery that encodes how a product
cycle reads its factors (cyclegraphs), a rational-arithmetic oracle over
small symmetric groups (oracle), Monte Carlo estimators against Poisson
reference laws (stats), exhaustive verification suites (sweeps), and a
command-line front end (cli).

Importing the package executes none of the first six layers. Each is
registered in ``sys.modules`` and as an attribute of the package, and
executes on first attribute use: ``permprod.stats.draw_chunks``,
``from permprod.stats import draw_chunks`` and a re-export such as
``permprod.Functional`` all execute ``stats`` (and what it imports),
while ``from permprod import stats`` alone does not. So a process pays
only for the layers its work reaches: ``exact`` executes ``oracle`` and
``samplers``, the Monte Carlo commands add ``stats``, and
``verify-lemmas`` executes every layer but ``perms`` and ``stats``. No
command executes ``perms``; the tests' brute-force references read it.
``cli`` is not registered; it is imported as usual, as the entry point.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each re-export, in __all__'s order, by the layer that defines it.
_EXPORTS = {
    "Permutation": "perms",
    "RngStream": "samplers",
    "SamplerSpec": "samplers",
    "DirectedGraph": "cyclegraphs",
    "TraversalRecord": "cyclegraphs",
    "traversal": "cyclegraphs",
    "enumerate_B": "cyclegraphs",
    "ExactDistribution": "oracle",
    "exact_moment": "oracle",
    "exact_joint_cycle_prob": "oracle",
    "verify_bounds": "oracle",
    "JointPmf": "stats",
    "MomentEstimate": "stats",
    "Functional": "stats",
    "eta_joint_pmf": "stats",
    "empirical_joint_pmf": "stats",
    "tv_distance": "stats",
    "moment_estimates": "stats",
    "convergence_scan": "stats",
    "SweepSummary": "sweeps",
    "run_all": "sweeps",
}

__all__ = [*_EXPORTS, "__version__"]


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


perms, samplers, cyclegraphs, oracle, stats, sweeps = (
    _register_lazily(name)
    for name in ("perms", "samplers", "cyclegraphs", "oracle", "stats", "sweeps")
)


def __getattr__(name: str):
    try:
        layer = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)
