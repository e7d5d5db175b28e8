"""Calabi-Yau structures around special Lagrangian tori, as truncated power
series, plus the admissibility test for one-parameter torus families and the
semi-flat obstruction curve Phi(t).

The package re-exports the names of the README's library example; every
other public name is imported from its module (``slagcy.jets``,
``slagcy.solver``, ``slagcy.families``, ``slagcy.hodge``, ``slagcy.dsl``)."""

from .families import family_from_entries, family_to_policy, metric_jets
from .jets import Jet
from .solver import check_structure, solve_calabi_yau

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: hodge samples grids, so importing it loads numpy
    if name != "phi_curve":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .hodge import phi_curve
    return phi_curve
