"""nogo-lab: machine checks for hidden-variable models of quantum systems.

The library turns the classical-embeddability question for finite
quantum systems into finitely checkable computations: operator identities
behind forced commutativity, phase-space axiom checkers, uniqueness of the
conditioned state, and exact rational feasibility of measurement scenarios
(CHSH, parity squares, state-forced parity games).

Importing the package loads no numpy: the operator roles below load their
layer on first use (PEP 562), and each other module loads on its own import,
so a command pays only for its layer.
"""

__version__ = "0.1.0"

from .check import CLUSTER_GAP, TOL  # noqa: F401


def __getattr__(name: str):
    if name in ("Density", "Observable", "Projector"):
        from . import quantum

        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
