"""Evidential active learning on open-set unlabeled pools.

The package trains a dual-head MLP with a Dirichlet-evidence objective,
decomposes predictive uncertainty into expected entropy and mutual
information, scores head disagreement, and runs multi-cycle pool-based
query experiments against classical baselines, entirely in numpy/scipy.

Each public name is listed once, in its module's ``__all__``.  The
package re-exports those names, and its ``__all__`` joins the lists of
``datasets``, ``evidential``, ``harness``, ``model`` and ``selection`` in
that order; ``cli`` and ``checks`` stay out of its namespace.
"""

from . import datasets, evidential, harness, model, selection
from .datasets import *  # noqa: F403
from .evidential import *  # noqa: F403
from .harness import *  # noqa: F403
from .model import *  # noqa: F403
from .selection import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [n for m in (datasets, evidential, harness, model, selection) for n in m.__all__]
