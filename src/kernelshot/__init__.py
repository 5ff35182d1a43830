"""kernelshot: few-shot prototype classification in kernel feature spaces.

The library provides, through the kernel trick, or through the explicit
feature vector of a linear or polynomial class mean over more points than
the feature dimension:

* kernel families (linear / polynomial / Gaussian) and linear algebra on
  feature-space points (:mod:`kernelshot.kernels`);
* seeded samplers for the supported data domains
  (:mod:`kernelshot.distributions`);
* Monte-Carlo estimators of feature-space ball/cap pre-image volume ratios
  and orthogonality statistics, plus the closed forms known for specific
  kernels (:mod:`kernelshot.geometry`);
* empirical probability functions and numerical evaluation of the few-shot
  success bounds (:mod:`kernelshot.bounds`);
* the prototype classifier with ROC/AUROC evaluation and feature table
  normalisation (:mod:`kernelshot.classifier`);
* feature CSV ingestion, experiment configs, and the CLI
  (:mod:`kernelshot.ingest`, :mod:`kernelshot.experiments`,
  :mod:`kernelshot.cli`).

The package exports ``__version__`` and the ``__all__`` of errors, kernels,
distributions, geometry, bounds, classifier and ingest, and nothing else.
"""

__version__ = "0.1.0"

from . import errors, kernels, distributions, geometry, bounds, classifier, ingest
from .errors import *
from .kernels import *
from .distributions import *
from .geometry import *
from .bounds import *
from .classifier import *
from .ingest import *

__all__ = [
    "__version__",
    *errors.__all__, *kernels.__all__, *distributions.__all__, *geometry.__all__,
    *bounds.__all__, *classifier.__all__, *ingest.__all__,
]
