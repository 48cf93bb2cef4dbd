"""Unsupervised estimation of the optimal linear discriminant direction
of a two-component Gaussian location mixture, using third moments."""

from .asymptotics import avar_ae, avar_mom, c0_constant, c_lda, c_skewvec
from .errors import (ConfigError, DegenerateSkewnessError, Error,
                     NearSingularError, NonFiniteError,
                     SupervisionRequiredError, SymmetryError,
                     WeightDivergenceError, WorkerError)
from .estimators import (DirectionEstimate, Whitening, align_sign, est_jade3,
                         est_lda, est_mom, est_pp, est_skewvec, est_tobi,
                         whiten)
from .model import (DataSet, DerivedParams, MixtureParams, PopulationMoments,
                    derive, population_moments, sample)
from .moments import sample_moments, third_moment, tk_slices, tobi_matrix
from .montecarlo import (ExperimentConfig, chat_experiment, msi,
                         msi_experiment, rng_stream)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataSet", "DegenerateSkewnessError", "DerivedParams",
    "DirectionEstimate", "Error", "ExperimentConfig", "MixtureParams",
    "NearSingularError", "NonFiniteError", "PopulationMoments",
    "SupervisionRequiredError", "SymmetryError", "WeightDivergenceError",
    "Whitening", "WorkerError", "align_sign", "avar_ae", "avar_mom",
    "c0_constant", "c_lda", "c_skewvec", "chat_experiment", "derive",
    "est_jade3", "est_lda", "est_mom", "est_pp", "est_skewvec", "est_tobi",
    "msi", "msi_experiment", "population_moments", "rng_stream", "sample",
    "sample_moments", "third_moment", "tk_slices", "tobi_matrix", "whiten",
]
