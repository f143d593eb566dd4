"""Discrepancy certificates and monochromatic-rectangle extraction for
low-rank binary matrices.

Public surface:

  matrix          BinaryMatrix, WeightedBinaryMatrix, rank, blow_up, ...
  oracle          exact disc / disc0 / half-rectangle enumeration
  spectral        eigendecomposition, PSD witness, certified lower bound
  decrement       density-decrement loop and monochromatic extraction
  constructions   seeded generators and fixtures
  experiment      CSV experiment harness
"""

from .config import DEFAULT, Config
from .constructions import (GenSpec, fixtures, planted_sparse, random_binary,
                            random_dense, regular_blowup, tightness_matrix)
from .decrement import (DecrementStep, DecrementTrace, MonoResult,
                        PermutationWitness, StepRecord, adjust_to_half,
                        decrement_step, find_mono, gram_vectors,
                        round_to_rect, zero_submatrix_sparse)
from .errors import (CapacityError, CertificateError, DecrementStalled,
                     EigenError, LowRankDiscError, MatrixParseError,
                     RankWitnessError, RegimeError)
from .experiment import (CSV_HEADER, ExperimentConfig, ReportRow, render_csv,
                         run_experiment)
from .matrix import (BinaryMatrix, WeightedBinaryMatrix, blow_up, complement,
                     rank, submatrix)
from .oracle import (Rectangle, SignVectorPair, best_half_rect, best_rect,
                     best_rect_pair, disc0_plus, disc_minus, disc_plus,
                     disc_value, heuristic_rect)
from .spectral import (DiscCertificate, SpectralData, eigendecompose,
                       lower_bound_disc, symmetrize, truncate_high_degree,
                       witness)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix", "CSV_HEADER", "CapacityError", "CertificateError",
    "Config", "DEFAULT", "DecrementStalled", "DecrementStep", "DecrementTrace",
    "DiscCertificate", "EigenError", "ExperimentConfig", "GenSpec",
    "LowRankDiscError", "MatrixParseError", "MonoResult", "PermutationWitness",
    "RankWitnessError", "Rectangle", "RegimeError", "ReportRow",
    "SignVectorPair", "SpectralData", "StepRecord", "WeightedBinaryMatrix",
    "adjust_to_half", "best_half_rect", "best_rect", "best_rect_pair",
    "blow_up", "complement", "decrement_step", "disc0_plus", "disc_minus",
    "disc_plus", "disc_value", "eigendecompose", "find_mono", "fixtures",
    "gram_vectors", "heuristic_rect", "lower_bound_disc", "planted_sparse",
    "random_binary", "random_dense", "rank", "regular_blowup", "render_csv",
    "round_to_rect", "run_experiment", "submatrix", "symmetrize",
    "tightness_matrix", "truncate_high_degree", "witness",
    "zero_submatrix_sparse",
]
