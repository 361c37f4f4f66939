"""Classical simulator and verification suite for block-encoded density
operators: purified access oracles, certified polynomial transforms,
amplitude-estimation models, and spectrally checked estimators of quantum
entropies and distances."""

__version__ = "0.1.0"

from .encodings import (PurifiedAccessOracle, StatePreparationPair,
                        SubnormalizedDensityOperator, UnitaryBlockEncoding,
                        block_encode_density, dilate, embed, encoding_power,
                        evolve, lcu, linear_combination_density, product,
                        purification_of)
from .estimation import (AmplitudeEstimatorConfig, EstimateReport,
                         ScheduleBudgetError, amplitude_estimate,
                         distribution_to_purified_oracle, estimate_exact_rank,
                         estimate_fidelity, estimate_max_entropy, estimate_rank,
                         estimate_renyi, estimate_trace_distance,
                         estimate_trace_power, estimate_tsallis,
                         estimate_von_neumann, holder_power_norm_check,
                         trace_distance_truncation_bound, trace_estimate,
                         weyl_perturbation_bound)
from .numerics import (ValidationError, exact_quantity, matrix_function,
                       partial_trace, spectral_decompose)
from .polyapprox import (CertificationError, CertifiedPolynomial,
                         approx_interior_indicator, approx_negative_power,
                         approx_positive_power, approx_sqrt_neglog,
                         approx_support_indicator, approx_taylor, approx_threshold)
from .resources import QueryCost
from .transform import (eigenvalue_threshold_projector, positive_power_density,
                        positive_power_unitary, power_unitary, qsvt_density,
                        qsvt_unitary)

__all__ = [name for name in dir() if not name.startswith("_")]
