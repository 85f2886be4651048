"""Quasi-stationary distributions of absorbed Markov processes.

Exact finite-chain engine (conditioned evolution, Perron spectra,
two-sided-estimate certificates, pair-minorization constants), killed
diffusion simulation with boundary-crossing correction, particle
estimators of conditioned laws, and numerical certificates for
exponential TV mixing of conditioned semigroups.
"""

from .chains import (
    FiniteAbsorbedChain,
    SpectralData,
    TwoSidedCertificate,
    check_condition_A_prime,
    evolve_conditioned,
    fit_two_sided,
    load_chain,
    parse_chain_text,
    qsd_spectral,
    survival_ratio,
    verify_theorem_2_1,
)
from .domains import Ball, BallTarget, Box, InnerCompact, Interval
from .measures import (
    BinGrid,
    Measure,
    histogram_from_samples,
    lipschitz_constant,
    tv_distance,
)
from .models import DiffusionModel, brownian_interval, build_model, validate_model
from .particles import (
    FlemingViotResult,
    ParticleCloud,
    conditional_rejection,
    conditioned_law_series,
    fleming_viot_run,
    lambda0_estimate,
)
from .report import Check, VerificationReport
from .scale1d import (
    DriftedBMParams,
    escape_bounds_check,
    expected_exit_time,
    green_constants,
    lemma32_verify,
    scale_function,
    scale_inverse,
)
from .simulate import (
    AbsorbedPath,
    PathConfig,
    hitting_before,
    simulate_path,
    split_survival_profile,
    survival_probability,
    survival_snapshots,
    tube_probability,
)

__version__ = "0.1.0"
