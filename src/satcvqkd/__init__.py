"""Secret key rates for satellite-to-ground CV-QKD links."""

from .channel import (
    AtmosphericConditions,
    LinkBudget,
    OpticalTerminals,
    Site,
    SlantPath,
    far_field_bound_m,
    geometric_loss_db,
    link_budget,
    rytov_variance,
    scattering_coefficient_db_per_km,
    scintillation_index,
    scintillation_loss_db,
    slant_path,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CutoffTooSmall,
    FarFieldViolation,
    GeometryError,
    NumericsError,
    ProfileError,
    SatCvqkdError,
    UnphysicalCovariance,
)
from .finite_size import (
    MD,
    MLC_MSD,
    FiniteSizeParams,
    ReconciliationModel,
    beta,
    fer,
    privacy_penalty,
    skr_finite,
    snr_db,
)
from .gaussian import (
    DAYLIGHT_NOISE,
    Detection,
    KeyConstants,
    NoiseBudget,
    SecurityResult,
    channel_noise,
    covariance_security,
    g_function,
    gm_security,
    holevo_bound,
    mutual_information_gm,
    mutual_information_qam,
    skr_asymptotic,
)
from .pass_analysis import (
    PassProfile,
    PassResult,
    integrate_key_bits,
    load_profile,
    synthesize_circular_pass,
)
from .pipeline import LinkColumns, LinkSetup, ProtocolSpec, Reconciliation, evaluate_point, \
    key_constants, link_columns
from .psk import correlation_z, psk_security, zeta_weights
from .qam import (
    Binomial,
    Constellation,
    DiscreteGaussian,
    FockWorkspace,
    build_constellation,
    correlation_lower_bound,
    modulation_density_matrix,
    qam_security,
    thermal_workspace,
)
from .quantities import db_to_transmittance

__version__ = "0.1.0"
