"""Secret key rates for satellite-to-ground CV-QKD links."""

from .channel import (
    AtmosphericConditions,
    LinkBudget,
    LinkGeometry,
    OpticalTerminals,
    SlantPath,
    far_field_bound_m,
    geometric_loss_db,
    link_budget,
    rytov_variance,
    scattering_coefficient_db_per_km,
    scintillation_index,
    scintillation_loss_db,
    slant_path,
    total_transmittance,
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
    NoiseBudget,
    SecurityResult,
    channel_noise,
    g_function,
    gm_security,
    holevo_bound,
    mutual_information_gm,
    skr_asymptotic,
)
from .pass_analysis import (
    PassProfile,
    PassResult,
    integrate_key_bits,
    load_profile,
    synthesize_circular_pass,
)
from .pipeline import LinkColumns, LinkSetup, ProtocolSpec, ReconciliationSpec, \
    evaluate_point, link_columns
from .psk import PskConfig, correlation_z, psk_security, zeta_weights
from .qam import (
    Binomial,
    Constellation,
    DiscreteGaussian,
    FockWorkspace,
    build_constellation,
    coherent_state_vector,
    correlation_lower_bound,
    holevo_qam,
    modulation_density_matrix,
    mutual_information_qam,
    qam_security,
    thermal_workspace,
)
from .quantities import db_to_transmittance, transmittance_to_db

__version__ = "0.1.0"
