"""Which-way information versus interference visibility for a particle with
an internal degree of freedom.

The package computes the distinguishability of the environment states
correlated with the two arms of an interferometer, the generalized
visibility of the surviving coherence under any path-preserving channel,
verifies the trade-off D^2 + V_G^2 <= 1, assembles measurable lower bounds
on the visibility from fractional-visibility data, and simulates the
corresponding single-photon counting experiment end to end.
"""

from .bounds import (
    BoundCertificate,
    FilterPair,
    FractionalVisibilityRecord,
    bound_from_visibilities,
    certificate_report,
    fractional_visibility,
    read_records_csv,
    rectilinear_filters,
    rectilinear_preparations,
    single_preparation_certificate,
    swap_certificate,
    verify_alpha_constraint,
    write_records_csv,
)
from .channels import (
    PathChannel,
    Preparation,
    block_choi,
    block_map,
    dilate,
    explicit_transpose_dilation,
    identity_channel,
    load_channel,
    pauli_mixture_channel,
    random_path_channel,
    replace_channel,
    save_channel,
    transpose_channel,
)
from .duality import (
    DualityReport,
    distinguishability,
    environment_states,
    generalized_visibility,
    verify_inequality,
    visibility_operator,
)
from .errors import (
    ContractionError,
    ConventionError,
    DimensionError,
    NonFiniteError,
    NumericalError,
    PositivityError,
    SupportError,
    WhichWayError,
)
from .interferometer import (
    FringeDataset,
    NoiseRow,
    RowReport,
    binomial_resample,
    fit_fringes,
    fit_report,
    jones_matrix,
    pauli_noise_program,
    program_channel,
    read_dataset_csv,
    run_experiment,
    simulate_fringes,
    verify_noise_program,
    write_dataset_csv,
)
from .linalg import (
    ket,
    matrix_sqrt,
    partial_trace,
    trace_norm,
)

__version__ = "0.1.0"
