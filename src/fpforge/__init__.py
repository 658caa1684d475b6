"""Flag complexes, spherical doubles, finite covers, exact homology,
presentations with spread-power relators, finiteness-property decisions, and
the taut loop length spectrum."""

from .complex_core import (
    GroupPresentationInput,
    SimplicialComplex,
    barycentric_subdivision,
    flagify_presentation_complex,
    has_no_local_cut_points,
    is_flag,
    link,
    validate,
)
from .covers import (
    CoverComplex,
    VoltageAssignment,
    build_cover,
    deck_group,
    double_cover_voltages,
    double_of_cover,
    lift_loop,
    normal_generators,
    verify_covering,
)
from .groups import (
    LoopWord,
    Presentation,
    Word,
    abelianization,
    coset_enumerate,
    deck_group_presentation,
    power_spread,
    quotient_relators,
    raag_presentation,
)
from .homology import (
    ChainComplex,
    HomologySummary,
    RingSpec,
    chain_complex,
    reduced_homology,
    smith_normal_form,
)
from .sigma import (
    CoverRegistryEntry,
    SigmaSpec,
    choose_constants,
    example_registry,
    finitely_presented_decide,
    fp_decide,
    min_disagreement_height,
    min_kernel_length_bound,
    normal_generating_length_bound,
    sigma_field_example,
    sigma_power_tower,
    sigma_prime_set,
    subpresentation_select,
)
from .spectrum import TautSpectrumReport, k_related, separation_ratio_check, taut_spectrum
from .spherical_double import DoubledComplex, retract_word, spherical_double

__version__ = "0.1.0"
