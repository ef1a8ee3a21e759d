"""Fast-decodable full-rate 2x2 space-time block code toolkit."""

from .codes import (
    DesignCoefficient,
    DifferenceTuple,
    build_codeword,
)
from .constellations import (
    Constellation,
    NORMALIZATIONS,
    constellation_by_id,
    difference_set,
    make_apsk16_dvbs2,
    make_apsk8_conventional,
    make_apsk_grid,
    make_psk,
    make_qam,
)
from .gain import (
    GainReport,
    coding_gain,
    coding_gain_scaled,
    golden_coding_gain,
)
from .number_theory import (
    euler_four_square,
    run_sweeps,
    verify_lemma1_bound,
)
from .optimizer import (
    CaseOneInvariantTable,
    OptimizationResult,
    Optimum,
    analytic_integer_optimum,
    build_case1_table,
    optimize,
    optimize_step1,
    vanishing_probe,
    verify_step2,
)
from .simulate import (
    SimConfig,
    SimPoint,
    SimResult,
    diversity_slope,
    fast_decode,
    ml_decode_exhaustive,
    run_ber,
    transmit,
)

__version__ = "0.1.0"
