"""skewdyn: small-divisor arithmetic, truncated-series normal forms and
parabolic orbit dynamics for polynomial skew-products over a rotation."""

__version__ = "0.1.0"

from .errors import (DegenerateDivisorError, LinearFiberError, PrecisionError,
                     SkewdynError, TruncationMismatchError)
from .scaled import ScaledComplex
from .rotation import (DivisorTable, RotationNumber, brjuno_partial_sum,
                       cremer_exponent, cremer_running_max, divisor_table,
                       lam_power, liouville_quotients, rotation_from_json,
                       rotation_to_json, unit_column, write_divisor_csv)
from .series import (Bump, FiberChange, Gauge, Shift, SkewGerm,
                     TruncatedSeries, WScale, conjugate, germ_from_json,
                     germ_to_json, reversion_in_w, rotate)
from .normalform import (ChangeLog, NormalForm, conjugacy_defect,
                         detect_parabolic_order, normalize,
                         reduce_parabolic_tail,
                         solve_invariant_curve, solve_linear_gauge,
                         solve_order_bump)
from .cremer import (GreedyResult, GrowthProfile, greedy_quadratic,
                     growth_profile, linear_example_phi, write_growth_csv)
from .petals import (BASIN, ESCAPE, PETAL, UNDECIDED, ConstantVerticalMap,
                     FatouGrid, HypothesisReport, OrbitRecord, ParabolicLocal,
                     SampleReport, Verdict,
                     critical_orbit_check, directions_for_jet, fatou_slice,
                     forward_invariance_check, iterate_orbit,
                     repelling_expansion_check, vertical_derivative_sum)

__all__ = [name for name in dir() if not name.startswith("_")]
