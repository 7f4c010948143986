"""homavg: homothetic weighted averaging for ergodic flows.

Weight measures on the line with exact characteristic functions, torus
windings with exact rigidity times, spectral evaluation of the rescaled
averaging operators, spike-correlation probes, and the rigidity-adapted
nested-interval weights that defeat averaging on rigid flows.
"""

__version__ = "0.1.0"

from .errors import (AccuracyError, InvalidMeasureError,  # noqa: F401
                     LevelInfeasibleError, PresetError)
from .measures import (Convolution, NestedIntervals, PointMass,  # noqa: F401
                       Scaled, SelfSimilar, TableDensity, Triangular,
                       TruncatedGaussian, Uniform, WeightMeasure, convolve,
                       convolution_power, rescale)
from .flows import (BoxSet, QuadraticIrrational, TorusWinding,  # noqa: F401
                    arc_correlation, arc_correlation_exact, circle_rotation,
                    golden_winding, lattice_distance, pell_winding,
                    periodic_winding, rigidity_times)
from .spectral import (BochnerCorrelation, BoxAutocorrelation,  # noqa: F401
                       BoxIndicator, CorrelationModel, FourierObservable,
                       FrequencyBand, Observable, SpectralModel,
                       SpikeCorrelation, arithmetic_spikes, cos_mode,
                       geometric_spikes, lebesgue_band,
                       spectrum_of_observable)
from .engine import (DecayCurve, DescentReport, DeviationEstimate,  # noqa: F401
                     PairIntegral, PointAverage, almost_mixing_probe,
                     convergence_scan, descent_check, difference_density,
                     geometric_grid, l1_deviation, l2_deviation_mc,
                     l2_norm_spectral, pair_correlation_integral,
                     weighted_average_pointwise)
from .adversary import (AdversaryPlan, LevelEstimate, LevelRecord,  # noqa: F401
                        build_adversarial_measure, choose_multiplier,
                        verify_non_almost_mixing)
