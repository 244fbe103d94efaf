"""Lumped-element ladder modeling of patch antennas.

Pipeline: geometry -> per-cavity R/L/C extraction -> ladder netlist ->
two-port frequency sweep -> band/VSWR/efficiency analysis, with a
least-squares fitter to match a measured or target reflection trace or
a spectral mask.
"""

__version__ = "0.1.0"

from .analysis import (
    BandReport,
    SimilarityReport,
    band_report,
    compare_traces,
    find_bands,
    mismatch_efficiency,
    resonant_frequency,
)
from .elements import (
    LumpedElements,
    MicrostripResult,
    cap_eq_approx,
    eps_eff,
    extract_all,
    ind_eq,
    microstrip,
    res_eq,
    z0_microstrip,
)
from .errors import InputError, NumericalError, RfLadderError
from .fitting import FitProblem, FitResult, Mask, cost, fit
from .geometry import (
    AntennaGeometry,
    Cavity,
    Substrate,
    canonical_cavities,
    canonical_geometry,
    load_geometry,
    serialize_geometry,
)
from .netlist import FeedLine, Netlist, Section, from_elements
from .netlist import parse as parse_netlist
from .netlist import serialize as serialize_netlist
from .network import (
    AbcdMatrix,
    SParameterTrace,
    SweepGrid,
    abcd_to_s,
    cascade,
    input_impedance,
    reflection,
    section_abcd,
    sweep,
    vswr,
)
from .touchstone import read_touchstone, write_touchstone, write_trace_csv

__all__ = [
    "AbcdMatrix",
    "AntennaGeometry",
    "BandReport",
    "Cavity",
    "FeedLine",
    "FitProblem",
    "FitResult",
    "InputError",
    "LumpedElements",
    "Mask",
    "MicrostripResult",
    "Netlist",
    "NumericalError",
    "RfLadderError",
    "SParameterTrace",
    "Section",
    "SimilarityReport",
    "Substrate",
    "SweepGrid",
    "abcd_to_s",
    "band_report",
    "canonical_cavities",
    "canonical_geometry",
    "cap_eq_approx",
    "cascade",
    "compare_traces",
    "cost",
    "eps_eff",
    "extract_all",
    "find_bands",
    "fit",
    "from_elements",
    "ind_eq",
    "input_impedance",
    "load_geometry",
    "microstrip",
    "mismatch_efficiency",
    "parse_netlist",
    "read_touchstone",
    "reflection",
    "res_eq",
    "resonant_frequency",
    "section_abcd",
    "serialize_geometry",
    "serialize_netlist",
    "sweep",
    "vswr",
    "write_touchstone",
    "write_trace_csv",
    "z0_microstrip",
]
