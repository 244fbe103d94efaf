"""Lumped-element ladder modeling of patch antennas.

Pipeline: geometry -> per-cavity R/L/C extraction -> ladder netlist ->
two-port frequency sweep -> band/VSWR/efficiency analysis, with a
least-squares fitter to match a measured or target reflection trace or
a spectral mask.

Each public name loads its module on first use, so `import rfladder`
loads no submodule, and numpy only with a name that needs it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each module's public names, as the package gives them
_PUBLIC = {
    "analysis": "BandReport SimilarityReport band_report compare_traces find_bands"
                " mismatch_efficiency resonant_frequency",
    "elements": "LumpedElements MicrostripResult cap_eq_approx eps_eff extract_all ind_eq"
                " microstrip res_eq z0_microstrip",
    "errors": "InputError NumericalError RfLadderError",
    "fitting": "FitProblem FitResult Mask cost fit",
    "geometry": "AntennaGeometry Cavity Substrate canonical_cavities canonical_geometry"
                " load_geometry serialize_geometry",
    "netlist": "FeedLine Netlist Section from_elements",
    "network": "AbcdMatrix SParameterTrace SweepGrid abcd_to_s cascade input_impedance"
               " reflection section_abcd sweep vswr",
    "touchstone": "read_touchstone write_touchstone write_trace_csv",
}
# public name -> (module, the module's name for it)
_SOURCE = {
    **{name: (module, name) for module, names in _PUBLIC.items() for name in names.split()},
    "parse_netlist": ("netlist", "parse"),
    "serialize_netlist": ("netlist", "serialize"),
}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        module, attr = _SOURCE[name]
        value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), attr)
        return value
    if name in _PUBLIC or name == "sinum":
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
