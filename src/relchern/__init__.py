"""Exact intersection-theory engine for projective-bundle pushforwards,
relative Chern classes of hypersurface fibrations and Euler-characteristic
formulas, over arbitrary-precision rational arithmetic."""

from .ring import (ChowError, ChowPoly, ChowRing, ContextError, GradeError,
                   NonUnitError, Symbol, SymbolError, expand_ratio)
from .pushforward import (BundleError, BundleSpec, ProjClass,
                          divided_difference, inverse_total_chern,
                          normalize_twist, pushforward_closed_form,
                          pushforward_power, pushforward_series)
from .bases import (FormalBase, ModeError, ProjectiveSpaceBase,
                    SpecializationError, specialize)
from .fibration import (FermatFamily, HypersurfaceSpec, StratumData,
                        UnsupportedDegreeError, alpha_class,
                        euler_characteristic, q_class, q_class_display,
                        q_rational, relative_chern_class,
                        smooth_hypersurface_euler, svw_components)
from .expressions import ParseError, evaluate, parse_class_expr, render_expr
from .render import class_to_json, to_latex, to_text

__version__ = "0.1.0"

__all__ = [
    "BundleError", "BundleSpec", "ChowError", "ChowPoly", "ChowRing",
    "ContextError", "FermatFamily", "FormalBase", "GradeError",
    "HypersurfaceSpec", "ModeError", "NonUnitError", "ParseError",
    "ProjClass", "ProjectiveSpaceBase", "SpecializationError", "StratumData",
    "Symbol", "SymbolError", "UnsupportedDegreeError", "alpha_class",
    "class_to_json", "divided_difference", "euler_characteristic", "evaluate",
    "expand_ratio", "inverse_total_chern", "normalize_twist",
    "parse_class_expr", "pushforward_closed_form", "pushforward_power",
    "pushforward_series", "q_class", "q_class_display", "q_rational",
    "relative_chern_class", "render_expr", "smooth_hypersurface_euler",
    "specialize", "svw_components", "to_latex", "to_text",
]
