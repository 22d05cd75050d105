"""Block-diagram to synchronous-dataflow translation and verification."""

from .errors import (AlgebraicLoopError, DeadlockError, DepthWarning,
                     InconsistentError, NonHarmonicError, NormalizationError,
                     ResolutionError, SchemaError, SdflowError, ShapeError,
                     SignalTypeError, UnderflowError, UnsupportedKindError,
                     ValidationFailed)
from .model_ir import (Block, BlockModel, Connection, SampleTime, SignalSpec,
                       load_model, load_model_file, save_model)
from .validator import Violation, check_requirements
from .normalizer import NormalizedModel, normalize
from .sdf_core import (Actor, Channel, ConsistencyReport, Port, Schedule, Sdfg,
                       aligned_repetition, build_schedule, check_consistency,
                       check_schedule, export_dot, load_sdfg, repetition_vector,
                       save_sdfg, sil_span)
from .translator import TranslationReport, rate_transition_rates, translate
from .interpreter import Comparison, Trace, compare_traces, run_mil, run_sil
from .codegen import SourceBundle, emit_bundle

__all__ = [
    "Actor", "AlgebraicLoopError", "Block", "BlockModel", "Channel",
    "Comparison", "Connection", "ConsistencyReport", "DeadlockError",
    "DepthWarning", "InconsistentError", "NonHarmonicError",
    "NormalizationError", "NormalizedModel", "Port", "ResolutionError",
    "SampleTime", "Schedule", "SchemaError", "SdflowError", "Sdfg",
    "ShapeError", "SignalSpec", "SignalTypeError", "SourceBundle", "Trace",
    "TranslationReport", "UnderflowError", "UnsupportedKindError",
    "ValidationFailed", "Violation", "aligned_repetition", "build_schedule",
    "check_consistency", "check_requirements", "check_schedule",
    "compare_traces", "emit_bundle", "export_dot", "load_model",
    "load_model_file", "load_sdfg", "normalize", "rate_transition_rates",
    "repetition_vector", "run_mil", "run_sil", "save_model", "save_sdfg",
    "sil_span", "translate",
]
