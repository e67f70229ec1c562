"""Path-sensitive symbolic execution engine."""

from .engine import (  # noqa: F401
    AnalysisConfig, AnalysisResult, BlockEdgePoint, CallEnterPoint,
    CallExitPoint, CallInfo, CheckerContext, dump_dot, Engine, ExplodedGraph,
    ExplodedNode, PostImplicitCallPoint, PostStmtPoint, PreStmtPoint,
)
from .state import assume, assume_relation, INFEASIBLE, ProgramState  # noqa: F401
from .values import (  # noqa: F401
    as_symbol, FieldRegion, IMAX, IMIN, LocVal, MemRegion, RangeSet,
    region_root, region_type, region_within, RetRegion, SVal, sym_add,
    sym_mul, Symbol, SymExpr, SymIntOp, SymRegion, TempRegion, UNDEFINED,
    UndefinedVal, UNKNOWN, UnknownVal, val_symbols, VarRegion,
)
