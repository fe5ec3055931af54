"""conjlab: exact conjugation-graph, character, and derivation machinery
for concrete finitely generated groups."""

from .errors import (
    InternalConsistencyError,
    ModelMismatchError,
    ResourceBudgetError,
    UsageError,
)
from .groups import (
    AtLeast,
    DirectProduct,
    DihedralInf,
    DihedralSemidirect,
    FreeGroup,
    Generator,
    GroupElement,
    GroupModel,
    Heisenberg,
    HeisenbergSemidirect,
    get_model,
    parse_word,
)
from .graph import (
    BCReport,
    ConjEdge,
    ConjGraphBall,
    bc_probe,
    conj_distance,
    conj_neighbors,
    explore_component,
    export_dot,
)
from .ring import GroupRingVector
from .derivations import (
    Derivation,
    Morphism,
    Potential,
    character_from_derivation,
    character_from_potential,
    compose_morphisms,
    g_boundedness_probe,
    identity_morphism,
    leibniz_residual,
    quasi_inner_check,
    stabilisation_probe,
)
from .experiments import (
    AppendixReport,
    AppendixRow,
    InverseSequenceReport,
    LimitReport,
    closed_form_coefficient,
    fmt_float,
    format_table,
    run_appendix,
    run_inverse_sequence_check,
    run_limit_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
