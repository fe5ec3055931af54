"""conjlab: exact conjugation-graph, character, and derivation machinery
for concrete finitely generated groups."""

from .errors import (
    InternalConsistencyError,
    ResourceBudgetError,
    UsageError,
)
from .groups import (
    AtLeast,
    DirectProduct,
    DihedralInf,
    DihedralSemidirect,
    FreeGroup,
    GroupModel,
    Heisenberg,
    HeisenbergSemidirect,
    get_model,
    parse_word,
)
from .graph import (
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
    Potential,
    character,
    g_boundedness_probe,
    leibniz_residual,
    quasi_inner_check,
    stabilisation_probe,
)
from .experiments import (
    run_appendix,
    run_inverse_sequence_check,
    run_limit_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
