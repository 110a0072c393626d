"""3-uniform hypergraph toolkit: codegree arithmetic, covering checks,
extremal constructions, and exact tiny-n threshold search."""

from .core import (
    Hypergraph3,
    LinkGraph,
    dumps_h3,
    loads_h3,
    write_h3,
    load_h3,
    triple_rank,
)
from .patterns import (
    CATALOG,
    Pattern,
    pattern,
    pattern_from_graph,
    degeneracy,
    greedy_cover_bound,
    embed_covering,
    greedy_embed,
    uncovered_vertices,
)
from .constructions import (
    AdmissiblePairSet,
    ConstructionClaims,
    Tripartition,
    admissible_sample,
    blow_up,
    f1,
    f1_variant,
    f2,
    f3,
    f4,
    f32_tripartite,
    fano_bipartite,
    steiner,
    sts,
)
from .analysis import (
    BoundBracket,
    RecoveredPartition,
    SearchReport,
    SyClass,
    VerificationReport,
    c2_bounds,
    c2_exact,
    classify_sy,
    recover_partition,
    verify_construction,
)

__version__ = "0.1.0"
