"""Ownership-network analytics toolkit."""

from .errors import (
    ConvergenceError,
    FitError,
    GraphError,
    InvariantError,
    LoadError,
    OwnetError,
    PipelineError,
)
from .graph import (
    NodeRecord,
    OwnershipEdge,
    OwnershipGraph,
    SubstantialView,
    build_graph,
    induced_subgraph,
    load_edges,
    load_graph,
    load_nodes,
    substantial_view,
)
from .components import (
    BowTie,
    ComponentLabeling,
    bowtie_decompose,
    component_size_histogram,
    distance_distribution,
    strong_components,
    weak_components,
)
from .netstats import (
    clustering_by_degree,
    degree_histogram,
    fit_power_law,
    knn_by_degree,
)
from .community import (
    detect_communities,
    map_equation,
    stationary_flow,
)
from .mnc import SubtreeTable, subtree_table
from .keyfirms import (
    Role,
    classify_all,
    conduit_centrality,
    hierarchical_identify,
    holding_centrality,
    third_country,
)
from .jurisdiction import (
    conduit_outward_centrality,
    link_flows,
    ols_regression,
    sink_centrality,
)
from .pipeline import RunConfig, run_pipeline, write_report

__version__ = "0.1.0"
