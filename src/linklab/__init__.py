"""Rooted-graph linkage feasibility, certificates, and removable paths."""

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget
from .certificates import (
    CertificateReport,
    GmkAuditReport,
    Verdict,
    base_case_collection,
    critical_base_collection,
    gmk_audit,
    gmk_graph,
    search_collection,
    theorem_check,
    verify_critical_collection,
    verify_linkage_collection,
)
from .connectivity import has_connectivity_at_least, vertex_connectivity
from .errors import (
    InvalidCollectionError,
    InvalidInputError,
    ParseError,
    SearchBudgetExceeded,
)
from .feasibility import (
    LinkagePair,
    RemovableReport,
    find_linkage_pair,
    is_critically_feasible,
    is_feasible,
    removable_path,
    two_linkage,
)
from .graphio import (
    parse_graph,
    parse_graph6,
    parse_roots,
    serialize_graph,
    serialize_graph6,
)
from .graphs import (
    Collection,
    Graph,
    Path,
    RootedGraph,
    augment_rooted,
    contract_collection,
    validate_collection,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    campaign_connected_feasible,
    campaign_exhaustive_small,
    campaign_removable_path,
    gen_random_rooted,
    rooted_instances,
    small_graphs,
)
from .planarity import (
    DiscInstance,
    check_seymour_certificate,
    find_seymour_certificate,
    is_disc_planar,
    is_planar,
    seymour_edge_bound,
)

__version__ = "0.1.0"
