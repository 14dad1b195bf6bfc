"""Exact minimum-degree stability thresholds for forbidden subgraphs.

The central question: given a graph h of chromatic number r + 1, how large
must the minimum degree of an h-free graph be before it is guaranteed to be
within a vanishing edge fraction of r-partite? This package computes that
threshold exactly as a rational (or as a rigorous interval), constructs the
extremal blow-up families that show the values tight, and ships brute-force
oracles that recheck the machinery on exhaustive small-graph corpora.
"""

from .backend import backend_name
from .classify import (
    DeltaResult,
    classify,
    cycle_join_threshold,
    degree_threshold,
    interval_upper,
    threshold_constant,
)
from .codecs import decode, encode
from .gallery import SEQUENCE, gallery_graph, gallery_weighting, sequence_graph
from .graphs import (
    DegreeProfile,
    Graph,
    Weighting,
    balanced_blow_up,
    blow_up,
    complete,
    cycle,
    cycle_complement,
    degree_profile,
    empty_graph,
    is_bipartite,
    join,
    odd_girth,
    peel_min_degree,
    petersen,
    wheel,
)
from .hom import (
    HomWitness,
    brute_force_homomorphism_exists,
    chromatic_number,
    clique_number,
    cliques_of_size,
    find_coloring,
    has_homomorphism,
    homomorphism_search,
    is_a_locally_bipartite,
    is_k_colorable,
)
from .verify import (
    CorpusSpec,
    VerificationReport,
    brute_min_edits_to_k_partite,
    check_haggkvist,
    check_hom_odd_girth,
    check_locally_bipartite_claims,
    check_properties,
    search_hom_free_lower_bound,
)
from .witness import (
    CertificationReport,
    certify,
    edit_lower_bound,
    scaled_gallery_weighting,
    scan_seed,
)

__version__ = "0.1.0"
