"""Regular graph covers via 3-connected reduction.

Half-edge multigraphs with colored/typed edges, automorphism groups and
semiregular subgroups, block-trees, atoms, the atom-replacing reduction
series, regular quotients with their expansion back through the reduction,
and a brute-force regular-cover decision, all at desk scale.
"""

from .atoms import (Atom, PrimitiveClass, atom_symmetry_type,
                    classify_primitive, extended_atom, find_atoms)
from .blocks import BlockTree, attached_subgraph, block_tree, central_element
from .errors import GraphError, InternalError, ParseError, SizeLimitError
from .graph import (Graph, GraphBuilder, connected_components, degree,
                    normalize, validate, with_halvable_edges)
from .groups import (Group, all_subgroups, automorphism_group,
                     conjugacy_classes_of_subgroups, count_automorphisms,
                     is_semiregular, orbits, semiregular_subgroups)
from .iso import are_isomorphic, canonical_form
from .quotient import (AtomQuotientSet, Quotient, all_quotients,
                       atom_projection_type, atom_quotients, expand_step,
                       quotient, regular_cover_test)
from .reduction import (ReductionSeries, ReductionStep, kernel_order,
                        reduce_step, reduction_epimorphism, reduction_series)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
