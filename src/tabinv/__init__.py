"""Inversion statistics and cycling bijections on standard Young tableaux."""

from types import ModuleType as _ModuleType

from .enumeration import (
    DistributionPolynomial,
    EquidistributionReport,
    count_syt,
    distribution,
    enumerate_syt,
    equidistribution_report,
    normalize_shape,
    partitions_of,
    skew_catalog,
)
from .foata import (
    BridgeReport,
    bridge_check,
    foata,
    foata_inverse,
    format_permutation,
    parse_permutation,
    perm_inv,
    perm_inverse,
    perm_maj,
    perm_phi_direct,
    perm_phi_stages,
    read_staircase,
    staircase_shape,
    staircase_tableau,
)
from .inversion import (
    ABOVE,
    BELOW,
    AlgorithmError,
    BlockPartition,
    InversionPathSet,
    LatticePath,
    cinv_statistic,
    classify_side,
    comaj_map,
    forward_blocks,
    inv_code,
    inv_statistic,
    inversion_pairs,
    inversion_path,
    inversion_path_set,
    map_trace,
    ne_blocks,
    ne_inversion_path,
    phi,
    phi_k,
    psi,
    psi_k,
)
from .model import (
    Cell,
    Filling,
    Shape,
    ShapeError,
    Tableau,
    TableauError,
    conjugate,
    format_shape,
    make_tableau,
    parse_shape,
    parse_tableau_text,
    render,
    rotate_complement,
    tableau_to_json_dict,
    tableau_to_text,
    validate_filling,
)
from .stats import comaj, descent_set, maj

# The names imported above; not the submodules, which the imports also bind.
__all__ = [name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType)]
