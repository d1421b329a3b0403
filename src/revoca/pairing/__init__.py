"""Self-contained BLS12-381: tower fields, groups, optimal ate pairing."""

from .fields import P, R, BLS_X  # noqa: F401
from .curves import (  # noqa: F401
    G1_GEN,
    G2_GEN,
    PointDecodeError,
    g1_add,
    g1_comb,
    g1_from_bytes,
    g1_in_subgroup,
    g1_mul,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_comb,
    g2_from_bytes,
    g2_in_subgroup,
    g2_mul,
    g2_neg,
    g2_to_bytes,
)
from .pairing import (  # noqa: F401
    final_exponentiation,
    g2_lines,
    gt_comb,
    gt_from_bytes,
    gt_pow,
    gt_to_bytes,
    pairing_product,
)
