"""Constructive toolkit for virtual Schottky groups.

Builds Moebius groups from seven basic one- and two-generator pieces,
combines them along certified disc configurations (free products and
HNN extensions with machine-checked ping-pong hypotheses), computes
kernel ranks of quotients onto finite abelian groups, enumerates the
admissible cyclic-quotient signatures with their genus formula, and
samples limit sets for disconnectedness and decay diagnostics.
"""

from .basic_groups import (BasicGroup, BasicGroupError, Gluing,
                           OrbifoldSignature, PairingConstructionError,
                           make_b3, make_basic, orbifold_signature)
from .combination import (AssembledGroup, CombinationError, GroupData, Leaf,
                          PlacementChain, assemble, chain_leaves,
                          check_precisely_invariant, free_product,
                          hnn_extension, resolve_generator_word,
                          station_boundary, station_frame,
                          uncertified_free_product)
from .cyclic_case import (CyclicConstruction, CyclicSignature, build_cyclic,
                          describe, enumerate_signatures, isomorphism_type,
                          kernel_genus, stream_signatures)
from .group_algebra import (FiniteAbelianGroup, LeafSymbolic, QuotientMap,
                            RankReport, enumerate_elements,
                            euler_characteristic, kernel_rank, normal_form,
                            symbolic_model, validate_theta)
from .limitset import (DisconnectednessReport, LimitSetSample,
                       disconnectedness_report, export_lines, render, sample)
from .moebius import (INF, TOL, MoebiusMap, chordal, classify, fixed_points,
                      is_identity_map, projectively_equal, sphere_point)
from .schottky import (Check, CheckReport, DegeneratePairingError,
                       PairingSystem, count_reduced_words, letter_discs,
                       ping_pong_disc, reduced_words, verify_pairing,
                       word_census)
from .sphere_geometry import (SphereCircle, SphereDisc, disc_contains,
                              disc_image, disc_relation, image_relation,
                              inversive_product, map_circle)

__version__ = "0.1.0"

__all__ = [
    "AssembledGroup", "BasicGroup", "BasicGroupError", "Check",
    "CheckReport", "CombinationError", "CyclicConstruction",
    "CyclicSignature", "DegeneratePairingError", "DisconnectednessReport",
    "FiniteAbelianGroup", "Gluing", "GroupData",
    "INF", "Leaf", "LeafSymbolic", "LimitSetSample",
    "MoebiusMap", "OrbifoldSignature", "PairingConstructionError",
    "PairingSystem", "PlacementChain", "QuotientMap", "RankReport",
    "SphereCircle", "SphereDisc", "TOL", "assemble", "build_cyclic",
    "chain_leaves", "check_precisely_invariant", "chordal", "classify",
    "count_reduced_words", "describe", "disc_contains", "disc_image",
    "disc_relation", "disconnectedness_report", "enumerate_elements",
    "enumerate_signatures", "euler_characteristic", "export_lines",
    "fixed_points", "free_product", "hnn_extension", "image_relation",
    "inversive_product",
    "is_identity_map", "isomorphism_type", "kernel_genus", "kernel_rank",
    "letter_discs", "make_b3", "make_basic", "map_circle", "normal_form",
    "orbifold_signature", "ping_pong_disc", "projectively_equal",
    "reduced_words", "render", "resolve_generator_word", "sample",
    "sphere_point", "station_boundary",
    "station_frame", "stream_signatures", "symbolic_model",
    "uncertified_free_product",
    "validate_theta", "verify_pairing", "word_census",
]
