"""Exact matroid invariants: the G-invariant, catenary data, and friends.

A matroid is a rank function on subsets of {0, ..., n-1}, supplied by its
presentation (graph, uniform, paving, Dowling, cyclic flats or bases); every
invariant is an exact integer vector.  The package computes the G-invariant
and catenary data, specializes to the Tutte polynomial, implements the
invariant-level construction algebra (duals, truncations, sums, free
products, q-cones, relaxations), extracts flat/circuit censuses,
reconstructs invariants from decks of minors, derives catenary data from
cyclic-flat configurations, and detects free-product factorizations, with
brute-force oracles for all of it.
"""

from .configuration import (Configuration, basis_count_config, canonical_key,
                            catenary_from_config, config_minor,
                            config_truncate, configuration_of,
                            independent_copoint_count)
from .constructions import (cat_direct_sum, cat_qcone,
                            free_product_rank_sequence, g_add_coloop,
                            g_add_loop, g_dual, g_free_coextension,
                            g_free_extension, g_free_product, g_lift,
                            g_relax, g_shuffle, g_truncate)
from .errors import ExactnessError, PresentationError
from .freeproduct import (FactorizationReport, detect_free_product,
                          factor_at_pinchpoint, pinchpoints)
from .ginvariant import (CatenaryData, GInvariant, TuttePolynomial,
                         basis_count, catenary, catenary_from_g,
                         comp_to_seq, compositions, dominates, g_brute_force,
                         g_from_catenary, g_invariant, gamma_expand,
                         gamma_one, paving_catenary,
                         pmd_catenary, seq_to_comp, tutte_brute_force,
                         tutte_from_g)
from .matroid import (Matroid, build_matroid, dowling3, elements_of,
                      from_bases, from_cyclic_flats, from_graph,
                      from_paving_copoints, mask_of, uniform)
from .reconstruction import (Deck, circle_product, circuit_deck,
                             circuit_deck_reconstruct, copoint_deck,
                             girth_deck, girth_deck_reconstruct, rank_deck,
                             reconstruct_from_copoint_deck, recover_n,
                             size_grouped_copoint_deck, slice_assemble)
from .verify import dc_sum_check, run_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
