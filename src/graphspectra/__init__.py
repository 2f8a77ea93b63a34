"""Exact spectral polynomials of edge-labeled graphs.

A diffusion pair is a finite simple graph with distinct positive integer
edge labels; edge e carries the symbolic weight Y^label.  The bivariate
polynomial det(X*I - L(Y)) determines, and is recoverable from, the level
spectra obtained by evaluating Y at powers of a prime - and for
subset-sum-distinct labels it determines the graph itself up to
isomorphism.  This package computes everything involved exactly, simulates
and recovers spectra at arbitrary precision, reconstructs graphs from
polynomials, and ships a wire-protocol game exercising the full loop.
"""

from .errors import (AmbiguousClusteringError, PrecisionError,
                     RealizationError, ValidationError)
from .graphs import (DiffusionPair, Graph, Multigraph, build_diffusion_pair,
                     canonical_form, cartesian_product, edge_set_laplacian,
                     graph_from_text, graph_to_text, is_isomorphic,
                     is_subset_sum_distinct, laplacian_matrix,
                     quotient_graph, seminorm_sq, sum_distinct_labels)
from .polynomials import (HomogeneousPart, InterpolationResult,
                          SpectralPolynomial, evaluate_y,
                          interpolate_spectral_poly, laplacian_charpoly,
                          spectral_polynomial, spectral_poly_from_text,
                          spectral_poly_to_text, tangent_cone)
from .forests import (ForestFamily, buslov_polynomial, enumerate_forests,
                      kelmans_coefficients, tree_count)
from .spectra import (ClusterAssignment, SeparationReport, SpectrumSample,
                      cluster_and_assign, prediction_error_ratio,
                      recover_spectral_poly, separation_experiment,
                      simulate_spectrum, spectrum_from_text,
                      spectrum_to_text, sym_eigs)
from .realroots import Dyadic
from .reconstruct import reconstruct_from_polynomial, reconstruct_labeled
from .unipoly import UniPoly

__version__ = "0.1.0"
