"""Named tolerances of every floating-point decision.

Matrix entries here are small integers and surds and spectra are well
separated, so these are generous at desk scale.  This module imports
nothing, so the command line can take its defaults from it without loading
numpy.
"""

RANK_TOL = 1e-9       # relative rank / linear-independence decisions
CLUSTER_TOL = 1e-8    # eigenvalue clustering, relative to spectral radius
# Rank decisions on restricted blocks compound restriction error on top of
# the closure tolerance, hence the looser default.
VERDICT_RANK_TOL = 1e-7
