"""Named tolerances of every floating-point decision.

Matrix entries here are small integers and surds and spectra are well
separated, so these are generous at desk scale.  This module imports
nothing, so the command line can take its defaults from it without loading
numpy.
"""

RANK_TOL = 1e-9       # relative rank / linear-independence decisions
CLUSTER_TOL = 1e-8    # eigenvalue clustering, relative to spectral radius
# Rank decisions on the generators' trace parts (the center dimension)
# compound restriction error on top of the closure tolerance, hence the
# looser default.
VERDICT_RANK_TOL = 1e-7
# Two full blocks are linked when the intertwiner equations between them
# have a relative singular value below this: about 1e-15 for an exact
# intertwiner, tenths for the preset pairs.
LINK_TOL = 1e-6
