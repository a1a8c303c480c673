"""coarsegeo: desk-scale coarse geometry of combinatorial surface models.

Modules
-------
hypgraph    distance handles, Farey thinness on the exact geodesics,
            unparametrized quasi-geodesic tests
effdiff     coarse length, efficiency, the differentiation scale search,
            sub-box extraction over hyperbolic targets
surfmodel   Farey-graph curve complexes, markings, subsurface
            projections, twisting numbers, the distance formula
consreal    consistency conditions, realization, projection audits
bbf         transversal families, projection graphs, quasi-trees, the
            product embedding
pathsflats  preferred paths, hulls, centers, backtrack extraction,
            standard flats, antichains, fellow traveling
harness     seeded generators, calibration, pipeline and rank
            experiments, command line interface
"""

# not harness: `python -m coarsegeo.harness` must be its first import
from . import bbf, consreal, effdiff, hypgraph, pathsflats, surfmodel
from .constants import Constants, default_constants

__version__ = "0.1.0"

__all__ = [
    "bbf", "consreal", "effdiff", "harness", "hypgraph", "pathsflats",
    "surfmodel", "Constants", "default_constants", "__version__",
]
