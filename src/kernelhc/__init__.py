"""Divisive hierarchical clustering driven by distributional kernels."""

from . import baseline, corecluster, datasets, dendro, graphs, hier, ikernel, metrics
from .baseline import BisectConfig, bisect_kmeans
from .corecluster import CoreClusterSet, ik_dbscan_cores, kmeans_cores, kpskc, select_subset
from .datasets import LabeledDataset, generate_mixture, load_csv, paper_analog, save_csv
from .dendro import (
    Dendrogram,
    ahc_build,
    dendrogram_purity,
    topology_equal,
    tsc,
    tsc_global_p,
    tsc_local,
)
from .graphs import AttributedGraph, wl_embed
from .hier import RunConfig, RunResult, assign_points, build_tree, refine, run
from .ikernel import GdkOps, IdkOps, IsolationModel, fit_isolation_model
from .metrics import ari, nmi

__version__ = "0.1.0"
