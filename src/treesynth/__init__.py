"""Approximate logic synthesis via depth-bounded optimal decision trees.

The pipeline: parse a combinational netlist into an AIG, partition it into
cells with bounded boundary widths, learn one optimal decision tree per
cell output over the cell's full truth table, resynthesize the trees into
logic, and greedily substitute cells under a global error budget.
"""

from .aig import (Aig, AigBuilder, AigError, and_count, cleanup, compose,
                  simulate_words)
from .aiger import parse_aiger, write_aiger
from .blif import parse_blif, write_blif
from .dataset import Dataset, DatasetError, parse_pla, truth_tables, write_pla
from .explore import ExplorationConfig, explore, replay
from .odt import DecisionTree, OdtError, SearchBudget, fit_optimal, predict
from .partition import PartitionConfig, partition
from .qor import qor_exhaustive, qor_monte_carlo
from .synth import approx_sub_circuit, tree_to_aig, trees_to_aig

__version__ = "0.1.0"

__all__ = [
    "Aig", "AigBuilder", "AigError", "and_count", "cleanup", "compose",
    "simulate_words",
    "parse_aiger", "write_aiger", "parse_blif", "write_blif",
    "Dataset", "DatasetError", "parse_pla", "truth_tables", "write_pla",
    "ExplorationConfig", "explore", "replay",
    "DecisionTree", "OdtError", "SearchBudget", "fit_optimal", "predict",
    "PartitionConfig", "partition", "qor_exhaustive", "qor_monte_carlo",
    "approx_sub_circuit", "tree_to_aig", "trees_to_aig",
]
