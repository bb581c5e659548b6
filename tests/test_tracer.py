"""The benchmark's span tracer still finds every layer it wraps and counts
every tree search's expansions."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# in a child process, so the wrappers never touch this process's modules
PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
print(json.dumps(tracer.missing))
"""


def test_tracer_wraps_every_layer():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == []


# fits a cell truth table of add8u, which the search solves as a table,
# through the traced fit_optimal and through a plain search
EXPANSIONS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from treesynth import odt, synth
from treesynth.aiger import parse_aiger
from treesynth.dataset import truth_tables
from treesynth.partition import PartitionConfig, partition
plain = odt._Search
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
circuit = parse_aiger(open(sys.argv[3]).read())
part = max(partition(circuit, PartitionConfig(initial_parts=10)),
           key=lambda part: part.extracted.num_inputs)
data = truth_tables(part.extracted)[0]
budget = odt.SearchBudget(max_depth=4)
tracer.active = True
synth.fit_optimal(data, budget)
tracer.active = False
search = plain(data, budget)
search.run()
print(json.dumps([search.cube, tracer.counters["odt.expansions"],
                  search.expansions]))
"""


def test_tracer_counts_table_search_expansions():
    done = subprocess.run(
        [sys.executable, "-c", EXPANSIONS, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(ROOT / "benchmarks" / "add8u.aag")],
        capture_output=True, text=True, timeout=60, check=True)
    cube, traced, plain = json.loads(done.stdout)
    assert cube
    assert traced == plain > 0


# a traced explore of add8u at 0.10, called through the module attribute
# the tracer wraps
EXPLORE = """
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from treesynth import ExplorationConfig, PartitionConfig, parse_aiger
explore = importlib.import_module("treesynth.explore").explore
circuit = parse_aiger(open(sys.argv[3]).read())
tracer.active = True
explore(circuit, ExplorationConfig(
    error_threshold=0.10, partition=PartitionConfig(initial_parts=10)))
tracer.active = False
print(json.dumps(tracer.counters))
"""


def test_tracer_counts_every_scored_candidate():
    # each candidate's error goes through the traced search_qor, so the
    # scorer's counters keep their values whatever the scorer's design
    done = subprocess.run(
        [sys.executable, "-c", EXPLORE, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(ROOT / "benchmarks" / "add8u.aag")],
        capture_output=True, text=True, timeout=60, check=True)
    counters = json.loads(done.stdout)
    assert (counters["explore.candidates"], counters["qor.search.calls"],
            counters["explore.rejected_budget"],
            counters["explore.accepted"]) == (101, 101, 46, 16)
