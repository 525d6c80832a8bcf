"""The paper's primary contribution: the analytical latency model.

Everything a model user needs is re-exported here; see
:class:`repro.core.model.AnalyticalModel` for the entry point.
"""

from repro.core.batch import BatchedModel
from repro.core.concentrator import ConcentratorWait, concentrator_pair_wait
from repro.core.inter import InterPairLatency, inter_pair_latency, pair_rates
from repro.core.intra import IntraClusterLatency, intra_cluster_latency
from repro.core.model import AnalyticalModel, ClusterBreakdown, ModelResult, TrafficPatternLike
from repro.core.parameters import (
    NET1,
    NET2,
    ClusterClass,
    ClusterSpec,
    MessageSpec,
    ModelOptions,
    NetworkCharacteristics,
    SystemConfig,
    paper_message,
    paper_system_544,
    paper_system_1120,
)
from repro.core.queueing import MG1Result, mg1_wait
from repro.core.service_times import ServiceTimes, node_channel_time, switch_channel_time
from repro.core.stacked import ResourceRates
from repro.core.stages import PipelineSolution, StagePipeline, solve_pipeline
from repro.core.sweep import LoadSweep, auto_load_grid, find_saturation_load, sweep_load
from repro.core.topology_math import (
    journey_length_pmf,
    mean_journey_links,
    mean_journey_links_closed_form,
    nca_level_counts,
    num_nodes,
    num_switches,
    num_unidirectional_channels,
    radix,
    switches_per_level,
)

__all__ = [
    "AnalyticalModel",
    "BatchedModel",
    "ResourceRates",
    "ModelResult",
    "ClusterBreakdown",
    "TrafficPatternLike",
    "NetworkCharacteristics",
    "ClusterSpec",
    "ClusterClass",
    "SystemConfig",
    "MessageSpec",
    "ModelOptions",
    "NET1",
    "NET2",
    "paper_system_1120",
    "paper_system_544",
    "paper_message",
    "IntraClusterLatency",
    "intra_cluster_latency",
    "InterPairLatency",
    "inter_pair_latency",
    "pair_rates",
    "ConcentratorWait",
    "concentrator_pair_wait",
    "MG1Result",
    "mg1_wait",
    "ServiceTimes",
    "node_channel_time",
    "switch_channel_time",
    "StagePipeline",
    "PipelineSolution",
    "solve_pipeline",
    "LoadSweep",
    "sweep_load",
    "find_saturation_load",
    "auto_load_grid",
    "radix",
    "num_nodes",
    "num_switches",
    "switches_per_level",
    "num_unidirectional_channels",
    "journey_length_pmf",
    "mean_journey_links",
    "mean_journey_links_closed_form",
    "nca_level_counts",
]
