"""Experiment scenario builders.

One module per group of paper experiments; each function returns plain
data (rows / series) that the benchmark harness prints and asserts on,
and the examples visualize.  See DESIGN.md §4 for the experiment index.
"""

from .ablations import (
    ablate_cooldown,
    ablate_headroom_probing,
    ablate_hybrid_heuristic,
    ablate_online_profiling,
    ablate_routing_strategy,
    ablate_stability_guards,
)
from .common import AppHandle, ExperimentEnv, build_env, deploy_app, run_timeline
from .migration import (
    fig8_migration_timeline,
    fig12_video_query_interval,
    fig13_socialnet_migration,
    fig14a_restart_cdf,
    fig14b_scheduler_cdf,
    fig15b_video_thresholds,
    table1_migration_iterations,
)
from .motivation import (
    fig2_bandwidth_variation,
    fig4_pion_bottleneck,
    fig5_socialnet_throttle,
)
from .multi_tenant import (
    MultiTenantResult,
    StreamPairApp,
    multi_tenant_contention,
    multi_tenant_mesh,
)
from .overheads import (
    probing_overhead,
    table3_scheduling_latency,
    table4_dag_processing,
)
from .static_placement import (
    fig10_camera_static,
    fig11_socialnet_p99,
    table2_camera_mesh,
)
from .thresholds import fig14cd_sweep_spec, fig16_sweep_spec

__all__ = [
    "AppHandle",
    "ExperimentEnv",
    "MultiTenantResult",
    "StreamPairApp",
    "ablate_cooldown",
    "ablate_headroom_probing",
    "ablate_hybrid_heuristic",
    "ablate_online_profiling",
    "ablate_routing_strategy",
    "ablate_stability_guards",
    "build_env",
    "deploy_app",
    "fig2_bandwidth_variation",
    "fig4_pion_bottleneck",
    "fig5_socialnet_throttle",
    "fig8_migration_timeline",
    "fig10_camera_static",
    "fig11_socialnet_p99",
    "fig12_video_query_interval",
    "fig13_socialnet_migration",
    "fig14a_restart_cdf",
    "fig14b_scheduler_cdf",
    "fig14cd_sweep_spec",
    "fig15b_video_thresholds",
    "fig16_sweep_spec",
    "multi_tenant_contention",
    "multi_tenant_mesh",
    "probing_overhead",
    "run_timeline",
    "table1_migration_iterations",
    "table2_camera_mesh",
    "table3_scheduling_latency",
    "table4_dag_processing",
]
