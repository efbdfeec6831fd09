#!/usr/bin/env python
"""Full O-RAN integration: every decision travels A1 -> E2, every KPI
travels E2 -> O1.

Deploys EdgeBOL as an rApp in the O-RAN plane of the paper's Fig. 7,
run as a one-cell fleet:
the learning agent's radio policies are pushed as A1 policy instances,
enforced on the simulated O-eNB through E2 RIC Control by the policy
xApp, while the BS power KPI flows back through E2 indications, the KPI
database xApp and O1 reports into the data-collector rApp.  Every hop
is a message on the event-loop bus, drained at the period's two
synchronisation points.  The example prints interface traffic counters
and the O-eNB MAC state the agent's decisions produced.

Usage:
    python examples/oran_integration.py [n_periods]
"""

import sys

import numpy as np

from repro import CostWeights, EdgeBOL, ServiceConstraints, TestbedConfig
from repro.oran import FleetRuntime
from repro.testbed.scenarios import static_scenario
from repro.utils.ascii import render_table


def main(n_periods: int = 50) -> None:
    config = TestbedConfig()
    env = static_scenario(mean_snr_db=35.0, rng=11, config=config)
    agent = EdgeBOL(
        config.control_grid(),
        ServiceConstraints(d_max_s=0.4, rho_min=0.5),
        CostWeights(delta1=1.0, delta2=2.0),
    )
    fleet = FleetRuntime([(env, agent)])
    log = fleet.run(n_periods).logs["cell000"]

    cell = fleet.cells[0]
    rows = [
        ["periods run", len(log)],
        ["A1 policies deployed (rApp)", cell.policy_rapp.deployed_policies],
        ["E2 controls enforced (xApp)", cell.policy_xapp.enforced],
        ["E2 indications stored (KPI xApp)", len(cell.kpi_xapp.records)],
        ["O1 reports received (collector rApp)", cell.collector.report_count],
        ["bus topics", ", ".join(fleet.bus.topics())],
        ["final cost", log.cost[-1]],
        ["final enforced airtime", log.airtime[-1]],
        ["final enforced MCS cap", cell.e2_node.radio_policy.max_mcs],
    ]
    print(render_table(["metric", "value"], rows))

    costs = log.cost
    print(
        f"\ncost: first-5 mean {np.mean(costs[:5]):.1f} -> "
        f"last-10 mean {np.mean(costs[-10:]):.1f}"
    )
    enforced = cell.e2_node.radio_policy
    print(
        f"O-eNB MAC state after the run: airtime={enforced.airtime:.2f}, "
        f"max_mcs={enforced.max_mcs} (set exclusively via A1->E2)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 50)
