package qpg

import "uplan/internal/oracle"

// OracleName is QPG's registry key.
const OracleName = "qpg"

func init() { oracle.Register(TaskOracle{}, 0) }

// TaskOracle is QPG's oracle.Oracle implementation: a full plan-guided
// campaign (plan guidance, differential and TLP oracles, mutation
// feedback) run as one orchestrator task, streaming every observed
// unified plan into the shared cross-engine set and every finding
// through the task context as it occurs.
type TaskOracle struct{}

// Name implements oracle.Oracle.
func (TaskOracle) Name() string { return OracleName }

// Run implements oracle.Oracle.
func (TaskOracle) Run(tc *oracle.TaskContext) (oracle.TaskReport, error) {
	c, err := newCampaign(tc)
	if err != nil {
		return oracle.TaskReport{}, err
	}
	if err := c.setup(); err != nil {
		return c.rep, err
	}
	c.run()
	return c.rep, nil
}
