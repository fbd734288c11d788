package adaptive

import (
	"fmt"

	"eventpf/internal/baseline"
)

// CopyStateFrom implements baseline.Unit's fork half. The fork's own
// constructor rebuilt the arms (the menu is fixed), so only value state is
// copied: the policy, sensors and run counters by one assignment, and the
// hosted arms' own state, pairwise. The pending decision tick lives in the
// parent's event queue and re-targets the fork through the engine's handler
// pairing; the tick the fork's constructor armed is discarded when the
// fork's event queue is overwritten by the parent's.
func (u *Unit) CopyStateFrom(src baseline.Unit) error {
	su, ok := src.(*Unit)
	if !ok {
		return fmt.Errorf("adaptive: fork of %T into %T", src, u)
	}
	u.state = su.state
	for i, unit := range u.units {
		if unit == nil {
			continue
		}
		if err := unit.CopyStateFrom(su.units[i]); err != nil {
			return fmt.Errorf("adaptive: arm %q: %w", armNames[i], err)
		}
	}
	return nil
}
