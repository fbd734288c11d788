package adaptive

import (
	"fmt"

	"eventpf/internal/baseline"
)

// CopyStateFrom implements baseline.Unit's fork half. The fork's own
// constructor rebuilt the arms (same menu, same order), so only value state
// is copied: the policy, the per-arm rewards and interval counts, the run
// counters and the hosted arms' own state, pairwise. The pending decision
// tick lives in the parent's event queue and re-targets the fork through the
// engine's handler pairing; the tick the fork's constructor armed is
// discarded when the fork's event queue is overwritten by the parent's.
func (u *Unit) CopyStateFrom(src baseline.Unit) error {
	su, ok := src.(*Unit)
	if !ok {
		return fmt.Errorf("adaptive: fork of %T into %T", src, u)
	}
	if len(u.arms) != len(su.arms) {
		return fmt.Errorf("adaptive: fork across different menus (%d vs %d arms)", len(su.arms), len(u.arms))
	}
	u.policy = su.policy
	u.reward = append(u.reward[:0], su.reward...)
	u.armIvals = append(u.armIvals[:0], su.armIvals...)
	u.stats = su.stats // ArmIntervals is filled only in ControllerStats' copy
	for i := range u.arms {
		if (u.arms[i].unit == nil) != (su.arms[i].unit == nil) || u.arms[i].name != su.arms[i].name {
			return fmt.Errorf("adaptive: fork arm %d mismatch (%q vs %q)", i, su.arms[i].name, u.arms[i].name)
		}
		if u.arms[i].unit == nil {
			continue
		}
		if err := u.arms[i].unit.CopyStateFrom(su.arms[i].unit); err != nil {
			return fmt.Errorf("adaptive: arm %q: %w", u.arms[i].name, err)
		}
	}
	return nil
}
