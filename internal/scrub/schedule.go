package scrub

import "arcc/internal/pagetable"

// applyModeTransitions performs the end-of-scrub upgrades for the pages
// found faulty: a relaxed page is upgraded, and on a four-channel
// controller an upgraded page found faulty again gets the §5.1 second
// upgrade to the 8-check Upgraded8 mode.
func (s *Scrubber) applyModeTransitions(faulty []int) {
	for _, page := range faulty {
		switch s.mem.PageMode(page) {
		case pagetable.Relaxed:
			// The page is upgraded even when a DUE lost data along the
			// way: the stronger mode is still the right place for it.
			_ = s.mem.UpgradePage(page)
			s.stats.PagesUpgraded++
		case pagetable.Upgraded:
			if s.mem.SupportsStrongUpgrade() {
				_ = s.mem.UpgradePageToStrong(page)
				s.stats.PagesUpgraded++
			}
		}
	}
}
