package scrub

import "arcc/internal/pagetable"

// SecondLevel controls whether FullScrub also applies the §5.1 second
// upgrade: a page that is *already* upgraded and is found faulty again gets
// promoted to the 8-check Upgraded8 mode (four-channel controllers only).
func (s *Scrubber) SetSecondLevel(enable bool) {
	if enable && !s.mem.SupportsStrongUpgrade() {
		panic("scrub: second-level upgrades require a four-channel controller")
	}
	s.secondLevel = enable
}

// applyModeTransitions performs the end-of-scrub upgrades for the pages
// found faulty.
func (s *Scrubber) applyModeTransitions(faulty []int) {
	for _, page := range faulty {
		switch s.mem.PageMode(page) {
		case pagetable.Relaxed:
			// The page is upgraded even when a DUE lost data along the
			// way: the stronger mode is still the right place for it.
			_ = s.mem.UpgradePage(page)
			s.stats.PagesUpgraded++
		case pagetable.Upgraded:
			if s.secondLevel {
				_ = s.mem.UpgradePageToStrong(page)
				s.stats.PagesUpgraded++
			}
		}
	}
}
