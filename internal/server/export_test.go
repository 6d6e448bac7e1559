package server

import (
	"maps"
	"slices"
)

// CachedKeys returns the keys of the reports s serves from its result
// cache, sorted.
func (s *Server) CachedKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.cache))
}
