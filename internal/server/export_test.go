package server

import "headroom/internal/breaker"

// BreakerState exposes an endpoint's breaker position; the second return is
// false when breakers are disabled.
func (s *Server) BreakerState(kind string) (breaker.State, bool) {
	br := s.kind(kind).breaker
	return br.State(), br != nil
}
